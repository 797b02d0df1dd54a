"""The phrase matcher and the label lookup as they were before the
least-label index.

``anchor_matcher`` is ``scholarkg.qa.engine._anchor_matcher`` as it was
then: it groups the label, link, mention and sentence buckets by subject
and looks each anchor's label up with ``label_of``.
``ReferenceGraph.label_of`` takes the least lexical form of a node's
literal labels with ``min`` over the node's group of the ``rdfs:label``
bucket. Both group with ``anchor_graphs.group_by_subject``, which reads
``graph.match`` alone, so the oracle shares no index with the graph or
the engine. They are the reference that the differential tests in
``test_engine.py`` compare the engine's bucket walk and the graph's
least-label index against: patched into ``scholarkg.qa.engine``, they
must give the same resolution and the same answers.
"""

import re
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterator

from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.patterns import CompoundQuery, TriplePattern, is_ground
from scholarkg.kg.terms import (
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    Iri,
    Literal,
    MENTIONS,
    PARAGRAPH,
    RDFS_LABEL,
    Triple,
    entity_phrase,
)

from anchor_graphs import group_by_subject

_WORD = re.compile(r"[a-z0-9]+")
_WORD_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


class ReferenceGraph(KnowledgeGraph):
    """A graph whose ``label_of`` takes the least of the node's group of
    labels per call; the groups are made once, with the graph."""

    __slots__ = ("_label_groups",)

    def __init__(self, triples=()):
        super().__init__(triples)
        self._label_groups = group_by_subject(self, RDFS_LABEL)

    def label_of(self, node: Iri) -> Literal | None:
        return min((t.object for t in self._label_groups.get(node, ())
                    if isinstance(t.object, Literal)),
                   key=lambda label: label.lexical, default=None)


def anchor_matcher(graph: KnowledgeGraph) -> Callable[[CompoundQuery], frozenset[Triple]]:
    """A matcher over ``graph`` that walks its edges once.

    The anchors are the paragraphs, in input order, then the excerpts. A
    paragraph's text is its least lexical label (``label_of``), and it owns
    its excerpts' mentions; an excerpt's text is its least lexical label
    and its ``inSentence`` literals in lexical order, so the text does not
    depend on the graph's input order. The walk reads the label, link,
    mention and sentence edges grouped by subject (``group_by_subject``), joins
    the anchors' lowered texts into one string with each anchor's start
    offset, and maps each mention key to its anchors. Each distinct ground
    term's anchor set is computed on first use and cached; a pattern's set
    is the intersection of its ground terms' sets, a query's anchors are
    the intersection of its patterns' sets, and its result is the union of
    their witnesses, which are built only for those anchors.
    """
    labels, links, mentions, sentences = (
        group_by_subject(graph, p) for p in (RDFS_LABEL, HAS_EXCERPT, MENTIONS, IN_SENTENCE))
    anchors = [(node, True) for node in graph.subjects_of_type(PARAGRAPH)]
    anchors += [(node, False) for node in graph.subjects_of_type(EXCERPT)]
    texts: list[str] = []
    no_text: set[int] = set()
    anchors_of_key: dict[str, list[int]] = {}
    key_of: dict[Iri | Literal, str] = {}
    for i, (node, is_paragraph) in enumerate(anchors):
        label = graph.label_of(node)
        parts = [label.lexical] if label else []
        if is_paragraph:
            mentioners = [edge.object for edge in links.get(node, ())
                          if isinstance(edge.object, Iri)]
        else:
            parts += sorted(t.object.lexical for t in sentences.get(node, ())
                            if isinstance(t.object, Literal))
            mentioners = [node]
        if not parts:
            no_text.add(i)
        texts.append(" ".join(parts).lower())
        for mentioner in mentioners:
            for mention in mentions.get(mentioner, ()):
                key = key_of.get(mention.object)
                if key is None:
                    key = key_of[mention.object] = mention.object.entity_key()
                ids = anchors_of_key.setdefault(key, [])
                if not ids or ids[-1] != i:
                    ids.append(i)
    joined = "\n".join(texts)
    # starts[i] is the offset of anchor i's text; starts[-1] lies past the end
    starts = list(accumulate((len(text) + 1 for text in texts), initial=0))

    def with_phrase(words: list[str]) -> Iterator[int]:
        """The anchors whose text holds ``words`` as consecutive whole words.

        The regex starts with the literal first word, so ``re`` scans for
        that literal; the character before it is checked here. A rejected
        match is searched again from its start + 1, since matches overlap.
        """
        regex = re.compile("[^a-z0-9]+".join(words) + "(?![a-z0-9])")
        position = 0
        while match := regex.search(joined, position):
            start = match.start()
            anchor = bisect_right(starts, start) - 1
            if ((start and joined[start - 1] in _WORD_CHARS)
                    or match.end() >= starts[anchor + 1]):  # inside a word, or across anchors
                position = start + 1
            else:
                yield anchor
                position = starts[anchor + 1]

    def term_anchors(term: str) -> frozenset[int]:
        phrase = entity_phrase(term)
        found = set(anchors_of_key.get(term, ()))
        if not phrase:  # found in "  ", the haystack of a text without words
            found.update(i for i, text in enumerate(texts)
                         if i not in no_text and not _WORD.search(text))
        else:
            words = phrase.split(" ")
            if all(_WORD.fullmatch(word) for word in words):
                found.update(with_phrase(words))
        return frozenset(found)

    def witnesses(i: int) -> list[Triple]:
        node, is_paragraph = anchors[i]
        if not is_paragraph:
            return [*labels.get(node, ()), *mentions.get(node, ())]
        node_links = links.get(node, ())
        return [*labels.get(node, ()), *node_links,
                *(m for edge in node_links if isinstance(edge.object, Iri)
                  for m in mentions.get(edge.object, ()))]

    every = frozenset(range(len(anchors)))
    of_term: dict[str, frozenset[int]] = {}
    of_pattern: dict[TriplePattern, frozenset[int]] = {}

    def anchors_of(pattern: TriplePattern) -> frozenset[int]:
        if pattern not in of_pattern:
            sets = []
            for term in pattern.terms:
                if is_ground(term):
                    if term not in of_term:
                        of_term[term] = term_anchors(term)
                    sets.append(of_term[term])
            of_pattern[pattern] = frozenset.intersection(*sets) if sets else every
        return of_pattern[pattern]

    def match(query: CompoundQuery) -> frozenset[Triple]:
        hits = frozenset.intersection(*(anchors_of(p) for p in query.patterns))
        return frozenset().union(*(witnesses(i) for i in hits))

    return match
