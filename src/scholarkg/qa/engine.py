"""Query resolution over the scholarly graph.

The pipeline turns a natural-language question into triple patterns,
matches them against the graph (relaxing the query breadth-first when the
exact form finds nothing), and scores the entities of the matched triples
by frequency and purity.

Matching is term at a time. Per question it walks the graph's label,
link, mention and sentence edges once, into one lowered text of every
paragraph and excerpt anchor (joined, with each anchor's start offset)
and one map from mention key to anchors. Each distinct ground term is
then evaluated once: the anchors that mention it, united with those
whose text holds its phrase as whole words, found by one regex search
of the joined text. A pattern is the intersection of its terms' anchor
sets, so a relaxed query costs intersections of cached sets rather than
a graph scan, and witness triples are built only for matched anchors.
Ranking tallies every entity in one pass over the candidates.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
from itertools import accumulate
from typing import Callable, Iterable, Iterator

from ..gateway import Gateway, GatewayRequest, parse_triples_response
from ..kg.graph import KnowledgeGraph
from ..kg.terms import (
    CompoundQuery,
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    Iri,
    Literal,
    MENTIONS,
    PARAGRAPH,
    RDFS_LABEL,
    Triple,
    TriplePattern,
    WILDCARD,
    _Value,
    entity_phrase,
    normalize_entity_key,
)
from .relaxation import RelaxationDictionary, RelaxedQuery, relax_set

__all__ = [
    "QuestionParseError",
    "extract_question_patterns",
    "query_entities_of",
    "default_relaxation_dictionary",
    "match_candidates",
    "CandidateTripleSet",
    "resolve_query",
    "rank_candidates",
    "RankedEntity",
]


class QuestionParseError(Exception):
    """The gateway's triple extraction yielded no usable pattern."""

    def __init__(self, message: str, raw_response: str):
        super().__init__(message)
        self.raw_response = raw_response


def extract_question_patterns(question: str, gateway: Gateway) -> CompoundQuery:
    """Ask the gateway to decompose a question into triple patterns.

    Ground terms come back as natural-language phrases and are normalized
    to lowercase underscore-separated entity keys. Patterns without any
    ground term are dropped; if nothing usable remains, the raw gateway
    response is attached to the error for inspection.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    response = gateway.complete(GatewayRequest.extraction(question.strip()))
    raw_patterns = parse_triples_response(response.text)

    def normalize(term):
        if isinstance(term, str):
            key = normalize_entity_key(term)
            return key if key else WILDCARD
        return term

    patterns = []
    for pattern in raw_patterns:
        normalized = TriplePattern(*(normalize(t) for t in pattern))
        if normalized.has_ground_term:
            patterns.append(normalized)
    if not patterns:
        raise QuestionParseError(
            f"no triple patterns could be read from the gateway response for {question!r}",
            raw_response=response.text,
        )
    return CompoundQuery(tuple(patterns))


def query_entities_of(query: CompoundQuery) -> set[str]:
    """Entity keys named by a query: its ground subjects and objects.

    Predicates are phrases rather than entities; they are only used when
    a query grounds nothing else.
    """
    keys = {
        term for pattern in query.patterns
        for term in (pattern.subject, pattern.object)
        if isinstance(term, str)
    }
    if not keys:
        keys = {
            pattern.predicate for pattern in query.patterns
            if isinstance(pattern.predicate, str)
        }
    return keys


def default_relaxation_dictionary(query: CompoundQuery) -> RelaxationDictionary:
    """Wildcard-introducing replacements derived from the query itself.

    For each pattern the dictionary offers the three variants that omit
    one component, mirroring how an over-specific question triple is
    loosened by leaving out its subject, predicate or object.
    """
    entries: list[TriplePattern] = []
    for p in query.patterns:
        for variant in (
            TriplePattern(p.subject, WILDCARD, p.object),
            TriplePattern(p.subject, p.predicate, WILDCARD),
            TriplePattern(WILDCARD, p.predicate, p.object),
        ):
            if variant.has_ground_term:
                entries.append(variant)
    return RelaxationDictionary(tuple(entries))


# ---------------------------------------------------------------------------
# Soft matching of natural-language patterns
# ---------------------------------------------------------------------------

# A word of a phrase haystack (``kg.terms.phrase_haystack``).
_WORD = re.compile(r"[a-z0-9]+")
_WORD_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789"


def _anchor_matcher(graph: KnowledgeGraph) -> Callable[[CompoundQuery], frozenset[Triple]]:
    """A matcher over ``graph`` that reads each of its edge buckets once.

    The anchors are the paragraphs, in input order, then the excerpts. A
    paragraph's text is its least lexical label (``graph.labels()``), and
    it owns its excerpts' mentions; an excerpt's text is its least lexical
    label and its ``inSentence`` literals in lexical order, so the text
    does not depend on the graph's input order. One pass over each of the
    sentence, link, mention and label buckets (``match``) fills the
    excerpts' texts, each mentioner's owning anchors, an inverted index
    from mention key to anchors and each subject's witness triples. The
    lowered texts are joined into one string, with each anchor's start
    offset; the matcher keeps only that string, the offsets and the
    anchors that have no text, and drops the per-anchor texts and their
    parts once joined. Each distinct ground term's anchor set is computed
    on first use and cached; a pattern's set is the intersection of its
    ground terms' sets (every anchor, for a pattern with none), a query's
    anchors the intersection of its patterns' sets, and its result the
    union of their witnesses, built only for those.
    """
    paragraphs = graph.subjects_of_type(PARAGRAPH)
    excerpts = graph.subjects_of_type(EXCERPT)
    anchors = [*paragraphs, *excerpts]
    first_excerpt = len(paragraphs)
    sentences: dict[Iri, list[str]] = {node: [] for node in excerpts}
    for t in graph.match(predicate=IN_SENTENCE):
        if t[0] in sentences and isinstance(t[2], Literal):
            sentences[t[0]].append(t[2][0])
    label_of = graph.labels().get
    parts = [[] if (label := label_of(node)) is None else [label[0]] for node in anchors]
    for i in range(first_excerpt, len(anchors)):
        parts[i] += sorted(sentences[anchors[i]])
    del sentences
    texts = [" ".join(text).lower() for text in parts]
    # the anchors with neither a label nor a sentence: no text, not even an empty one
    textless = frozenset(i for i, text in enumerate(parts) if not text)
    del parts
    joined = "\n".join(texts)
    # starts[i] is the offset of anchor i's text; starts[-1] lies past the end
    starts = list(accumulate((len(text) + 1 for text in texts), initial=0))
    del texts
    owners = {node: [i] for i, node in enumerate(excerpts, first_excerpt)}
    paragraph_at = {node: i for i, node in enumerate(paragraphs)}
    links_of: dict[int, list[Triple]] = {}
    for t in graph.match(predicate=HAS_EXCERPT):
        if (i := paragraph_at.get(t[0])) is not None:
            links_of.setdefault(i, []).append(t)
            if isinstance(t[2], Iri):
                owners.setdefault(t[2], []).append(i)
    mentions_of: dict[Iri, list[Triple]] = {}
    anchors_of_key: dict[str, list[int]] = {}
    key_of: dict[Iri | Literal, str] = {}
    for t in graph.match(predicate=MENTIONS):
        if (owned := owners.get(t[0])) is not None:
            mentions_of.setdefault(t[0], []).append(t)
            if (key := key_of.get(t[2])) is None:
                key = key_of[t[2]] = t[2].entity_key()
            anchors_of_key.setdefault(key, []).extend(owned)
    labels_of: dict[Iri, list[Triple]] = {}
    for t in graph.match(predicate=RDFS_LABEL):
        labels_of.setdefault(t[0], []).append(t)

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
            found.update(i for i in range(len(anchors)) if i not in textless
                         and not _WORD.search(joined, starts[i], starts[i + 1] - 1))
        else:
            words = phrase.split(" ")
            if all(_WORD.fullmatch(word) for word in words):
                found.update(with_phrase(words))
        return frozenset(found)

    def witnesses(i: int) -> list[Triple]:
        node, links = anchors[i], links_of.get(i, ())  # an excerpt has no links
        mentioners = [node] if i >= first_excerpt else [
            edge[2] for edge in links if isinstance(edge[2], Iri)]
        return [*labels_of.get(node, ()), *links,
                *(m for mentioner in mentioners for m in mentions_of.get(mentioner, ()))]

    of_term: dict[str, frozenset[int]] = {}
    of_pattern: dict[TriplePattern, frozenset[int]] = {}

    def anchors_of(pattern: TriplePattern) -> frozenset[int]:
        if pattern not in of_pattern:
            sets = []
            for term in pattern:
                if isinstance(term, str):
                    if term not in of_term:
                        of_term[term] = term_anchors(term)
                    sets.append(of_term[term])
            of_pattern[pattern] = (frozenset.intersection(*sets) if sets
                                   else frozenset(range(len(anchors))))
        return of_pattern[pattern]

    def match(query: CompoundQuery) -> frozenset[Triple]:
        hits = frozenset.intersection(*(anchors_of(p) for p in query.patterns))
        return frozenset().union(*(witnesses(i) for i in hits))

    return match


def match_candidates(graph: KnowledgeGraph, query: CompoundQuery) -> frozenset[Triple]:
    """Match natural-language patterns against textual nodes of the graph.

    A paragraph or excerpt node satisfies a pattern when every ground
    term is found at the node, either as a mentioned entity key or by
    phrase containment in the node's text; the node must satisfy all
    patterns of the query. The result is the union of the witness triples
    (labels, paragraph-excerpt links, mentions) of the satisfying nodes.
    """
    return _anchor_matcher(graph)(query)


# ---------------------------------------------------------------------------
# Breadth-first resolution
# ---------------------------------------------------------------------------

class CandidateTripleSet(_Value, namedtuple(
        "_CandidateTripleSetFields", "triples depth max_depth producing_queries",
        defaults=((),))):
    """Triples matched by a query (a frozenset), with the depth and the
    relaxed queries that produced them.

    A depth greater than ``max_depth`` marks exhaustion: no relaxation
    within the budget matched anything and ``triples`` is empty.
    """

    __slots__ = ()

    @property
    def exhausted(self) -> bool:
        return self.depth > self.max_depth


def resolve_query(graph: KnowledgeGraph, query: CompoundQuery,
                  dictionary: RelaxationDictionary | None = None,
                  max_depth: int = 2) -> CandidateTripleSet:
    """Match ``query``, relaxing breadth-first until something matches.

    Depth 0 is the query itself. Each further depth applies every
    depth-1 relaxation to the previous frontier, skipping pattern lists
    already tried. At the first depth where any query matches, the
    matched triples of all matching queries at that depth are unioned
    and returned. If nothing matches within ``max_depth``, the result is
    empty with depth ``max_depth + 1``.

    The graph's edges are walked once per call and each distinct ground
    term is evaluated once; every relaxed query after that is an
    intersection of cached anchor sets. A query produces only when its
    anchors have at least one witness triple.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    if dictionary is None:
        dictionary = RelaxationDictionary()
    match = _anchor_matcher(graph)
    frontier = [RelaxedQuery(query=query)]
    visited: set[tuple[TriplePattern, ...]] = {query.patterns}

    for depth in range(max_depth + 1):
        producing: list[RelaxedQuery] = []
        triples: set[Triple] = set()
        for candidate in frontier:
            matched = match(candidate.query)
            if matched:
                producing.append(candidate)
                triples.update(matched)
        if producing:
            return CandidateTripleSet(
                triples=frozenset(triples),
                depth=depth,
                max_depth=max_depth,
                producing_queries=tuple(producing),
            )
        next_frontier: list[RelaxedQuery] = []
        for candidate in frontier:
            for step in relax_set(candidate.query, dictionary):
                if step.query.patterns in visited:
                    continue
                visited.add(step.query.patterns)
                next_frontier.append(RelaxedQuery(
                    query=step.query, edits=candidate.edits + step.edits))
        frontier = next_frontier
        if not frontier:
            break

    return CandidateTripleSet(
        triples=frozenset(), depth=max_depth + 1, max_depth=max_depth)


# ---------------------------------------------------------------------------
# Entity scoring
# ---------------------------------------------------------------------------

class RankedEntity(_Value, namedtuple("_RankedEntityFields", "entity frequency purity")):
    __slots__ = ()

    @property
    def score(self) -> float:
        return self.frequency * self.purity


def rank_candidates(candidates: Iterable[Triple],
                    query_entities: set[str]) -> list[RankedEntity]:
    """Rank the entities of a candidate triple set in one tally pass.

    A triple's entities are the keys of its subject and of its IRI object.
    An entity's frequency is the number of candidate triples it appears
    in; its purity is the fraction of the entities it co-occurs with
    (within a single triple) that the query named, or 0 when it co-occurs
    with none. The score is frequency times purity; ties break by higher
    frequency, then by entity key, so the ranking is deterministic
    regardless of triple order.
    """
    counts: dict[str, int] = {}
    co_occurring: dict[str, set[str]] = {}
    for triple in candidates:
        keys = {triple.subject.entity_key()}
        if isinstance(triple.object, Iri):
            keys.add(triple.object.entity_key())
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
            co_occurring.setdefault(key, set()).update(keys)
    ranked = []
    for entity, count in counts.items():
        co = co_occurring[entity] - {entity}
        purity = len(co & query_entities) / len(co) if co else 0.0
        ranked.append(RankedEntity(entity=entity, frequency=count, purity=purity))
    ranked.sort(key=lambda r: (-r.score, -r.frequency, r.entity))
    return ranked
