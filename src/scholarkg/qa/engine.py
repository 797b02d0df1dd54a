"""Query resolution over the scholarly graph.

The pipeline turns a natural-language question into triple patterns,
matches them against the graph (relaxing the query breadth-first when the
exact form finds nothing), and scores the entities of the matched triples
by frequency and purity.

Matching reads the graph's paragraph and excerpt anchors once per
question. Each distinct pattern is evaluated against those anchors once,
so a relaxed query costs an intersection of cached anchor sets rather
than a graph scan. An anchor keeps its text lowercased and builds the
whole-word phrase haystack on first use, only for a phrase whose every
word is a substring of that text. Ranking tallies every entity in one
pass over the candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from typing import Callable, Iterable

from ..gateway import Gateway, GatewayRequest, parse_triples_response
from ..kg.graph import KnowledgeGraph
from ..kg.patterns import CompoundQuery, TriplePattern, WILDCARD, is_ground
from ..kg.terms import (
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
    normalize_entity_key,
    phrase_haystack,
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
    "triple_entities",
    "rank_candidates",
    "RankedEntity",
    "load_template",
]


def load_template(name: str) -> str:
    """Read a prompt template bundled with the package."""
    return resources.files("scholarkg.qa").joinpath("templates", name).read_text("utf-8")


class QuestionParseError(Exception):
    """The gateway's triple extraction yielded no usable pattern."""

    def __init__(self, message: str, raw_response: str):
        super().__init__(message)
        self.raw_response = raw_response


def extract_question_patterns(question: str, gateway: Gateway,
                              max_tokens: int = 512) -> CompoundQuery:
    """Ask the gateway to decompose a question into triple patterns.

    Ground terms come back as natural-language phrases and are normalized
    to lowercase underscore-separated entity keys. Patterns without any
    ground term are dropped; if nothing usable remains, the raw gateway
    response is attached to the error for inspection.
    """
    if not question.strip():
        raise ValueError("question must be non-empty")
    template = load_template("extract_patterns.txt")
    request = GatewayRequest(
        system="",
        user=template.format(question=question.strip()),
        max_tokens=max_tokens,
    )
    response = gateway.complete(request)
    raw_patterns = parse_triples_response(response.text)

    def normalize(term):
        if isinstance(term, str):
            key = normalize_entity_key(term)
            return key if key else WILDCARD
        return term

    patterns = []
    for pattern in raw_patterns:
        normalized = TriplePattern(*(normalize(t) for t in pattern.terms))
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

@dataclass(frozen=True)
class _Anchor:
    node: Iri
    lowered: str | None     # lowercased label (+ source sentence for excerpts), if any
    mention_keys: frozenset[str]
    witnesses: tuple[Triple, ...]

    @cached_property
    def text(self) -> str:
        """The phrase haystack of ``lowered``, built on first use."""
        return "" if self.lowered is None else phrase_haystack(self.lowered)


def _anchors(graph: KnowledgeGraph) -> list[_Anchor]:
    """Paragraph anchors, which own their excerpts' mentions, then excerpt anchors.

    The label, link, mention and sentence edges are each grouped by
    subject once, from the graph's predicate index, in graph order.
    """
    labels, links, mentions, sentences = (
        _by_subject(graph.match(predicate=p))
        for p in (RDFS_LABEL, HAS_EXCERPT, MENTIONS, IN_SENTENCE))

    def anchor(node: Iri, node_links: list[Triple], node_mentions: list[Triple],
               node_sentences: list[Triple]) -> _Anchor:
        label = graph.label_of(node)
        text_parts = [label.lexical] if label else []
        text_parts += [t.object.lexical for t in node_sentences if isinstance(t.object, Literal)]
        return _Anchor(
            node=node,
            lowered=" ".join(text_parts).lower() if text_parts else None,
            mention_keys=frozenset(m.object.entity_key() for m in node_mentions),
            witnesses=(*labels.get(node, ()), *node_links, *node_mentions),
        )

    anchors = []
    for node in graph.subjects_of_type(PARAGRAPH):
        node_links = links.get(node, [])
        excerpt_mentions = [m for edge in node_links if isinstance(edge.object, Iri)
                            for m in mentions.get(edge.object, ())]
        anchors.append(anchor(node, node_links, excerpt_mentions, []))
    for node in graph.subjects_of_type(EXCERPT):
        anchors.append(anchor(node, [], mentions.get(node, []), sentences.get(node, [])))
    return anchors


def _by_subject(triples: Iterable[Triple]) -> dict[Iri, list[Triple]]:
    grouped: dict[Iri, list[Triple]] = {}
    for t in triples:
        grouped.setdefault(t.subject, []).append(t)
    return grouped


def _has_phrase(anchor: _Anchor, phrase: str) -> bool:
    """Whether ``phrase`` occurs as whole words in the anchor's text.

    Every haystack word is a substring of ``lowered``, so the phrase can
    occur only if each of its words is one too; the haystack is built only
    for such a phrase.
    """
    lowered = anchor.lowered
    return (lowered is not None and all(word in lowered for word in phrase.split(" "))
            and f" {phrase} " in anchor.text)


def _term_matches(term, anchor: _Anchor, graph: KnowledgeGraph) -> bool:
    if not is_ground(term):
        return True
    if isinstance(term, str):
        return term in anchor.mention_keys or _has_phrase(anchor, entity_phrase(term))
    if isinstance(term, Iri):
        if term == anchor.node:
            return True
        return bool(graph.match(subject=anchor.node, object=term)
                    or graph.match(subject=term, object=anchor.node))
    # Literal ground term: containment in the anchor's text.
    return _has_phrase(anchor, entity_phrase(normalize_entity_key(term.lexical)))


def _anchor_matcher(graph: KnowledgeGraph) -> Callable[[CompoundQuery], frozenset[Triple]]:
    """A matcher over ``graph`` that reads its anchors once.

    Each distinct pattern's set of satisfying anchors is computed on first
    use and cached; a query's anchors are the intersection of its
    patterns' sets, and its result is the union of their witnesses.
    """
    anchors = _anchors(graph)
    satisfying: dict[TriplePattern, frozenset[int]] = {}

    def anchors_of(pattern: TriplePattern) -> frozenset[int]:
        if pattern not in satisfying:
            satisfying[pattern] = frozenset(
                i for i, anchor in enumerate(anchors)
                if all(_term_matches(term, anchor, graph) for term in pattern.terms))
        return satisfying[pattern]

    def match(query: CompoundQuery) -> frozenset[Triple]:
        hits = frozenset.intersection(*(anchors_of(p) for p in query.patterns))
        return frozenset().union(*(anchors[i].witnesses for i in hits))

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

@dataclass(frozen=True)
class CandidateTripleSet:
    """Triples matched by a query, with the relaxation that produced them.

    A depth greater than ``max_depth`` marks exhaustion: no relaxation
    within the budget matched anything and ``triples`` is empty.
    """

    triples: frozenset[Triple]
    depth: int
    max_depth: int
    producing_queries: tuple[RelaxedQuery, ...] = ()

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

    The graph's anchors are read once per call and each distinct pattern
    is evaluated against them once; every relaxed query after that is an
    intersection of cached anchor sets. A query produces only when its
    anchors have at least one witness triple.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    if dictionary is None:
        dictionary = RelaxationDictionary()
    match = _anchor_matcher(graph)
    frontier = [RelaxedQuery(query=query, depth=0)]
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
                    query=step.query,
                    depth=candidate.depth + 1,
                    edits=candidate.edits + step.edits,
                ))
        frontier = next_frontier
        if not frontier:
            break

    return CandidateTripleSet(
        triples=frozenset(), depth=max_depth + 1, max_depth=max_depth)


# ---------------------------------------------------------------------------
# Entity scoring
# ---------------------------------------------------------------------------

def triple_entities(triple: Triple) -> set[str]:
    """Entity keys appearing in a triple (subject and IRI object)."""
    keys = {triple.subject.entity_key()}
    if isinstance(triple.object, Iri):
        keys.add(triple.object.entity_key())
    return keys


@dataclass(frozen=True)
class RankedEntity:
    entity: str
    frequency: int
    purity: float

    @property
    def score(self) -> float:
        return self.frequency * self.purity


def rank_candidates(candidates: Iterable[Triple],
                    query_entities: set[str]) -> list[RankedEntity]:
    """Rank the entities of a candidate triple set in one tally pass.

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
        keys = triple_entities(triple)
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
