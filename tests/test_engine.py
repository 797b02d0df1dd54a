import random
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.gateway import StubGateway
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.patterns import CompoundQuery, TriplePattern, WILDCARD, is_ground
from scholarkg.kg.terms import (
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    MENTIONS,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    Iri,
    Literal,
    Triple,
    entity_iri,
    entity_phrase,
    iri,
    phrase_haystack,
)
from scholarkg.kg.turtle import load_turtle
from scholarkg.qa import engine
from scholarkg.qa.context import answer_question
from scholarkg.qa.engine import (
    CandidateTripleSet,
    QuestionParseError,
    RankedEntity,
    default_relaxation_dictionary,
    extract_question_patterns,
    match_candidates,
    query_entities_of,
    rank_candidates,
    resolve_query,
)
from scholarkg.qa.relaxation import RelaxationDictionary, RelaxedQuery, relax_set

import reference_matcher
from anchor_graphs import KEYS, random_anchor_graph, random_phrase, random_question
from test_acceptance import load_bench_generator, oracle_entities

QUESTION = "Which tool is applied to extract text from PDF research proposals?"


def cq(*patterns) -> CompoundQuery:
    return CompoundQuery(tuple(TriplePattern(*p) for p in patterns))


# ---------------------------------------------------------------------------
# Question decomposition
# ---------------------------------------------------------------------------

def test_extract_question_patterns_normalizes_keys(stub_gateway):
    query = extract_question_patterns(QUESTION, stub_gateway)
    assert query.patterns == (
        TriplePattern("tool", "is_applied_to_extract_from", "pdf_research_proposals"),)


def test_extract_question_patterns_rejects_empty_question(stub_gateway):
    with pytest.raises(ValueError):
        extract_question_patterns("   ", stub_gateway)


def test_extract_question_patterns_unusable_response():
    class NoisyGateway(StubGateway):
        def _extract(self, user_text: str) -> str:
            return "? | ? | ?"

    with pytest.raises(QuestionParseError) as err:
        extract_question_patterns(QUESTION, NoisyGateway())
    assert err.value.raw_response == "? | ? | ?"


def test_query_entities_prefers_subjects_and_objects():
    q = cq(("mel", "extracts", "text"), (WILDCARD, "stores", "json"))
    assert query_entities_of(q) == {"mel", "text", "json"}


def test_query_entities_falls_back_to_predicates():
    q = cq((WILDCARD, "is_applied_to", WILDCARD))
    assert query_entities_of(q) == {"is_applied_to"}


def test_default_relaxation_dictionary_offers_wildcard_variants():
    q = cq(("tool", "applies_to", "pdfs"))
    entries = default_relaxation_dictionary(q).entries
    assert entries == (
        TriplePattern("tool", WILDCARD, "pdfs"),
        TriplePattern("tool", "applies_to", WILDCARD),
        TriplePattern(WILDCARD, "applies_to", "pdfs"),
    )


# ---------------------------------------------------------------------------
# Soft matching over the sample graph
# ---------------------------------------------------------------------------

def mel_paragraph_node(graph) -> Iri:
    return next(
        t.subject for t in graph
        if isinstance(t.object, Literal) and "Metadata Extractor" in t.object.lexical
        and not t.subject.local_name().startswith("Excerpt-"))


def test_match_candidates_phrase_containment(sample_graph):
    matched = match_candidates(sample_graph, cq(("tool", WILDCARD, "pdf_research_proposals")))
    para = mel_paragraph_node(sample_graph)
    assert any(t.subject == para for t in matched)
    # witnesses include the paragraph-excerpt link and the mention edge
    predicates = {t.predicate for t in matched}
    assert iri("askg-onto:hasExcerpt") in predicates
    assert iri("askg-onto:mentions") in predicates
    # type triples never appear as witnesses
    assert iri("rdf:type") not in predicates


def test_match_candidates_mention_key_satisfies_term(sample_graph):
    # "apache_tika" appears as a mention key on the excerpt of the Tika paragraph
    matched = match_candidates(sample_graph, cq(("apache_tika", WILDCARD, WILDCARD)))
    assert matched
    labels = {t.object.lexical for t in matched if isinstance(t.object, Literal)}
    assert any("Apache Tika" in text for text in labels)


def test_match_candidates_requires_every_pattern(sample_graph):
    both = cq(("mel", WILDCARD, WILDCARD), ("couchdb", WILDCARD, WILDCARD))
    assert match_candidates(sample_graph, both) == frozenset()


def test_match_candidates_unmatchable_phrase(sample_graph):
    assert match_candidates(sample_graph, cq(("quantum_chromodynamics", WILDCARD, WILDCARD))) \
        == frozenset()


# ---------------------------------------------------------------------------
# Breadth-first resolution
# ---------------------------------------------------------------------------

def test_resolve_query_depth_zero_hit(sample_graph):
    result = resolve_query(sample_graph, cq(("mel", WILDCARD, WILDCARD)))
    assert result.depth == 0
    assert not result.exhausted
    assert result.triples
    assert result.producing_queries[0].edits == ()


def test_resolve_query_relaxes_to_depth_one(sample_graph):
    query = cq(("tool", "is_applied_to_extract_from", "pdf_research_proposals"))
    result = resolve_query(sample_graph, query,
                           default_relaxation_dictionary(query))
    assert result.depth == 1
    assert result.triples
    edits = result.producing_queries[0].edits
    assert len(edits) == 1 and edits[0].replacement is not None


def test_resolve_query_exhaustion(sample_graph):
    query = cq(("woolly_mammoth", "migrates_through", "permafrost"))
    result = resolve_query(sample_graph, query,
                           default_relaxation_dictionary(query), max_depth=2)
    assert result.exhausted
    assert result.depth == 3
    assert result.triples == frozenset()
    assert result.producing_queries == ()


def test_resolve_query_unions_all_minimal_depth_matches(sample_graph):
    # both relaxed forms match different anchors; their triples are unioned
    query = cq(("mel", "never_matches_anything", "couchdb"))
    dictionary = RelaxationDictionary((
        TriplePattern("mel", WILDCARD, WILDCARD),
        TriplePattern("couchdb", WILDCARD, WILDCARD),
    ))
    result = resolve_query(sample_graph, query, dictionary)
    assert result.depth == 1
    assert len(result.producing_queries) == 2
    labels = {t.object.lexical for t in result.triples if isinstance(t.object, Literal)}
    assert any("CouchDB" in text for text in labels)
    assert any("Metadata Extractor" in text for text in labels)


def test_literal_mention_shares_the_key_space_of_an_entity_iri():
    paragraph, literal_excerpt, iri_excerpt = (
        iri("askg-data:P"), iri("askg-data:E1"), iri("askg-data:E2"))
    graph = KnowledgeGraph([
        Triple(paragraph, RDF_TYPE, PARAGRAPH),
        Triple(paragraph, RDFS_LABEL, Literal("Text extraction from proposals.", language="en")),
        Triple(paragraph, HAS_EXCERPT, literal_excerpt),
        Triple(literal_excerpt, RDF_TYPE, EXCERPT),
        Triple(literal_excerpt, MENTIONS, Literal("Apache Tika")),
        Triple(iri_excerpt, RDF_TYPE, EXCERPT),
        Triple(iri_excerpt, MENTIONS, entity_iri("apache_tika")),
    ])
    matched = match_candidates(graph, cq(("apache_tika", WILDCARD, WILDCARD)))
    # the paragraph owns its excerpt's literal mention; both excerpts match by key
    assert {t.subject for t in matched} == {paragraph, literal_excerpt, iri_excerpt}
    assert Literal("Apache Tika").entity_key() == entity_iri("apache_tika").entity_key()


def test_phrase_words_inside_longer_words_do_not_match():
    # Each word of "gabak" and "gabak tool" is a substring of the label, so
    # the substring check passes them on; the whole-word check refuses them.
    paragraph = iri("askg-data:P")
    graph = KnowledgeGraph([
        Triple(paragraph, RDF_TYPE, PARAGRAPH),
        Triple(paragraph, RDFS_LABEL, Literal("The gabakx toolkit.")),
    ])
    for key in ("gabak", "gabak_tool", "gabakx_tool"):
        assert match_candidates(graph, cq((key, WILDCARD, WILDCARD))) == frozenset(), key
    assert match_candidates(graph, cq(("gabakx_toolkit", WILDCARD, WILDCARD))) \
        == frozenset(graph.match(predicate=RDFS_LABEL))


class _CountingGraph(KnowledgeGraph):
    """A graph that records the predicate of every bucket read and fails
    on any per-node label lookup."""

    def __init__(self, triples):
        super().__init__(triples)
        self.reads = []

    def label_of(self, node):
        raise AssertionError(f"a per-node label lookup: label_of({node})")

    def match(self, *, predicate):
        self.reads.append(predicate)
        return super().match(predicate=predicate)


def test_resolve_query_walks_the_edges_once_and_each_term_once(sample_graph, monkeypatch):
    graph = _CountingGraph(sample_graph)
    phrased = []
    monkeypatch.setattr(engine, "entity_phrase",
                        lambda term: phrased.append(term) or entity_phrase(term))
    # exhaustion at depth 2 visits every relaxation of a 1-pattern query,
    # and every relaxed pattern holds some of the same three terms
    query = cq(("woolly_mammoth", "migrates_through", "permafrost"))
    result = resolve_query(graph, query, default_relaxation_dictionary(query))
    assert result.exhausted
    # each edge bucket once, in the walk's order; the labels are also
    # indexed once, by the graph itself, for the anchors' texts
    assert graph.reads == [IN_SENTENCE, HAS_EXCERPT, MENTIONS, RDFS_LABEL]
    assert sorted(phrased) == ["migrates_through", "permafrost", "woolly_mammoth"]
    # a second resolution reads each bucket once more: nothing outlives a call
    resolve_query(graph, cq(("mel", WILDCARD, WILDCARD)))
    assert graph.reads == [IN_SENTENCE, HAS_EXCERPT, MENTIONS, RDFS_LABEL] * 2


def labelled(*texts: str, excerpt_sentence: str | None = None) -> KnowledgeGraph:
    """Paragraphs P0, P1, ... labelled ``texts``, and an excerpt E
    labelled with the last text whose sentence is ``excerpt_sentence``."""
    triples = []
    for i, text in enumerate(texts):
        node = iri(f"askg-data:P{i}")
        triples += [Triple(node, RDF_TYPE, PARAGRAPH), Triple(node, RDFS_LABEL, Literal(text))]
    if excerpt_sentence is not None:
        excerpt = iri("askg-data:E")
        triples += [Triple(excerpt, RDF_TYPE, EXCERPT),
                    Triple(excerpt, RDFS_LABEL, Literal(texts[-1])),
                    Triple(excerpt, IN_SENTENCE, Literal(excerpt_sentence))]
    return KnowledgeGraph(triples)


def matched_nodes(graph: KnowledgeGraph, key: str) -> list[str]:
    """The local names of the labelled nodes that match ``key``."""
    matched = match_candidates(graph, cq((key, WILDCARD, WILDCARD)))
    return sorted(t.subject.local_name() for t in matched if t.predicate == RDFS_LABEL)


def test_a_phrase_starts_at_a_word_start():
    graph = labelled("axyz tool", "éxyz tool", "9xyz", "_xyz")
    # "é" and "_" are not word characters, so "éxyz" and "_xyz" hold the word "xyz"
    assert matched_nodes(graph, "xyz") == ["P1", "P3"]
    assert matched_nodes(graph, "xyz_tool") == ["P1"]


def test_an_overlapping_match_is_searched_again_after_a_rejected_one():
    # "a a" first occurs inside "ba a", which is refused; the next
    # occurrence overlaps it
    graph = labelled("ba a a", "ba a b")
    assert matched_nodes(graph, "a_a") == ["P0"]
    assert matched_nodes(graph, "a_a_b") == []


def test_a_phrase_does_not_match_across_two_anchors():
    # the joined texts run "... pdf" into "text tool ..." and "pdf, text"
    # into the excerpt's "pdf, text tool text."
    graph = labelled("Reads a pdf", "text tool.", "pdf, text", excerpt_sentence="Tool text.")
    assert matched_nodes(graph, "pdf_text") == ["E", "P2"]
    assert matched_nodes(graph, "a_pdf_text") == []
    assert matched_nodes(graph, "text_pdf") == []
    # an excerpt's label and its sentence are one text
    assert matched_nodes(graph, "text_tool") == ["E", "P1"]


def test_phrases_that_are_not_haystack_words_match_no_text():
    graph = labelled("a b", "A__B x_", "!?", "")
    for key in ("a__b", "_a", "a_", "A_b", "a-b", "a.b", "a_b_", "x_"):
        assert matched_nodes(graph, key) == [], key
    assert matched_nodes(graph, "a_b") == ["P0", "P1"]
    # the empty phrase matches the texts that hold no word, as "  " does
    assert matched_nodes(graph, "") == ["P2", "P3"]


def test_resolve_query_validates_depth(sample_graph):
    with pytest.raises(ValueError):
        resolve_query(sample_graph, cq(("a", WILDCARD, WILDCARD)), max_depth=-1)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

def entity_node(name: str) -> Iri:
    return Iri(f"https://www.anu.edu.au/onto/scholarly/AcademicEntity-{name}")


E = {name: entity_node(name) for name in ("mel", "tika", "couchdb", "json")}
REL = iri("askg-onto:mentions")


def t(s, o) -> Triple:
    return Triple(entity_node(s), REL, entity_node(o))


def test_triple_entities_includes_subject_and_iri_object():
    # a single triple's ranked entities are its own: its subject and IRI object
    assert sorted(r.entity for r in rank_candidates([t("mel", "tika")], set())) \
        == ["mel", "tika"]
    literal_triple = Triple(E["mel"], REL, Literal("text"))
    assert [r.entity for r in rank_candidates([literal_triple], set())] == ["mel"]


def frequency(entity: str, candidates: list[Triple]) -> int:
    """The entity's ranked frequency; 0 when it is not ranked at all."""
    ranked = {r.entity: r.frequency for r in rank_candidates(candidates, set())}
    return ranked.get(entity, 0)


def purity(entity: str, candidates: list[Triple], query_entities: set[str]) -> float:
    ranked = {r.entity: r.purity for r in rank_candidates(candidates, query_entities)}
    return ranked.get(entity, 0.0)


def test_frequency_counts_triples_not_occurrences():
    candidates = [t("mel", "tika"), t("mel", "couchdb"), t("tika", "couchdb")]
    assert frequency("mel", candidates) == 2
    assert frequency("couchdb", candidates) == 2
    assert frequency("json", candidates) == 0


def test_purity_is_query_share_of_co_occurring_entities():
    candidates = [t("mel", "tika"), t("mel", "couchdb")]
    # mel co-occurs with {tika, couchdb}; one of two is a query entity
    assert purity("mel", candidates, {"tika"}) == pytest.approx(0.5)
    assert purity("mel", candidates, {"tika", "couchdb"}) == pytest.approx(1.0)
    assert purity("mel", candidates, {"json"}) == 0.0
    # an entity with no co-occurrences has purity zero
    solo = Triple(E["json"], REL, Literal("x"))
    assert purity("json", [solo], {"json"}) == 0.0


def test_rank_candidates_orders_by_score_then_frequency_then_key():
    candidates = [
        t("mel", "tika"), t("mel", "tika"),  # duplicate collapses in a set, keep list
        t("mel", "couchdb"),
        t("tika", "couchdb"),
        t("json", "mel"),
    ]
    ranking = rank_candidates(candidates, {"tika"})
    names = [r.entity for r in ranking]
    # mel: F=3, purity 1/3 (co-set {tika, couchdb, json}) -> score 1.0
    # couchdb: F=2, purity 1/2 (co-set {mel, tika}) -> score 1.0, lower frequency
    # tika and json co-occur only with non-query entities -> score 0, frequency breaks tie
    assert names == ["mel", "couchdb", "tika", "json"]
    scores = [r.score for r in ranking]
    assert scores == sorted(scores, reverse=True)


def test_rank_candidates_higher_score_wins_over_higher_frequency():
    candidates = [
        # x: frequency 4, co-set {q1, n1} -> purity 0.5, score 2.0
        t("x", "q1"), t("x", "n1"), t("q1", "x"), t("n1", "x"),
        # y: frequency 3, co-set {q1, q2} -> purity 1.0, score 3.0
        t("y", "q1"), t("y", "q2"), t("q1", "y"),
        # z: frequency 2, co-set {q2} -> purity 1.0, score 2.0
        t("z", "q2"), t("q2", "z"),
    ]
    ranking = rank_candidates(candidates, {"q1", "q2"})
    position = {r.entity: i for i, r in enumerate(ranking)}
    # score 3.0 beats score 2.0 despite the lower frequency...
    assert position["y"] < position["x"]
    # ...and the score tie at 2.0 breaks by higher frequency
    assert position["x"] < position["z"]


def test_rank_candidates_is_order_independent():
    candidates = [t("mel", "tika"), t("mel", "couchdb"), t("tika", "couchdb")]
    forward = rank_candidates(candidates, {"mel"})
    backward = rank_candidates(list(reversed(candidates)), {"mel"})
    assert forward == backward


# ---------------------------------------------------------------------------
# Differential check against the per-anchor scan and per-entity loops
# ---------------------------------------------------------------------------
#
# The references below are the straightforward forms of matching,
# resolution and ranking: every relaxed query rescans every anchor, and
# every entity rescans every candidate triple. The engine must agree with
# them exactly, including the order of producing queries and their edits.

def reference_term_matches(term, anchor, haystack: str) -> bool:
    """A term's match at an anchor, on a haystack built beforehand."""
    if not is_ground(term):
        return True
    return term in anchor.mention_keys or f" {entity_phrase(term)} " in haystack


def reference_match(graph: KnowledgeGraph, query: CompoundQuery) -> frozenset[Triple]:
    matched: set[Triple] = set()
    for anchor in reference_anchors(graph):
        haystack = "" if anchor.lowered is None else phrase_haystack(anchor.lowered)
        if all(
            all(reference_term_matches(term, anchor, haystack) for term in pattern.terms)
            for pattern in query.patterns
        ):
            matched.update(anchor.witnesses)
    return frozenset(matched)


def reference_resolve(graph: KnowledgeGraph, query: CompoundQuery,
                      dictionary: RelaxationDictionary, max_depth: int) -> CandidateTripleSet:
    frontier = [RelaxedQuery(query=query)]
    visited = {query.patterns}
    for depth in range(max_depth + 1):
        producing: list[RelaxedQuery] = []
        triples: set[Triple] = set()
        for candidate in frontier:
            matched = reference_match(graph, candidate.query)
            if matched:
                producing.append(candidate)
                triples.update(matched)
        if producing:
            return CandidateTripleSet(frozenset(triples), depth, max_depth, tuple(producing))
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
    return CandidateTripleSet(frozenset(), max_depth + 1, max_depth)


def reference_rank(candidates: list[Triple], query_entities: set[str]) -> list[RankedEntity]:
    def ref_frequency(entity: str) -> int:
        return sum(1 for t in candidates if entity in oracle_entities(t))

    def ref_purity(entity: str) -> float:
        co: set[str] = set()
        for t in candidates:
            keys = oracle_entities(t)
            if entity in keys:
                co.update(keys - {entity})
        return len(co & query_entities) / len(co) if co else 0.0

    entities = sorted({key for t in candidates for key in oracle_entities(t)})
    ranked = [RankedEntity(e, ref_frequency(e), ref_purity(e)) for e in entities]
    ranked.sort(key=lambda r: (-r.score, -r.frequency, r.entity))
    return ranked


class ReferenceAnchor(NamedTuple):
    node: Iri
    lowered: str | None     # lowercased label (+ source sentences for an excerpt), if any
    mention_keys: frozenset[str]
    witnesses: tuple[Triple, ...]


def reference_anchors(graph: KnowledgeGraph) -> list[ReferenceAnchor]:
    """The per-node construction: each edge read by scanning
    ``graph.match`` of its predicate for the node.

    Paragraphs, in input order, own their excerpts' mentions; excerpts
    follow, with their sentences in their text. A text is the least lexical
    form of the node's literal labels, then its sentences in lexical order.
    """
    def edges(node, predicate) -> tuple[Triple, ...]:
        return tuple(t for t in graph.match(predicate=predicate) if t.subject == node)

    def anchor(node, links, mentioners, sentences):
        labels = [t.object.lexical for t in edges(node, RDFS_LABEL)
                  if isinstance(t.object, Literal)]
        text_parts = [min(labels)] if labels else []
        text_parts += sorted(t.object.lexical for t in sentences if isinstance(t.object, Literal))
        mentions = [m for n in mentioners for m in edges(n, MENTIONS)]
        return ReferenceAnchor(
            node=node,
            lowered=" ".join(text_parts).lower() if text_parts else None,
            mention_keys=frozenset(m.object.entity_key() for m in mentions),
            witnesses=(*edges(node, RDFS_LABEL), *links, *mentions),
        )

    def typed(kind) -> list[Iri]:
        return [t.subject for t in graph.match(predicate=RDF_TYPE) if t.object == kind]

    anchors = []
    for node in typed(PARAGRAPH):
        links = edges(node, HAS_EXCERPT)
        excerpts = [edge.object for edge in links if isinstance(edge.object, Iri)]
        anchors.append(anchor(node, links, excerpts, ()))
    for node in typed(EXCERPT):
        anchors.append(anchor(node, (), [node], edges(node, IN_SENTENCE)))
    return anchors


# Texts and keys at the edges of whole-word matching: a word after a
# non-ASCII letter ("éxyz" holds "xyz"), a repeated word ("a a" in
# "ba a a"), text without words, and keys that are no haystack phrase.
# "scholarly" is a word of every node IRI, which an IRI-valued label or
# sentence must not lend to a text.
TRICKY_TEXTS = ["éxyz", "axyz tool", "ba a a", "a a", "", "!?", "Pdf", "text.", "xyz_a",
                "İx tool", "K json"]
TRICKY_KEYS = ["", "_x", "x_", "a__b", "Mel", "pdf.text", "json-text", "xyz", "a_a", "a",
               "x", "i", "k_json", "xyz_a", "tool_xyz", "scholarly"]


def phrase_keys(rng: random.Random, anchors: list[ReferenceAnchor]) -> list[str]:
    """Keys of a random run of 1-3 words in each anchor's text, an
    excerpt's label and sentence included, and of the last word of one
    anchor's text with the first of the next one's."""
    texts = [words for anchor in anchors if anchor.lowered is not None
             if (words := phrase_haystack(anchor.lowered).split())]
    keys = []
    for words in texts:
        start = rng.randrange(len(words))
        keys.append("_".join(words[start:start + rng.randint(1, 3)]))
    keys += [f"{before[-1]}_{after[0]}" for before, after in zip(texts, texts[1:])]
    return keys


def tricky_graph(rng: random.Random) -> KnowledgeGraph:
    """A random anchor graph with up to four more labels, sentences and
    literal mentions, most of them ``TRICKY_TEXTS``, and perhaps an entity
    IRI as a label."""
    graph = random_anchor_graph(rng)
    # a graph whose nodes all drew no triple is empty: give the extra triples a node
    nodes = sorted({t.subject for t in graph}, key=lambda n: n.value) or [iri("askg-data:N0")]
    extra = [Triple(rng.choice(nodes), rng.choice([RDFS_LABEL, IN_SENTENCE, MENTIONS]),
                    Literal(rng.choice(TRICKY_TEXTS + [random_phrase(rng)])))
             for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.3:  # a label that is an entity IRI
        extra.append(Triple(rng.choice(nodes), RDFS_LABEL, entity_iri(rng.choice(KEYS))))
    return KnowledgeGraph((*graph, *extra))


def tricky_query(rng: random.Random, graph: KnowledgeGraph, most: int) -> CompoundQuery:
    """1 to ``most`` patterns of wildcards, ``KEYS``, ``TRICKY_KEYS`` and
    runs of words of the graph's anchor texts (``phrase_keys``)."""
    keys = KEYS + TRICKY_KEYS + phrase_keys(rng, reference_anchors(graph))

    def term():
        return WILDCARD if rng.random() < 0.35 else rng.choice(keys)

    return CompoundQuery(tuple(TriplePattern(term(), term(), term())
                               for _ in range(rng.randint(1, most))))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_matcher_agrees_with_the_per_node_construction(rng):
    graph = tricky_graph(rng)
    query = tricky_query(rng, graph, 2)
    assert match_candidates(graph, query) == reference_match(graph, query)
    dictionary = default_relaxation_dictionary(query)
    assert resolve_query(graph, query, dictionary) \
        == reference_resolve(graph, query, dictionary, max_depth=2)


def test_engine_agrees_with_reference_scan_on_random_graphs():
    rng = random.Random(20261018)
    cases = 600
    for case in range(cases):
        graph = random_anchor_graph(rng)
        query = random_question(rng)
        dictionary = default_relaxation_dictionary(query)
        max_depth = rng.randint(0, 2)
        where = f"case {case}: {query}"

        assert match_candidates(graph, query) == reference_match(graph, query), where
        result = resolve_query(graph, query, dictionary, max_depth=max_depth)
        assert result == reference_resolve(graph, query, dictionary, max_depth), where

        candidates = list(result.triples) + rng.sample(list(graph), min(len(graph), 4))
        rng.shuffle(candidates)
        query_entities = query_entities_of(query) | set(rng.sample(KEYS, 2))
        assert rank_candidates(candidates, query_entities) \
            == reference_rank(candidates, query_entities), where


# ---------------------------------------------------------------------------
# The bucket walk and the least-label index against what they replaced
# ---------------------------------------------------------------------------

def the_reference_matcher():
    """The per-subject matcher patched into the engine; with a
    ``ReferenceGraph``, every label is looked up by group and ``min``."""
    return mock.patch.object(engine, "_anchor_matcher", reference_matcher.anchor_matcher)


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_bucket_walk_resolves_like_the_per_subject_matcher(rng):
    triples = list(tricky_graph(rng))
    graph, reference = KnowledgeGraph(triples), reference_matcher.ReferenceGraph(triples)
    nodes = {t.subject for t in triples}
    assert {node: graph.label_of(node) for node in nodes} \
        == {node: reference.label_of(node) for node in nodes}
    query = tricky_query(rng, graph, 3)
    dictionary = default_relaxation_dictionary(query)
    result = resolve_query(graph, query, dictionary)
    with the_reference_matcher():
        expected = resolve_query(reference, query, dictionary)
    assert (result.triples, result.depth, result.producing_queries) \
        == (expected.triples, expected.depth, expected.producing_queries)


def test_answers_on_the_acceptance_corpus_match_the_per_subject_matcher():
    gen = load_bench_generator()
    corpus = gen.corpus(401, "cli", 5, gen.CLI_PARAGRAPHS, gen.CLI_BLOCK, 1, gen.CLI_RANKS)
    triples = list(load_turtle(gen.corpus_turtle(corpus)[0].encode("utf-8")))

    def answers(graph: KnowledgeGraph) -> list:
        return [answer_question(graph, question.text, StubGateway(),
                                HashedBagOfWordsEmbedder()).to_dict()
                for question in corpus.questions]

    found = answers(KnowledgeGraph(triples))
    with the_reference_matcher():
        assert found == answers(reference_matcher.ReferenceGraph(triples))
    assert len(found) == len(corpus.questions) > 0

