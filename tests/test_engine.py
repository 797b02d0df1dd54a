import random

import pytest

from scholarkg.gateway import StubGateway
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.patterns import CompoundQuery, TriplePattern, Variable, WILDCARD
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
    iri,
)
from scholarkg.qa import engine
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
    select_triples,
    triple_entities,
)
from scholarkg.qa.relaxation import RelaxationDictionary, RelaxedQuery, relax_set

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
    assert result.producing_query.depth == 0


def test_resolve_query_relaxes_to_depth_one(sample_graph):
    query = cq(("tool", "is_applied_to_extract_from", "pdf_research_proposals"))
    result = resolve_query(sample_graph, query,
                           default_relaxation_dictionary(query))
    assert result.depth == 1
    assert result.triples
    edits = result.producing_query.edits
    assert len(edits) == 1 and edits[0].kind == "replace"


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


def test_resolve_query_reads_anchors_once(sample_graph, monkeypatch):
    reads = []
    real_anchors = engine._anchors
    monkeypatch.setattr(engine, "_anchors", lambda graph: reads.append(graph) or real_anchors(graph))
    # exhaustion at depth 2 visits every relaxation of a 1-pattern query
    query = cq(("woolly_mammoth", "migrates_through", "permafrost"))
    result = resolve_query(sample_graph, query, default_relaxation_dictionary(query))
    assert result.exhausted
    assert reads == [sample_graph]


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
    assert triple_entities(t("mel", "tika")) == {"mel", "tika"}
    literal_triple = Triple(E["mel"], REL, Literal("text"))
    assert triple_entities(literal_triple) == {"mel"}


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


def test_select_triples_stub_keeps_ranked_order(stub_gateway):
    candidates = CandidateTripleSet(
        triples=frozenset([t("mel", "tika"), t("tika", "couchdb")]),
        depth=0, max_depth=2)
    ranking = rank_candidates(candidates.triples, {"mel"})
    selected = select_triples("Which tool?", candidates, ranking, stub_gateway)
    assert set(selected) == set(candidates.triples)
    # best-ranked entity's triple comes first
    assert "mel" in triple_entities(selected[0])


def test_select_triples_empty_candidates(stub_gateway):
    empty = CandidateTripleSet(triples=frozenset(), depth=3, max_depth=2)
    assert select_triples("q", empty, [], stub_gateway) == []


# ---------------------------------------------------------------------------
# Differential check against the per-anchor scan and per-entity loops
# ---------------------------------------------------------------------------
#
# The references below are the straightforward forms of matching,
# resolution and ranking: every relaxed query rescans every anchor, and
# every entity rescans every candidate triple. The engine must agree with
# them exactly, including the order of producing queries and their edits.

def reference_match(graph: KnowledgeGraph, query: CompoundQuery) -> frozenset[Triple]:
    matched: set[Triple] = set()
    for anchor in engine._anchors(graph):
        if all(
            all(engine._term_matches(term, anchor, graph) for term in pattern.terms)
            for pattern in query.patterns
        ):
            matched.update(anchor.witnesses)
    return frozenset(matched)


def reference_resolve(graph: KnowledgeGraph, query: CompoundQuery,
                      dictionary: RelaxationDictionary, max_depth: int) -> CandidateTripleSet:
    frontier = [RelaxedQuery(query=query, depth=0)]
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
                    query=step.query, depth=candidate.depth + 1,
                    edits=candidate.edits + step.edits))
        frontier = next_frontier
        if not frontier:
            break
    return CandidateTripleSet(frozenset(), max_depth + 1, max_depth)


def reference_rank(candidates: list[Triple], query_entities: set[str]) -> list[RankedEntity]:
    def ref_frequency(entity: str) -> int:
        return sum(1 for t in candidates if entity in triple_entities(t))

    def ref_purity(entity: str) -> float:
        co: set[str] = set()
        for t in candidates:
            keys = triple_entities(t)
            if entity in keys:
                co.update(keys - {entity})
        return len(co & query_entities) / len(co) if co else 0.0

    entities = sorted({key for t in candidates for key in triple_entities(t)})
    ranked = [RankedEntity(e, ref_frequency(e), ref_purity(e)) for e in entities]
    ranked.sort(key=lambda r: (-r.score, -r.frequency, r.entity))
    return ranked


WORDS = ["mel", "tika", "couchdb", "json", "pdf", "text", "tool", "Apache"]
KEYS = ["mel", "tika", "couchdb", "json", "pdf", "text", "tool", "apache",
        "apache_tika", "pdf_text", "text_tool", "mel_json"]
SIDE_PREDICATES = [iri("askg-onto:cites"), iri("askg-onto:partOf")]


def random_phrase(rng: random.Random) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(1, 4))]
    return rng.choice([" ", ", ", " - "]).join(words) + rng.choice(["", ".", "!"])


def random_anchor_graph(rng: random.Random) -> tuple[KnowledgeGraph, list[Iri]]:
    """Paragraph/excerpt graphs with the odd shapes the matcher must handle.

    Nodes may be typed Paragraph, Excerpt, both or neither; ``hasExcerpt``
    may point at a literal; some anchors have text only from
    ``inSentence`` and no witness triple at all.
    """
    nodes = [iri(f"askg-data:N{i}") for i in range(rng.randint(1, 7))]
    entities = [entity_iri(key) for key in rng.sample(KEYS, 4)]
    triples: list[Triple] = []
    for node in nodes:
        for kind in rng.choice([(PARAGRAPH,), (EXCERPT,), (PARAGRAPH, EXCERPT), ()]):
            triples.append(Triple(node, RDF_TYPE, kind))
        if rng.random() < 0.6:
            triples.append(Triple(node, RDFS_LABEL,
                                  Literal(random_phrase(rng), language=rng.choice([None, "en"]))))
        if rng.random() < 0.4:
            triples.append(Triple(node, IN_SENTENCE, Literal(random_phrase(rng))))
        if rng.random() < 0.1:
            triples.append(Triple(node, IN_SENTENCE, rng.choice(nodes)))
        for _ in range(rng.randint(0, 2)):
            triples.append(Triple(node, MENTIONS, rng.choice(entities)))
        for _ in range(rng.randint(0, 2)):
            triples.append(Triple(node, HAS_EXCERPT, rng.choice(nodes)))
        if rng.random() < 0.15:
            triples.append(Triple(node, HAS_EXCERPT, Literal(random_phrase(rng))))
        if rng.random() < 0.3:
            triples.append(Triple(node, rng.choice(SIDE_PREDICATES),
                                  rng.choice(nodes + entities)))
    return KnowledgeGraph(triples), nodes + entities


def random_pattern_term(rng: random.Random, iris: list[Iri]):
    r = rng.random()
    if r < 0.45:
        return WILDCARD
    if r < 0.5:
        return Variable("x")
    if r < 0.8:
        return rng.choice(KEYS)
    if r < 0.93:
        return rng.choice(iris + [PARAGRAPH, MENTIONS])
    return Literal(rng.choice(WORDS + [random_phrase(rng)]))


def random_question(rng: random.Random, iris: list[Iri]) -> CompoundQuery:
    return CompoundQuery(tuple(
        TriplePattern(*(random_pattern_term(rng, iris) for _ in range(3)))
        for _ in range(rng.randint(1, 3))))


def test_engine_agrees_with_reference_scan_on_random_graphs():
    rng = random.Random(20261018)
    cases = 600
    for case in range(cases):
        graph, iris = random_anchor_graph(rng)
        query = random_question(rng, iris)
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
