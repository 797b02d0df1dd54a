import pytest

from scholarkg.kg.graph import (
    KnowledgeGraph,
    graph_stats,
    keyword_frequency,
    match_compound,
    paragraphs_containing,
)
from scholarkg.kg.patterns import CompoundQuery, TriplePattern, Variable, WILDCARD
from scholarkg.kg.terms import Iri, Literal, Triple, iri

A = Iri("http://x.example/a")
B = Iri("http://x.example/b")
C = Iri("http://x.example/c")
P = Iri("http://x.example/p")
Q = Iri("http://x.example/q")

TRIPLES = [
    Triple(A, P, B),
    Triple(B, P, C),
    Triple(A, Q, C),
    Triple(A, P, Literal("text")),
]


def test_graph_deduplicates_and_sorts():
    g = KnowledgeGraph(TRIPLES + TRIPLES)
    assert len(g) == 4
    assert list(g) == sorted(g.triples, key=lambda t: (
        t.subject.value, t.predicate.value, str(t.object)))


def test_match_by_slot():
    g = KnowledgeGraph(TRIPLES)
    assert len(g.match(subject=A)) == 3
    assert len(g.match(predicate=P)) == 3
    assert len(g.match(object=C)) == 2
    assert g.match(subject=A, predicate=Q) == (Triple(A, Q, C),)
    assert g.match(subject=C) == ()


def test_graph_equality_ignores_input_order():
    assert KnowledgeGraph(TRIPLES) == KnowledgeGraph(list(reversed(TRIPLES)))


def test_match_compound_single_pattern_with_variables():
    g = KnowledgeGraph(TRIPLES)
    result = match_compound(g, CompoundQuery((TriplePattern(Variable("s"), P, Variable("o")),)))
    assert len(result.solutions) == 3
    assert Triple(A, P, B) in result.triples
    assert Triple(A, Q, C) not in result.triples


def test_match_compound_joins_variables_across_patterns():
    g = KnowledgeGraph(TRIPLES)
    query = CompoundQuery((
        TriplePattern(A, P, Variable("x")),
        TriplePattern(Variable("x"), P, Variable("y")),
    ))
    result = match_compound(g, query)
    assert result.solutions == ({"x": B, "y": C},)
    assert result.triples == frozenset({Triple(A, P, B), Triple(B, P, C)})


def test_match_compound_all_wildcards_returns_everything():
    g = KnowledgeGraph(TRIPLES)
    result = match_compound(g, CompoundQuery((TriplePattern(WILDCARD, WILDCARD, WILDCARD),)))
    assert result.triples == frozenset(TRIPLES)
    assert result.solutions == ({},)


def test_match_compound_unsatisfiable_join_is_empty():
    g = KnowledgeGraph(TRIPLES)
    query = CompoundQuery((
        TriplePattern(Variable("x"), P, B),
        TriplePattern(Variable("x"), Q, B),
    ))
    result = match_compound(g, query)
    assert result.solutions == ()
    assert result.triples == frozenset()


def test_match_compound_rejects_text_ground_terms():
    g = KnowledgeGraph(TRIPLES)
    with pytest.raises(TypeError):
        match_compound(g, CompoundQuery((TriplePattern("a", WILDCARD, WILDCARD),)))


def test_match_compound_wildcards_do_not_join():
    g = KnowledgeGraph(TRIPLES)
    query = CompoundQuery((
        TriplePattern(WILDCARD, P, WILDCARD),
        TriplePattern(WILDCARD, Q, WILDCARD),
    ))
    result = match_compound(g, query)
    assert len(result.triples) == 4


def paragraph(node_suffix: str, text: str) -> list[Triple]:
    node = iri(f"askg-data:Paper-x-Paragraph-{node_suffix}")
    return [
        Triple(node, iri("rdf:type"), iri("askg-onto:Paragraph")),
        Triple(node, iri("rdfs:label"), Literal(text, language="en")),
    ]


def test_paragraphs_containing_any_and_all():
    g = KnowledgeGraph(
        paragraph("1", "MEL extracts text.")
        + paragraph("2", "Apache Tika parses files.")
        + paragraph("3", "MEL wraps Apache Tika."))
    any_hits = paragraphs_containing(g, ["mel", "apache tika"])
    assert len(any_hits) == 3


def test_paragraphs_containing_requires_a_name():
    g = KnowledgeGraph(paragraph("1", "text"))
    with pytest.raises(ValueError):
        paragraphs_containing(g, [])
    with pytest.raises(ValueError):
        paragraphs_containing(g, [""])


def test_paragraphs_containing_is_sorted_by_node():
    g = KnowledgeGraph(paragraph("b", "mel") + paragraph("a", "mel"))
    nodes = [node.value for node, _ in paragraphs_containing(g, ["mel"])]
    assert nodes == sorted(nodes)


def test_keyword_frequency_counts_all_occurrences():
    assert keyword_frequency("MEL calls MEL via Apache Tika", ["mel", "apache tika"]) == 3
    assert keyword_frequency("nothing here", ["mel"]) == 0
    assert keyword_frequency("case MEL mel MeL", ["MEL"]) == 3


def test_keyword_frequency_on_pinned_paragraph(sample_graph):
    text = next(
        t.object.lexical for t in sample_graph
        if isinstance(t.object, Literal) and "Apache Tika" in t.object.lexical
        and t.predicate == iri("rdfs:label")
        and not t.subject.local_name().startswith("Excerpt-"))
    assert keyword_frequency(text, ["MEL", "Apache Tika"]) == 5


def test_graph_stats_on_sample(sample_graph):
    stats = graph_stats(sample_graph)
    assert stats.paragraphs == 5
    assert stats.excerpts == 3
    assert stats.linked_excerpts == 3
    assert stats.paragraph_excerpt_links == 3
    assert stats.linked_excerpt_percentage == 100.0
    assert stats.triples == 31
    assert stats.entity_types == 2
    assert stats.relationship_types == 7
    rows = dict(stats.rows())
    assert rows["Number of triples"] == 31
    assert rows["Percentage of linked excerpts"] == "100.0%"
    assert stats.to_dict()["triples"] == 31


def test_graph_stats_empty_graph():
    stats = graph_stats(KnowledgeGraph())
    assert stats.triples == 0
    assert stats.linked_excerpt_percentage == 0.0
    assert stats.average_words_per_paragraph == 0.0
