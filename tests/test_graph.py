import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from scholarkg.kg.graph import (
    KnowledgeGraph,
    graph_stats,
    keyword_frequency,
    paragraphs_containing,
)
from scholarkg.kg.terms import (
    EXCERPT,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    Iri,
    Literal,
    Triple,
    iri,
    triple_sort_key,
)

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


def test_paragraphs_come_in_iri_order_from_shuffled_triples():
    # suffixes whose IRI order differs from their insertion and length order
    suffixes = ["b", "a", "a0", "B", "10", "9", "z-1", "_", "aa", "A"]
    triples = [t for suffix in suffixes for t in paragraph(suffix, f"mel {suffix}")]
    for seed in range(5):
        random.Random(seed).shuffle(triples)
        g = KnowledgeGraph(triples)
        nodes = g.subjects_of_type(PARAGRAPH)
        assert [n.value for n in nodes] == sorted(n.value for n in nodes)
        assert len(nodes) == len(suffixes)
        assert [node for node, _ in paragraphs_containing(g, ["mel"])] == list(nodes)


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


# ---------------------------------------------------------------------------
# Indexes against a scan of the triples
# ---------------------------------------------------------------------------

_NODES = [A, B, C, PARAGRAPH, EXCERPT]
_PREDICATES = [P, Q, RDF_TYPE, RDFS_LABEL]
_OBJECTS = st.one_of(
    st.sampled_from(_NODES),
    st.builds(Literal, st.sampled_from(["a", "b", "A"]),
              language=st.sampled_from([None, "en"])),
    st.builds(Literal, st.sampled_from(["1", "a"]), datatype=st.sampled_from([P, Q])),
)
_RANDOM_TRIPLES = st.lists(
    st.builds(Triple, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), _OBJECTS),
    max_size=24)


@settings(max_examples=300, deadline=None)
@given(_RANDOM_TRIPLES, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), _OBJECTS,
       st.permutations(range(8)))
def test_indexes_agree_with_a_scan_of_the_triples(triples, s, p, o, order):
    graph = KnowledgeGraph(triples)
    assert graph.triples == tuple(sorted(set(triples), key=triple_sort_key))
    # All eight bound/unbound combinations, in a drawn order.
    masks = list(itertools.product((False, True), repeat=3))
    for index in order:
        bind_s, bind_p, bind_o = masks[index]
        query = (s if bind_s else None, p if bind_p else None, o if bind_o else None)
        expected = tuple(t for t in graph.triples
                         if all(want is None or want == got
                                for want, got in zip(query, (t.subject, t.predicate, t.object))))
        assert graph.match(*query) == expected, query
    for type_iri in _NODES:
        assert graph.subjects_of_type(type_iri) == tuple(
            t.subject for t in graph.triples if t.predicate == RDF_TYPE and t.object == type_iri)
    for node in _NODES:
        assert graph.label_of(node) == next(
            (t.object for t in graph.triples
             if t.subject == node and t.predicate == RDFS_LABEL and isinstance(t.object, Literal)),
            None)


# "x", "x"^^<> and "x"@"" differ only in whether a datatype or a language
# is present, so their sort keys must tell them apart.
_PRESENCE_LITERALS = st.one_of(
    st.builds(Literal, st.sampled_from(["", "x"]), datatype=st.sampled_from([None, Iri(""), P])),
    st.builds(Literal, st.sampled_from(["", "x"]), language=st.sampled_from([None, "", "en"])),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Triple, st.sampled_from([A, B]), st.sampled_from([P, Q]),
                          st.one_of(_PRESENCE_LITERALS, st.sampled_from([Iri(""), A]))),
                max_size=12),
       st.randoms(use_true_random=False))
def test_graph_is_independent_of_input_order(triples, rnd):
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    graph = KnowledgeGraph(triples)
    assert KnowledgeGraph(shuffled) == graph
    assert hash(KnowledgeGraph(shuffled)) == hash(graph)


# ---------------------------------------------------------------------------
# Lazy orders: the same answers whichever read comes first
# ---------------------------------------------------------------------------

def _reads(s, p, o, shuffled):
    """Each read of a graph, by name, as a function of the graph."""
    masks = itertools.product((False, True), repeat=3)
    reads = {f"match{mask}": (lambda g, query=tuple(
                 term if bound else None for term, bound in zip((s, p, o), mask)):
                 g.match(*query)) for mask in masks}
    reads.update({f"label_of {node}": (lambda g, node=node: g.label_of(node)) for node in _NODES})
    reads.update({f"subjects_of_type {node}": (lambda g, node=node: g.subjects_of_type(node))
                  for node in _NODES})
    reads.update({f"by_subject {predicate}": (lambda g, predicate=predicate:
                                              dict(g.by_subject(predicate)))
                  for predicate in _PREDICATES})
    reads.update({"len": len, "triples": lambda g: g.triples, "iter": list, "hash": hash,
                  "eq": lambda g: g == KnowledgeGraph(shuffled)})
    return reads


@settings(max_examples=200, deadline=None)
@given(_RANDOM_TRIPLES, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), _OBJECTS,
       st.randoms(use_true_random=False))
def test_reads_give_the_same_answers_in_any_order(triples, s, p, o, rnd):
    shuffled = list(triples)
    rnd.shuffle(shuffled)
    reads = _reads(s, p, o, shuffled)
    # the answers of a graph whose whole order was built first
    ordered = KnowledgeGraph(triples)
    assert ordered.triples == tuple(sorted(set(triples), key=triple_sort_key))
    expected = {name: read(ordered) for name, read in reads.items()}
    assert expected["hash"] == hash(ordered.triples) and expected["eq"]
    names = list(reads)
    rnd.shuffle(names)
    graph = KnowledgeGraph(triples)
    for name in names:
        assert reads[name](graph) == expected[name], name


def test_by_subject_groups_in_iri_order_and_is_read_only():
    g = KnowledgeGraph([Triple(B, P, C), Triple(A, P, Literal("x")), Triple(A, P, B)])
    groups = g.by_subject(P)
    assert list(groups.items()) == [(A, (Triple(A, P, B), Triple(A, P, Literal("x")))),
                                    (B, (Triple(B, P, C),))]
    assert g.by_subject(Q) == {}
    with pytest.raises(TypeError):
        groups[C] = ()
