import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.kg.graph import KnowledgeGraph, graph_stats, keyword_frequency
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
from scholarkg.kg.turtle import TurtleError, save_turtle
from scholarkg.qa.context import select_context

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
    # iteration keeps the input order, predicate by predicate
    assert list(g) == [TRIPLES[0], TRIPLES[1], TRIPLES[3], TRIPLES[2]]
    # each predicate's groups are sorted: subjects by IRI, objects by sort key
    assert list(g.by_subject(P).items()) == [(A, (Triple(A, P, B), Triple(A, P, Literal("text")))),
                                             (B, (Triple(B, P, C),))]


def test_match_by_slot():
    g = KnowledgeGraph(TRIPLES)
    assert len(g.match(predicate=P)) == 3
    assert g.match(predicate=P, object=C) == (Triple(B, P, C),)
    assert g.match(subject=A, predicate=Q) == (Triple(A, Q, C),)
    assert g.match(subject=C, predicate=P) == ()
    with pytest.raises(TypeError):
        g.match(subject=A)
    with pytest.raises(TypeError):
        g.match(A, P)


def test_graph_equality_ignores_input_order():
    g = KnowledgeGraph(TRIPLES)
    assert set(g) == set(KnowledgeGraph(list(reversed(TRIPLES))))
    # a graph compares and hashes by identity
    assert g != KnowledgeGraph(TRIPLES) and g == g
    assert len({g, KnowledgeGraph(TRIPLES)}) == 2


def paragraph(node_suffix: str, text: str) -> list[Triple]:
    node = iri(f"askg-data:Paper-x-Paragraph-{node_suffix}")
    return [
        Triple(node, iri("rdf:type"), iri("askg-onto:Paragraph")),
        Triple(node, iri("rdfs:label"), Literal(text, language="en")),
    ]


def test_paragraphs_containing_requires_a_name():
    g = KnowledgeGraph(paragraph("1", "text"))
    for names in (set(), {""}):
        with pytest.raises(ValueError, match="at least one non-empty name is required"):
            select_context(g, names, embedder=HashedBagOfWordsEmbedder())


def test_paragraphs_containing_is_sorted_by_node():
    g = KnowledgeGraph(paragraph("b", "mel") + paragraph("a", "mel"))
    nodes = [p.node.value for p in select_context(g, {"mel"},
                                                   embedder=HashedBagOfWordsEmbedder())]
    assert nodes == sorted(nodes) and len(nodes) == 2


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
        chosen = select_context(g, {"mel"}, top_n=len(nodes), diverse_k=len(nodes),
                                embedder=HashedBagOfWordsEmbedder())
        assert [p.node for p in chosen] == list(nodes)


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
       st.permutations(range(4)))
def test_indexes_agree_with_a_scan_of_the_triples(triples, s, p, o, order):
    graph = KnowledgeGraph(triples)
    distinct = list(dict.fromkeys(triples))
    assert list(graph) == [t for predicate in dict.fromkeys(t.predicate for t in distinct)
                           for t in distinct if t.predicate == predicate]
    scan = sorted(distinct, key=triple_sort_key)
    # The subject and the object bound or not, in a drawn order.
    masks = list(itertools.product((False, True), repeat=2))
    for index in order:
        bind_s, bind_o = masks[index]
        query = {"subject": s if bind_s else None, "object": o if bind_o else None}
        expected = tuple(t for t in scan if t.predicate == p
                         and query["subject"] in (None, t.subject)
                         and query["object"] in (None, t.object))
        assert graph.match(predicate=p, **query) == expected, query
    for type_iri in _NODES:
        assert graph.subjects_of_type(type_iri) == tuple(
            t.subject for t in scan if t.predicate == RDF_TYPE and t.object == type_iri)
    for node in _NODES:
        assert graph.label_of(node) == next(
            (t.object for t in scan
             if t.subject == node and t.predicate == RDFS_LABEL and isinstance(t.object, Literal)),
            None)


# "x", "x"^^<> and "x"@"" differ only in whether a datatype or a language
# is present, so their sort keys must tell them apart.
_PRESENCE_LITERALS = st.one_of(
    st.builds(Literal, st.sampled_from(["", "x"]), datatype=st.sampled_from([None, Iri(""), P])),
    st.builds(Literal, st.sampled_from(["", "x"]), language=st.sampled_from([None, "", "en"])),
)


def _saved(graph: KnowledgeGraph):
    """The graph's Turtle, or ``TurtleError`` if it cannot be written (which
    term the message names follows the input order)."""
    try:
        return save_turtle(graph)
    except TurtleError:
        return TurtleError


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(Triple, st.sampled_from([A, B]), st.sampled_from(_PREDICATES),
                          st.one_of(_PRESENCE_LITERALS, st.sampled_from([Iri(""), A, EXCERPT]))),
                max_size=12),
       st.permutations(range(12)))
def test_graph_is_independent_of_input_order(triples, order):
    permuted = [triples[i] for i in order if i < len(triples)]
    graph, other = KnowledgeGraph(triples), KnowledgeGraph(permuted)
    assert set(other) == set(graph) == set(triples)
    for predicate in _PREDICATES:
        assert dict(other.by_subject(predicate)) == dict(graph.by_subject(predicate))
    for node in (A, B):
        assert other.label_of(node) == graph.label_of(node)
    for type_iri in (Iri(""), A, EXCERPT):
        assert other.subjects_of_type(type_iri) == graph.subjects_of_type(type_iri)
    assert _saved(other) == _saved(graph)


# ---------------------------------------------------------------------------
# Lazy orders: the same answers whichever read comes first
# ---------------------------------------------------------------------------

def _reads(s, p, o):
    """Each read of a graph, by name, as a function of the graph."""
    masks = itertools.product((False, True), repeat=2)
    reads = {f"match{mask}": (lambda g, subject=s if mask[0] else None,
                              object=o if mask[1] else None:
                              g.match(subject=subject, predicate=p, object=object))
             for mask in masks}
    reads.update({f"label_of {node}": (lambda g, node=node: g.label_of(node)) for node in _NODES})
    reads.update({f"subjects_of_type {node}": (lambda g, node=node: g.subjects_of_type(node))
                  for node in _NODES})
    reads.update({f"by_subject {predicate}": (lambda g, predicate=predicate:
                                              dict(g.by_subject(predicate)))
                  for predicate in _PREDICATES})
    reads.update({"len": len, "iter": list})
    return reads


@settings(max_examples=200, deadline=None)
@given(_RANDOM_TRIPLES, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), _OBJECTS,
       st.randoms(use_true_random=False))
def test_reads_give_the_same_answers_in_any_order(triples, s, p, o, rnd):
    reads = _reads(s, p, o)
    # the answers of a graph read in the table's order
    first = KnowledgeGraph(triples)
    expected = {name: read(first) for name, read in reads.items()}
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
