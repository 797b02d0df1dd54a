import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from scholarkg.document import Excerpt
from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.gateway import StubGateway
from scholarkg.ingest import link_graph
from scholarkg.kg.graph import KnowledgeGraph, graph_stats, keyword_frequency
from scholarkg.kg.terms import (
    EXCERPT,
    IN_SENTENCE,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    Iri,
    Literal,
    Triple,
    iri,
)
from scholarkg.kg.turtle import TurtleError, save_turtle
from scholarkg.qa.context import answer_question, select_context
from scholarkg.qa.engine import QuestionParseError

from anchor_graphs import KEYS, group_by_subject, random_anchor_graph, random_phrase

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


def test_graph_deduplicates_and_keeps_input_order():
    g = KnowledgeGraph(TRIPLES + TRIPLES)
    assert len(g) == 4
    # iteration keeps the input order, predicate by predicate
    assert list(g) == [TRIPLES[0], TRIPLES[1], TRIPLES[3], TRIPLES[2]]
    # and so does each predicate's grouping, within a group too
    g = KnowledgeGraph(reversed(TRIPLES))
    assert list(group_by_subject(g, P).items()) == [
        (A, (Triple(A, P, Literal("text")), Triple(A, P, B))), (B, (Triple(B, P, C),))]


def test_match_by_slot():
    g = KnowledgeGraph(TRIPLES)
    assert g.match(predicate=P) == (TRIPLES[0], TRIPLES[1], TRIPLES[3])
    assert g.match(predicate=C) == ()
    # the predicate is the only slot, and it is keyword-only
    with pytest.raises(TypeError):
        g.match(subject=A, predicate=P)
    with pytest.raises(TypeError):
        g.match(predicate=P, object=C)
    with pytest.raises(TypeError):
        g.match(P)


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
        # the graph keeps the input order; select_context orders by IRI
        nodes = g.subjects_of_type(PARAGRAPH)
        assert nodes == tuple(t.subject for t in triples if t.predicate == RDF_TYPE)
        assert len(nodes) == len(suffixes)
        chosen = select_context(g, {"mel"}, top_n=len(nodes), diverse_k=len(nodes),
                                embedder=HashedBagOfWordsEmbedder())
        assert [p.node.value for p in chosen] == sorted(n.value for n in nodes)


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
@given(_RANDOM_TRIPLES)
def test_indexes_agree_with_a_scan_of_the_triples(triples):
    graph = KnowledgeGraph(triples)
    scan = list(dict.fromkeys(triples))
    assert list(graph) == [t for predicate in dict.fromkeys(t.predicate for t in scan)
                           for t in scan if t.predicate == predicate]
    for p in _PREDICATES:
        assert graph.match(predicate=p) == tuple(t for t in scan if t.predicate == p)
        subjects = dict.fromkeys(t.subject for t in scan if t.predicate == p)
        assert list(group_by_subject(graph, p).items()) == [
            (s, tuple(t for t in scan if t.predicate == p and t.subject == s)) for s in subjects]
    for type_iri in _NODES:
        assert graph.subjects_of_type(type_iri) == tuple(
            t.subject for t in scan if t.predicate == RDF_TYPE and t.object == type_iri)
    for node in _NODES:
        labels = [t.object for t in scan if t.subject == node and t.predicate == RDFS_LABEL
                  and isinstance(t.object, Literal)]
        # the least lexical form, the first in input order among equal ones
        least = min((label.lexical for label in labels), default=None)
        assert graph.label_of(node) == next(
            (label for label in labels if label.lexical == least), None)


# "x", "x"^^<> and "x"@"" differ only in whether a datatype or a language
# is present, so the Turtle writer must tell them apart.
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

    def grouped(g, predicate):
        return {subject: set(group) for subject, group in group_by_subject(g, predicate).items()}

    def lexical(label):
        return None if label is None else label.lexical

    for predicate in _PREDICATES:
        assert grouped(other, predicate) == grouped(graph, predicate)
    for node in (A, B):
        assert lexical(other.label_of(node)) == lexical(graph.label_of(node))
    for type_iri in (Iri(""), A, EXCERPT):
        assert set(other.subjects_of_type(type_iri)) == set(graph.subjects_of_type(type_iri))
    assert _saved(other) == _saved(graph)


# ---------------------------------------------------------------------------
# Outputs: the same bytes from any input order
# ---------------------------------------------------------------------------

def _outputs(graph: KnowledgeGraph, question: str, excerpts: list[Excerpt]):
    """What ``query`` (JSON and text), ``stats`` and ``link`` print for ``graph``."""
    try:
        answer = answer_question(graph, question, StubGateway(), HashedBagOfWordsEmbedder())
        answered = json.dumps(answer.to_dict(), indent=2), answer.to_text()
    except (ValueError, QuestionParseError) as error:
        answered = repr(error)
    linked, links = link_graph(graph, excerpts, HashedBagOfWordsEmbedder(), threshold=0.5)
    return answered, graph_stats(graph).to_dict(), save_turtle(linked), links


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_outputs_do_not_depend_on_the_graph_input_order(rng):
    triples = list(random_anchor_graph(rng))
    # the builder's first node stands in when the graph has no triple
    nodes = sorted({t.subject for t in triples}, key=lambda n: n.value) or [iri("askg-data:N0")]
    asked = rng.choice(nodes)
    # a second label or sentence for some nodes, and two more sentences and
    # a label for the node asked about: which text a reader takes first, or
    # how it joins them, must not depend on the input order
    for node in nodes:
        for predicate in (RDFS_LABEL, IN_SENTENCE, IN_SENTENCE):
            if node == asked or rng.random() < 0.3:
                triples.append(Triple(node, predicate, Literal(random_phrase(rng))))
    # the question's terms are words of that node's texts, and its object
    # joins the last word of one of them with the first word of another
    texts = [re.findall(r"[A-Za-z0-9]+", t.object.lexical) for t in triples
             if t.subject == asked and isinstance(t.object, Literal)]
    question = (f"Which {rng.choice(rng.choice(texts))} {rng.choice(rng.choice(texts))} "
                f"{rng.choice(texts)[-1]} {rng.choice(texts)[0]}?")
    excerpts = [Excerpt(f"Excerpt-{i}", random_phrase(rng), random_phrase(rng),
                        rng.choice(KEYS), 0, 1) for i in range(rng.randint(0, 3))]
    permuted = rng.sample(triples, len(triples))
    assert _outputs(KnowledgeGraph(permuted), question, excerpts) \
        == _outputs(KnowledgeGraph(triples), question, excerpts)


# ---------------------------------------------------------------------------
# Lazy orders: the same answers whichever read comes first
# ---------------------------------------------------------------------------

# Each read of a graph, by name, as a function of the graph.
_READS = {
    **{f"match {p}": (lambda g, p=p: g.match(predicate=p)) for p in _PREDICATES},
    **{f"label_of {node}": (lambda g, node=node: g.label_of(node)) for node in _NODES},
    **{f"subjects_of_type {node}": (lambda g, node=node: g.subjects_of_type(node))
       for node in _NODES},
    "len": len,
    "iter": list,
}


@settings(max_examples=200, deadline=None)
@given(_RANDOM_TRIPLES, st.randoms(use_true_random=False))
def test_reads_give_the_same_answers_in_any_order(triples, rnd):
    # the answers of a graph read in the table's order
    first = KnowledgeGraph(triples)
    expected = {name: read(first) for name, read in _READS.items()}
    names = list(_READS)
    rnd.shuffle(names)
    graph = KnowledgeGraph(triples)
    for name in names:
        assert _READS[name](graph) == expected[name], name
