import json

import pytest

from scholarkg.cli import run
from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.gateway import StubGateway
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.terms import Iri, Literal, Triple, iri
from scholarkg.qa.context import (
    ScoredParagraph,
    answer_question,
    generate_answer,
    select_context,
)
from scholarkg.qa.engine import (
    default_relaxation_dictionary,
    extract_question_patterns,
    query_entities_of,
    rank_candidates,
    resolve_query,
)

ONTO_PARAGRAPH = iri("askg-onto:Paragraph")
RDF_TYPE = iri("rdf:type")
RDFS_LABEL = iri("rdfs:label")

MEL_SENTENCE = ("A Metadata Extractor & Loader (MEL) tool is applied to extract "
                "text from PDF research proposals and save it in a JSON file "
                "with metadata sets and content.")


def paragraph_node(doc: str, tag: str) -> Iri:
    return Iri(f"https://www.anu.edu.au/onto/scholarly/Paper-{doc}-Paragraph-{tag}")


def graph_of(*paragraphs: tuple[Iri, str]) -> KnowledgeGraph:
    triples = []
    for node, text in paragraphs:
        triples.append(Triple(node, RDF_TYPE, ONTO_PARAGRAPH))
        triples.append(Triple(node, RDFS_LABEL, Literal(text, language="en")))
    return KnowledgeGraph(triples)


def test_document_id_parses_paper_hash():
    p = ScoredParagraph(paragraph_node("b6bab9d7b1722e", "aa"), "x", 1)
    assert p.document_id == "b6bab9d7b1722e"


def test_document_id_empty_for_foreign_nodes():
    p = ScoredParagraph(iri("askg-data:AcademicEntity-mel"), "x", 1)
    assert p.document_id == ""


def test_select_context_scores_by_keyword_frequency(sample_graph, stub_embedder):
    chosen = select_context(sample_graph, {"mel", "apache_tika"}, embedder=stub_embedder)
    assert chosen
    # the comparison paragraph names both entities repeatedly and leads
    assert chosen[0].keyword_frequency >= chosen[-1].keyword_frequency
    frequencies = [p.keyword_frequency for p in chosen]
    assert frequencies == sorted(frequencies, reverse=True)


def test_select_context_orders_ties_by_node_iri(stub_embedder):
    a = paragraph_node("doc1", "aa")
    b = paragraph_node("doc1", "bb")
    graph = graph_of((b, "silver lining"), (a, "silver spoon"))
    chosen = select_context(graph, {"silver"}, embedder=stub_embedder)
    assert [p.node for p in chosen] == [a, b]


def test_select_context_validates_arguments(sample_graph, stub_embedder):
    with pytest.raises(ValueError):
        select_context(sample_graph, {"mel"}, top_n=0, embedder=stub_embedder)
    with pytest.raises(ValueError):
        select_context(sample_graph, {"mel"}, diverse_k=0, embedder=stub_embedder)
    with pytest.raises(ValueError):
        select_context(sample_graph, {"mel"}, top_n=3, diverse_k=4, embedder=stub_embedder)
    for entities in (set(), {""}):
        with pytest.raises(ValueError, match="at least one non-empty name is required"):
            select_context(sample_graph, entities, embedder=stub_embedder)


def test_select_context_keeps_each_paragraph_naming_any_entity(stub_embedder):
    a, b, c, d, e = (paragraph_node("doc1", tag) for tag in ("a", "b", "c", "d", "e"))
    graph = graph_of((a, "MEL extracts text."), (b, "Apache Tika parses files."),
                     (c, "MEL wraps Apache Tika."), (d, "Nothing here."),
                     (e, "A camel is no tool."))
    # every paragraph fits the shortlist, so none is dropped and none embedded
    chosen = select_context(graph, {"mel", "apache_tika", ""}, top_n=5, diverse_k=5,
                            embedder=stub_embedder)
    # a name matches case-insensitively and inside a longer word
    assert [(p.node, p.keyword_frequency) for p in chosen] == [(c, 2), (a, 1), (b, 1), (e, 1)]


def test_select_context_returns_shortlist_when_small(sample_graph, stub_embedder):
    chosen = select_context(sample_graph, {"couchdb"}, top_n=10, diverse_k=5,
                            embedder=stub_embedder)
    assert 1 <= len(chosen) <= 5
    assert all("CouchDB" in p.text for p in chosen)


def test_select_context_farthest_point_prefers_unlike_text():
    # four paragraphs: two near-duplicates about storage, one about parsing,
    # one about evaluation; all mention the query word once.
    storage_a = paragraph_node("d", "aa")
    storage_b = paragraph_node("d", "bb")
    parsing = paragraph_node("d", "cc")
    grading = paragraph_node("d", "dd")
    graph = graph_of(
        (storage_a, "pipeline stores records in the database backend nightly"),
        (storage_b, "pipeline stores records in the database backend hourly"),
        (parsing, "pipeline parses markup trees with a recursive descent reader"),
        (grading, "pipeline grades answers against rubric scores from humans"),
    )
    embedder = HashedBagOfWordsEmbedder()
    chosen = select_context(graph, {"pipeline"}, top_n=4, diverse_k=3,
                            embedder=embedder)
    assert len(chosen) == 3
    picked = {p.node for p in chosen}
    # the two near-duplicates never both survive a diversity pass
    assert not {storage_a, storage_b} <= picked
    assert storage_a in picked  # seed = frequency/IRI leader
    assert {parsing, grading} <= picked


def test_generate_answer_uses_stub_context(stub_gateway):
    context = [
        ScoredParagraph(paragraph_node("doc1", "aa"), MEL_SENTENCE, 2),
        ScoredParagraph(
            paragraph_node("doc1", "bb"),
            "By default, all JSON files are stored in CouchDB database "
            "based on the proposal index.", 1),
    ]
    result = generate_answer(
        "Which tool is applied to extract text from PDF research proposals?",
        context, stub_gateway)
    assert result.answer == MEL_SENTENCE
    assert result.backend == "stub"
    assert result.context == tuple(context)


def test_generate_answer_rejects_blank_question(stub_gateway):
    with pytest.raises(ValueError):
        generate_answer("  ", [], stub_gateway)


def test_generate_answer_rejects_empty_context(stub_gateway):
    with pytest.raises(ValueError, match="context"):
        generate_answer("Which tool extracts text?", [], stub_gateway)


QUESTION = "Which tool is applied to extract text from PDF research proposals?"


@pytest.mark.parametrize("question", [
    QUESTION, "Which couchdb stores reindeer?",
    "Which JSON files and research documents does MEL extract?"])
@pytest.mark.parametrize("top_n, diverse_k, max_depth", [(10, 5, 2), (3, 2, 0), (1, 1, 1)])
def test_answer_question_runs_the_pipeline_stages_in_order(sample_graph, question,
                                                           top_n, diverse_k, max_depth):
    gateway, embedder = StubGateway(), HashedBagOfWordsEmbedder()
    query = extract_question_patterns(question, gateway)
    candidates = resolve_query(sample_graph, query, default_relaxation_dictionary(query),
                               max_depth=max_depth)
    entities = query_entities_of(query)
    context = select_context(sample_graph, entities, top_n=top_n, diverse_k=diverse_k,
                             embedder=embedder)
    result = answer_question(sample_graph, question, gateway, embedder, top_n=top_n,
                             diverse_k=diverse_k, max_depth=max_depth)
    assert result.question == question
    assert result.query == query
    assert result.candidates == candidates
    assert result.ranking == tuple(rank_candidates(candidates.triples, entities))
    assert result.answer == generate_answer(question, context, gateway)
    with pytest.raises(AttributeError):
        result.sparql = ""


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_answer_question_renders_what_query_prints(capsys, fixtures_dir, sample_graph, fmt):
    result = answer_question(sample_graph, QUESTION, StubGateway(), HashedBagOfWordsEmbedder(),
                             top_n=3, diverse_k=2, max_depth=1)
    assert run(["query", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                "--question", QUESTION, "--top-n", "3", "--diverse-k", "2",
                "--max-depth", "1", "--format", fmt]) == 0
    expected = (json.dumps(result.to_dict(), indent=2) + "\n" if fmt == "json"
                else result.to_text())
    assert capsys.readouterr().out == expected


class RecordingGateway(StubGateway):
    def __init__(self):
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return super().complete(request)


@pytest.mark.parametrize("options, message", [
    ({"max_depth": -1}, "max_depth must be non-negative"),
    ({"diverse_k": 0}, "top_n and diverse_k must be positive"),
    ({"top_n": 0}, "top_n and diverse_k must be positive"),
    ({"top_n": 3}, "diverse_k must not exceed top_n"),
    ({"max_depth": -1, "diverse_k": 0}, "max_depth must be non-negative"),
])
def test_answer_question_refuses_bad_options_before_any_request(sample_graph, options, message):
    gateway = RecordingGateway()
    with pytest.raises(ValueError, match=f"^{message}$"):
        answer_question(sample_graph, QUESTION, gateway, HashedBagOfWordsEmbedder(), **options)
    assert gateway.requests == []


def test_answer_question_refuses_an_ungroundable_question(sample_graph):
    with pytest.raises(ValueError, match="cannot ground an answer"):
        answer_question(sample_graph, "Which zebra eats quinoa?", StubGateway(),
                        HashedBagOfWordsEmbedder())
