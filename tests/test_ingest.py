import json

import pytest

from scholarkg.document import Excerpt, collect_paragraphs
from scholarkg.ingest import (
    HeadingOutline,
    OutlineEntry,
    UnknownLinkTargetError,
    build_document_model,
    emit_rdf,
    excerpts_from_graph,
    link_excerpts,
    read_excerpts_jsonl,
    read_outline_json,
)
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.terms import EXCERPT, MENTIONS, RDF_TYPE, Literal, Triple, iri

TEXT = """Introduction

Opening paragraph, first sentence. Opening paragraph, second sentence.

Second paragraph stands alone.

Methods

We did the work. It went well.
"""


def outline() -> HeadingOutline:
    return HeadingOutline((
        OutlineEntry(1, "Introduction", TEXT.index("Introduction")),
        OutlineEntry(1, "Methods", TEXT.index("Methods")),
    ))


def test_outline_entries_validate():
    with pytest.raises(ValueError):
        OutlineEntry(0, "H", 0)
    with pytest.raises(ValueError):
        OutlineEntry(1, "H", -1)
    with pytest.raises(ValueError, match="increasing"):
        HeadingOutline((OutlineEntry(1, "A", 10), OutlineEntry(1, "B", 5)))


def test_read_outline_json_round_trip():
    data = json.dumps([
        {"level": 1, "heading": "Introduction", "offset": 0},
        {"level": 2, "heading": "Scope", "offset": 40},
    ])
    out = read_outline_json(data)
    assert [e.heading for e in out.entries] == ["Introduction", "Scope"]


def test_build_document_model_sections_and_paragraphs():
    model = build_document_model(outline(), TEXT)
    assert [s.section_id for s in model.sections] == ["1", "2"]
    assert model.sections[0].heading == "Introduction"
    paragraphs = collect_paragraphs(model)
    assert [p.text for p in paragraphs] == [
        "Opening paragraph, first sentence. Opening paragraph, second sentence.",
        "Second paragraph stands alone.",
        "We did the work. It went well.",
    ]
    # sentence segmentation happened inside paragraphs
    assert len(paragraphs[0].sentences) == 2
    assert paragraphs[0].paragraph_id.startswith(f"Paper-{model.doc_id}-Paragraph-")


def test_build_document_model_nested_levels():
    text = "Top\n\nbody one.\n\nDeep\n\nbody two.\n\nNext\n\nbody three.\n"
    nested = HeadingOutline((
        OutlineEntry(1, "Top", text.index("Top")),
        OutlineEntry(2, "Deep", text.index("Deep")),
        OutlineEntry(1, "Next", text.index("Next")),
    ))
    model = build_document_model(nested, text)
    assert [s.section_id for s in model.iter_sections()] == ["1", "1.1", "2"]


def test_build_document_model_clamps_skipped_levels():
    text = "Top\n\na.\n\nVeryDeep\n\nb.\n"
    skipping = HeadingOutline((
        OutlineEntry(1, "Top", text.index("Top")),
        OutlineEntry(4, "VeryDeep", text.index("VeryDeep")),
    ))
    model = build_document_model(skipping, text)
    assert [s.section_id for s in model.iter_sections()] == ["1", "1.1"]


def test_build_document_model_preamble():
    text = "Loose text before any heading.\n\nIntro\n\nBody.\n"
    model = build_document_model(
        HeadingOutline((OutlineEntry(1, "Intro", text.index("Intro")),)), text)
    assert model.sections[0].section_id == "0"
    assert model.sections[0].heading == "Preamble"
    assert collect_paragraphs(model)[0].text == "Loose text before any heading."


def test_build_document_model_rejects_offsets_past_text():
    with pytest.raises(ValueError):
        build_document_model(
            HeadingOutline((OutlineEntry(1, "H", 999),)), "short")


def test_doc_id_defaults_to_text_hash():
    model = build_document_model(outline(), TEXT)
    other = build_document_model(outline(), TEXT)
    assert model.doc_id == other.doc_id
    assert len(model.doc_id) == 14


def make_excerpt(eid: str, sentence: str, mentions: str) -> Excerpt:
    return Excerpt(eid, f"label {eid}", sentence, mentions, 1, 3)


def test_link_excerpts_picks_most_similar_paragraph(stub_embedder):
    model = build_document_model(outline(), TEXT)
    paragraphs = collect_paragraphs(model)
    excerpt = make_excerpt("E1", "Second paragraph stands alone.", "standalone")
    (link,) = link_excerpts(paragraphs, [excerpt], stub_embedder)
    assert link.paragraph_id == paragraphs[1].paragraph_id
    assert link.similarity == pytest.approx(1.0)


def test_link_excerpts_threshold_filters(stub_embedder):
    model = build_document_model(outline(), TEXT)
    paragraphs = collect_paragraphs(model)
    stranger = make_excerpt("E2", "Totally unrelated wording everywhere.", "nothing")
    assert link_excerpts(paragraphs, [stranger], stub_embedder, threshold=0.9) == []
    # threshold zero keeps the best match regardless of its similarity
    (link,) = link_excerpts(paragraphs, [stranger], stub_embedder, threshold=0.0)
    assert link.similarity < 0.9


def test_link_excerpts_validates_threshold(stub_embedder):
    with pytest.raises(ValueError):
        link_excerpts([], [], stub_embedder, threshold=1.5)


def test_link_excerpts_empty_paragraphs(stub_embedder):
    assert link_excerpts([], [make_excerpt("E", "s", "m")], stub_embedder) == []


def test_emit_rdf_shapes(stub_embedder):
    model = build_document_model(outline(), TEXT)
    paragraphs = collect_paragraphs(model)
    excerpt = make_excerpt("Excerpt-abc", "Second paragraph stands alone.", "standalone")
    links = link_excerpts(paragraphs, [excerpt], stub_embedder)
    graph = emit_rdf(model, links, [excerpt])

    # 3 paragraphs x 2 triples + 1 excerpt x 6 + 1 link
    assert len(graph) == 13
    para_node = iri(f"askg-data:{paragraphs[1].paragraph_id}")
    exc_node = iri("askg-data:Excerpt-abc")
    assert graph.match(subject=para_node, predicate=iri("askg-onto:hasExcerpt"))[0].object == exc_node
    assert graph.label_of(para_node) == Literal("Second paragraph stands alone.", language="en")
    mentions = graph.match(subject=exc_node, predicate=iri("askg-onto:mentions"))
    assert mentions[0].object == iri("askg-data:AcademicEntity-standalone")
    word_from = graph.match(subject=exc_node, predicate=iri("askg-onto:wordIndexFrom"))
    assert word_from[0].object == Literal("1", datatype=iri("xsd:int"))


def test_emit_rdf_rejects_unknown_link_targets():
    model = build_document_model(outline(), TEXT)
    excerpt = make_excerpt("Excerpt-abc", "s", "m")
    from scholarkg.ingest import ExcerptLink

    with pytest.raises(UnknownLinkTargetError):
        emit_rdf(model, [ExcerptLink("Excerpt-abc", "not-a-paragraph", 1.0)], [excerpt])
    with pytest.raises(UnknownLinkTargetError):
        para = collect_paragraphs(model)[0]
        emit_rdf(model, [ExcerptLink("missing", para.paragraph_id, 1.0)], [excerpt])


def test_read_excerpts_jsonl(fixtures_dir):
    records = read_excerpts_jsonl((fixtures_dir / "excerpts_doc2.jsonl").read_text("utf-8"))
    assert len(records) == 2
    assert {r.mentions for r in records} == {"apache_tika", "mel"}
    assert all(r.excerpt_id.startswith("Excerpt-") for r in records)


def test_read_excerpts_jsonl_reports_bad_line():
    good = json.dumps({
        "excerpt_id": "E", "label": "l", "in_sentence": "s",
        "mentions": "m", "word_index_from": 1, "word_index_to": 2})
    with pytest.raises(ValueError, match="line 2"):
        read_excerpts_jsonl(good + "\n{\"nope\": true}\n")


def test_excerpts_from_graph_round_trip(fixtures_dir, stub_embedder):
    model = build_document_model(outline(), TEXT)
    excerpts = [
        make_excerpt("Excerpt-b", "Second paragraph stands alone.", "standalone"),
        make_excerpt("Excerpt-a", "We did the work.", "work"),
    ]
    graph = emit_rdf(model, [], excerpts)
    recovered = excerpts_from_graph(graph)
    assert recovered == sorted(excerpts, key=lambda e: e.excerpt_id)


def test_excerpts_from_graph_keys_a_literal_mention():
    node = iri("askg-data:Excerpt-x")
    graph = KnowledgeGraph([
        Triple(node, RDF_TYPE, EXCERPT),
        Triple(node, MENTIONS, Literal("Metadata Extractor & Loader (MEL)")),
    ])
    (excerpt,) = excerpts_from_graph(graph)
    assert excerpt.mentions == "metadata_extractor_loader_mel"
