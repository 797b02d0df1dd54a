import json

import pytest
from hypothesis import given, settings, strategies as st

import reference_builder
from anchor_graphs import group_by_subject
from scholarkg.document import (MAX_SECTION_DEPTH, Excerpt, Paragraph, Section, Sentence,
                                collect_paragraphs)
from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.ingest import (
    HeadingOutline,
    OutlineEntry,
    build_document_model,
    emit_rdf,
    link_excerpts,
    link_graph,
    read_excerpts_jsonl,
    read_outline_json,
)
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.terms import (
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    MENTIONS,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    WORD_INDEX_FROM,
    WORD_INDEX_TO,
    XSD_INT,
    XSD_STRING,
    Literal,
    Triple,
    entity_iri,
    iri,
)

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


HEADING = {"level": 1, "heading": "Introduction", "offset": 0}


@pytest.mark.parametrize("outline, message", [
    ({"level": 1}, "outline must be a JSON list of records"),
    ([5], "outline record 0: not a JSON object"),
    ([HEADING, [1, "H", 7]], "outline record 1: not a JSON object"),
    ([{"level": 1, "offset": 7}], "outline record 0: missing field 'heading'"),
    ([{"heading": "H", "offset": 7}], "outline record 0: missing field 'level'"),
    ([HEADING, {"level": 1, "heading": "H"}], "outline record 1: missing field 'offset'"),
    ([{**HEADING, "level": "1"}], "outline record 0: 'level' must be an integer, got '1'"),
    ([{**HEADING, "level": 1.0}], "outline record 0: 'level' must be an integer, got 1.0"),
    ([{**HEADING, "level": True}], "outline record 0: 'level' must be an integer, got True"),
    ([{**HEADING, "offset": None}], "outline record 0: 'offset' must be an integer, got None"),
    ([{**HEADING, "level": 0}], "outline record 0: outline level must be >= 1, got 0"),
    ([{**HEADING, "heading": None}], "outline record 0: 'heading' must be a string, got None"),
    ([HEADING, {**HEADING, "heading": 7}],
     "outline record 1: 'heading' must be a string, got 7"),
    ([{**HEADING, "heading": ["H"]}], "outline record 0: 'heading' must be a string, got ['H']"),
])
def test_read_outline_json_reports_bad_records(outline, message):
    with pytest.raises(ValueError) as excinfo:
        read_outline_json(json.dumps(outline))
    assert str(excinfo.value) == message


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


def walk_sections(sections):
    """The sections and their subsections, depth first in document order."""
    for section in sections:
        yield section
        yield from walk_sections(item for item in section.body if isinstance(item, Section))


def test_build_document_model_nested_levels():
    text = "Top\n\nbody one.\n\nDeep\n\nbody two.\n\nNext\n\nbody three.\n"
    nested = HeadingOutline((
        OutlineEntry(1, "Top", text.index("Top")),
        OutlineEntry(2, "Deep", text.index("Deep")),
        OutlineEntry(1, "Next", text.index("Next")),
    ))
    model = build_document_model(nested, text)
    assert [s.section_id for s in walk_sections(model.sections)] == ["1", "1.1", "2"]


def test_build_document_model_clamps_skipped_levels():
    text = "Top\n\na.\n\nVeryDeep\n\nb.\n"
    skipping = HeadingOutline((
        OutlineEntry(1, "Top", text.index("Top")),
        OutlineEntry(4, "VeryDeep", text.index("VeryDeep")),
    ))
    model = build_document_model(skipping, text)
    assert [s.section_id for s in walk_sections(model.sections)] == ["1", "1.1"]


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


def test_link_excerpts_breaks_ties_toward_the_smaller_paragraph_id(stub_embedder):
    text = "Second paragraph stands alone."
    paragraphs = [Paragraph(pid, (Sentence(text),)) for pid in ("P-c", "P-b", "P-a")]  # descending ids
    excerpts = [make_excerpt("E1", text, "standalone"),
                make_excerpt("E2", "Second paragraph.", "standalone")]
    links = link_excerpts(paragraphs, excerpts, stub_embedder, threshold=0.0)
    assert [(l.excerpt_id, l.paragraph_id) for l in links] == [("E1", "P-a"), ("E2", "P-a")]
    assert links[0].similarity == pytest.approx(1.0)


def test_link_excerpts_empty_paragraphs(stub_embedder):
    assert link_excerpts([], [make_excerpt("E", "s", "m")], stub_embedder) == []


class RecordingEmbedder(HashedBagOfWordsEmbedder):
    def __init__(self):
        super().__init__()
        self.calls = []

    def embed_many(self, texts):
        self.calls.append(len(texts))
        return super().embed_many(texts)


def test_link_excerpts_embeds_nothing_without_both_sides():
    paragraphs = collect_paragraphs(build_document_model(outline(), TEXT))
    embedder = RecordingEmbedder()
    assert link_excerpts(paragraphs, [], embedder) == []
    assert link_excerpts([], [make_excerpt("E", "s", "m")], embedder) == []
    assert embedder.calls == []
    link_excerpts(paragraphs, [make_excerpt("E", "s", "m")], embedder)
    assert embedder.calls == [len(paragraphs), 1]


def test_emit_rdf_shapes(stub_embedder):
    model = build_document_model(outline(), TEXT)
    paragraphs = collect_paragraphs(model)
    excerpt = make_excerpt("Excerpt-abc", "Second paragraph stands alone.", "standalone")
    # 3 paragraphs x 2 triples
    assert len(emit_rdf(model)) == 6
    graph, links = link_graph(emit_rdf(model), [excerpt], stub_embedder)
    assert links == link_excerpts(paragraphs, [excerpt], stub_embedder)

    # 3 paragraphs x 2 triples + 1 excerpt x 6 + 1 link
    assert len(graph) == 13
    para_node = iri(f"askg-data:{paragraphs[1].paragraph_id}")
    exc_node = iri("askg-data:Excerpt-abc")
    assert group_by_subject(graph, HAS_EXCERPT)[para_node][0].object == exc_node
    assert graph.label_of(para_node) == Literal("Second paragraph stands alone.", language="en")
    mentions = group_by_subject(graph, MENTIONS)[exc_node]
    assert mentions[0].object == iri("askg-data:AcademicEntity-standalone")
    word_from = group_by_subject(graph, WORD_INDEX_FROM)[exc_node]
    assert word_from[0].object == Literal("1", datatype=iri("xsd:int"))


def test_link_graph_links_the_paragraphs_the_document_model_holds(stub_embedder):
    # a repeated paragraph text is one graph node but two model paragraphs
    text = TEXT + "\nWe did the work. It went well.\n"
    model = build_document_model(outline(), text)
    paragraphs = collect_paragraphs(model)
    assert len(paragraphs) == 4 and len({p.paragraph_id for p in paragraphs}) == 3
    excerpts = [make_excerpt("Excerpt-a", "We did the work.", "work"),
                make_excerpt("Excerpt-b", "Opening paragraph, second sentence.", "opening"),
                make_excerpt("Excerpt-c", "Unrelated words entirely.", "nothing")]
    shapes = []
    for e in excerpts:
        node = iri(f"askg-data:{e.excerpt_id}")
        shapes += [Triple(node, RDF_TYPE, EXCERPT),
                   Triple(node, RDFS_LABEL, Literal(e.label, language="en")),
                   Triple(node, IN_SENTENCE, Literal(e.in_sentence, datatype=XSD_STRING)),
                   Triple(node, MENTIONS, entity_iri(e.mentions)),
                   Triple(node, WORD_INDEX_FROM, Literal("1", datatype=XSD_INT)),
                   Triple(node, WORD_INDEX_TO, Literal("3", datatype=XSD_INT))]
    linked_counts = []
    for threshold in (0.0, 0.5, 0.7, 1.0):
        graph, links = link_graph(emit_rdf(model), excerpts, stub_embedder, threshold)
        assert links == link_excerpts(paragraphs, excerpts, stub_embedder, threshold)
        assert {link.paragraph_id for link in links} <= {p.paragraph_id for p in paragraphs}
        edges = [Triple(iri(f"askg-data:{link.paragraph_id}"), HAS_EXCERPT,
                        iri(f"askg-data:{link.excerpt_id}")) for link in links]
        assert set(graph) == {*emit_rdf(model), *shapes, *edges}
        linked_counts.append(len(links))
    assert linked_counts == sorted(linked_counts, reverse=True) and linked_counts[0] == 3


def test_link_graph_skips_a_paragraph_without_label(stub_embedder):
    unlabelled = Triple(iri("askg-data:Paper-x-Paragraph-y"), RDF_TYPE, PARAGRAPH)
    excerpt = make_excerpt("Excerpt-a", "anything", "m")
    graph, links = link_graph(KnowledgeGraph([unlabelled]), [excerpt], stub_embedder, 0.0)
    assert links == []
    assert len(graph) == 1 + 6


def test_link_graph_refuses_one_excerpt_id_given_twice_with_different_records():
    model = build_document_model(outline(), TEXT)
    first = make_excerpt("Excerpt-1", "Second paragraph stands alone.", "standalone")
    embedder = RecordingEmbedder()
    # an identical repeat is one excerpt
    once = link_graph(emit_rdf(model), [first], embedder, 0.0)[0]
    assert set(link_graph(emit_rdf(model), [first, first], embedder, 0.0)[0]) == set(once)
    embedder.calls.clear()
    for changed in (Excerpt("Excerpt-1", "another label", *first[2:]),
                    Excerpt(*first[:5], first.word_index_to + 1)):
        with pytest.raises(ValueError) as err:
            link_graph(emit_rdf(model), [first, make_excerpt("Excerpt-2", "x", "y"), changed],
                       embedder, 0.0)
        assert str(err.value) == "excerpt 'Excerpt-1' has two different records"
    assert embedder.calls == []


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


EXCERPT_RECORD = {"excerpt_id": "E", "label": "l", "in_sentence": "s",
                  "mentions": "m", "word_index_from": 1, "word_index_to": 2}


@pytest.mark.parametrize("line, message", [
    ("[1, 2]", "not a JSON object"),
    ("7", "not a JSON object"),
    (json.dumps({k: v for k, v in EXCERPT_RECORD.items() if k != "label"}),
     "missing field 'label'"),
    (json.dumps({**EXCERPT_RECORD, "word_index_from": "x"}),
     "'word_index_from' must be an integer, got 'x'"),
    (json.dumps({**EXCERPT_RECORD, "word_index_from": 1.7}),
     "'word_index_from' must be an integer, got 1.7"),
    (json.dumps({**EXCERPT_RECORD, "word_index_to": True}),
     "'word_index_to' must be an integer, got True"),
    (json.dumps({**EXCERPT_RECORD, "word_index_to": 0}),
     "word_index_from 1 exceeds word_index_to 0"),
    (json.dumps({**EXCERPT_RECORD, "mentions": None}),
     "'mentions' must be a string, got None"),
    (json.dumps({**EXCERPT_RECORD, "label": 1.5}),
     "'label' must be a string, got 1.5"),
    (json.dumps({**EXCERPT_RECORD, "excerpt_id": ["E"]}),
     "'excerpt_id' must be a string, got ['E']"),
    (json.dumps({**EXCERPT_RECORD, "in_sentence": "\ud800"}),
     "'in_sentence' holds a lone surrogate U+D800"),
    (json.dumps({**EXCERPT_RECORD, "in_sentence": "tool \udfff"}),
     "'in_sentence' holds a lone surrogate U+DFFF"),
    (json.dumps({**EXCERPT_RECORD, "label": "\udc00\ud83d"}),
     "'label' holds a lone surrogate U+DC00"),
    (json.dumps({**EXCERPT_RECORD, "excerpt_id": "E\udbff"}),
     "'excerpt_id' holds a lone surrogate U+DBFF"),
    (json.dumps({**EXCERPT_RECORD, "mentions": "\ud83dm"}),
     "'mentions' holds a lone surrogate U+D83D"),
    (json.dumps({**EXCERPT_RECORD, "in_sentence": ""}), "'in_sentence' is blank"),
    (json.dumps({**EXCERPT_RECORD, "in_sentence": "   "}), "'in_sentence' is blank"),
])
def test_read_excerpts_jsonl_reports_bad_records(line, message):
    good = json.dumps(EXCERPT_RECORD)
    with pytest.raises(ValueError) as excinfo:
        read_excerpts_jsonl(f"{good}\n\n{line}\n")
    assert str(excinfo.value) == f"bad excerpt record on line 3: {message}"



def test_read_excerpts_jsonl_accepts_a_sentence_without_letters_or_digits():
    (excerpt,) = read_excerpts_jsonl(json.dumps({**EXCERPT_RECORD, "in_sentence": "* * *"}))
    assert excerpt.in_sentence == "* * *"


def test_read_excerpts_jsonl_reads_a_surrogate_pair_escape_as_one_character():
    line = json.dumps({**EXCERPT_RECORD, "in_sentence": "tool \U0001F600"})
    assert "\\ud83d\\ude00" in line
    (excerpt,) = read_excerpts_jsonl(line)
    assert excerpt.in_sentence == "tool \U0001F600"


def test_read_excerpts_jsonl_refuses_a_repeated_excerpt_id():
    good = json.dumps(EXCERPT_RECORD)
    other = json.dumps({**EXCERPT_RECORD, "excerpt_id": "F"})
    again = json.dumps({**EXCERPT_RECORD, "label": "another label"})
    with pytest.raises(ValueError) as excinfo:
        read_excerpts_jsonl(f"{good}\n{other}\n\n{again}\n")
    assert str(excinfo.value) == (
        "bad excerpt record on line 4: excerpt_id 'E' is already on line 1")


def deep_outline(levels: int) -> tuple[HeadingOutline, str]:
    """An outline whose every heading goes one level deeper."""
    text = "".join(f"H{i}\n\nBody {i}.\n\n" for i in range(levels))
    offsets = [text.index(f"H{i}\n") for i in range(levels)]
    return HeadingOutline(tuple(OutlineEntry(i + 1, f"H{i}", offset)
                                for i, offset in enumerate(offsets))), text


def test_build_document_model_nests_up_to_the_depth_limit():
    model = build_document_model(*deep_outline(MAX_SECTION_DEPTH))
    sections = list(walk_sections(model.sections))
    assert len(sections) == MAX_SECTION_DEPTH == 100
    assert sections[-1].section_id == ".".join(["1"] * 100)
    assert [p.text for p in collect_paragraphs(model)] == [f"Body {i}." for i in range(100)]


@pytest.mark.parametrize("levels", [101, 1500])
def test_build_document_model_refuses_sections_past_the_depth_limit(levels):
    with pytest.raises(ValueError) as excinfo:
        build_document_model(*deep_outline(levels))
    assert str(excinfo.value) == "sections are nested more than 100 levels deep"


def test_build_document_model_limits_depth_not_length_or_level():
    # 1500 sections side by side: the first heading's level 1500 is
    # clamped to 1, and every later heading is at level 1.
    text = "".join(f"H{i}\n\nBody {i}.\n\n" for i in range(1500))
    entries = tuple(OutlineEntry(1500 if i == 0 else 1, f"H{i}", text.index(f"H{i}\n"))
                    for i in range(1500))
    model = build_document_model(HeadingOutline(entries), text)
    assert [s.section_id for s in model.sections] == [str(i) for i in range(1, 1501)]


# Paragraph texts drawn with repeats, one splitting into two sentences and
# one a heading's own word, so a heading-less span can start with it.
_PARAGRAPHS = st.sampled_from(["Alpha beta. Gamma delta.", "Repeated text here.",
                               "Methods matter.", "* * *", "Dr. Smith went home."])
_SECTIONS = st.lists(st.tuples(
    st.integers(1, 5),                                   # outline level
    st.sampled_from(["Intro", "Methods", "Results"]),    # heading
    st.sampled_from(["at", "indented", "absent"]),       # heading at its offset or not
    st.lists(_PARAGRAPHS, max_size=3),                   # an empty span when empty
), max_size=12)


def _drawn_document(preamble: list[str], sections) -> tuple[HeadingOutline, str]:
    text = "\n\n".join(preamble) + "\n" if preamble else ""
    entries = []
    for level, heading, placement, paragraphs in sections:
        offset = len(text)
        if placement != "absent":
            text += ("  " if placement == "indented" else "") + heading + "\n\n"
        text += "\n\n".join(paragraphs) + "\n"
        entries.append(OutlineEntry(level, heading, offset))
    return HeadingOutline(tuple(entries)), text


@settings(max_examples=300, deadline=None)
@given(st.lists(_PARAGRAPHS, max_size=2), _SECTIONS)
def test_build_document_model_builds_like_the_reference_builder(preamble, sections):
    outline, text = _drawn_document(preamble, sections)
    assert build_document_model(outline, text) == reference_builder.build_document_model(
        outline, text)
