import pytest

from scholarkg.document import (
    DocumentModel,
    Excerpt,
    Paragraph,
    Section,
    Sentence,
    collect_paragraphs,
    document_id_of,
    paragraph_id_for,
    short_hash,
    validate_model,
)


def make_paragraph(pid: str, *texts: str) -> Paragraph:
    return Paragraph(pid, tuple(Sentence(t) for t in texts))


def test_short_hash_is_stable_and_sized():
    assert short_hash("abc") == short_hash("abc")
    assert len(short_hash("abc")) == 14
    assert len(short_hash("abc", 16)) == 32
    assert short_hash("abc") != short_hash("abd")


def test_paragraph_text_and_word_count():
    p = make_paragraph("p1", "First sentence.", "Second one here.")
    assert p.text == "First sentence. Second one here."


def test_excerpt_rejects_bad_word_range():
    with pytest.raises(ValueError):
        Excerpt("e", "l", "s", "m", word_index_from=5, word_index_to=3)
    with pytest.raises(ValueError):
        Excerpt("e", "l", "s", "m", word_index_from=-1, word_index_to=3)
    # equal endpoints are a single-word span and are fine
    Excerpt("e", "l", "s", "m", word_index_from=4, word_index_to=4)


def valid_model() -> DocumentModel:
    return DocumentModel(
        doc_id="d1",
        title="A Title",
        sections=(
            Section("1", "Introduction", (make_paragraph("p1", "Hello there."),)),
            Section("2", "Methods", (
                Section("2.1", "Setup", (make_paragraph("p21", "Configured."),)),
                Section("2.2", "Runs", (
                    Paragraph("p22", (Sentence("Ran twice.", references=(3,)),)),
                )),
            )),
        ),
    )


def test_validate_model_accepts_valid():
    assert validate_model(valid_model()) == []


@pytest.mark.parametrize("section_id", ["", "1.a", "1..2", "01x"])
def test_validate_model_rejects_malformed_ids(section_id):
    model = DocumentModel("d", None, (Section(section_id, "H", ()),))
    issues = validate_model(model)
    assert issues and "id" in issues[0].message


def test_validate_model_rejects_duplicate_ids():
    model = DocumentModel("d", None, (
        Section("1", "A", ()),
        Section("1", "B", ()),
    ))
    assert any("duplicate" in i.message for i in validate_model(model))


def test_validate_model_requires_child_to_extend_parent():
    model = DocumentModel("d", None, (
        Section("1", "A", (Section("2.1", "B", ()),)),
    ))
    assert validate_model(model)


def test_validate_model_rejects_nested_top_level_id():
    model = DocumentModel("d", None, (Section("1.1", "A", ()),))
    assert validate_model(model)


def test_validate_model_flags_empty_texts_and_bad_references():
    model = DocumentModel("d", None, (
        Section("1", "", (Paragraph("p", (Sentence(""), Sentence("ok", references=(0,)))),)),
    ))
    messages = [i.message for i in validate_model(model)]
    assert len(messages) == 3  # empty heading, empty sentence, reference < 1


def test_collect_paragraphs_keeps_explicit_paragraphs():
    model = valid_model()
    paragraphs = collect_paragraphs(model)
    assert [p.text for p in paragraphs] == ["Hello there.", "Configured.", "Ran twice."]


def test_collect_paragraphs_walks_subsections_in_document_order():
    model = DocumentModel("doc", None, (
        Section("1", "H", (
            make_paragraph("p1", "One.", "Two."),
            Section("1.1", "Sub", (make_paragraph("p11", "Three."),)),
            make_paragraph("p2", "Four."),
        )),
    ))
    assert [p.paragraph_id for p in collect_paragraphs(model)] == ["p1", "p11", "p2"]


@pytest.mark.parametrize("item", [Sentence("Loose."), "text", None])
def test_section_body_holds_only_paragraphs_and_sections(item):
    with pytest.raises(TypeError, match=f"not {type(item).__name__}$"):
        Section("1", "H", (make_paragraph("p1", "One."), item))


@pytest.mark.parametrize("doc_id", ["b6bab9d7b1722e", "", "a-b", "Paper-x", "x-Paragraph-y"])
@pytest.mark.parametrize("text", ["A sentence.", ""])
def test_document_id_of_inverts_paragraph_id_for(doc_id, text):
    assert document_id_of(paragraph_id_for(doc_id, text)) == doc_id


@pytest.mark.parametrize("paragraph_id", [
    "AcademicEntity-mel", "Paper-abc", "Paper-abc-Section-1", "Excerpt-Paper-abc-Paragraph-1",
    "paper-abc-Paragraph-1", "",
])
def test_document_id_of_is_empty_for_other_identifiers(paragraph_id):
    assert document_id_of(paragraph_id) == ""
