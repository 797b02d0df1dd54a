import pytest
from hypothesis import example, given, settings, strategies as st

from scholarkg.chunked_xml import (
    ChunkedXmlError,
    ChunkedXmlParseError,
    ChunkedXmlValidationError,
    parse_chunked_xml,
    serialize_chunked_xml,
)
from scholarkg.document import DocumentModel, Paragraph, Section, Sentence


def test_parse_fixture_document(fixtures_dir):
    model = parse_chunked_xml((fixtures_dir / "chunked_paper.xml").read_bytes())
    assert [s.section_id for s in model.sections] == ["1", "2"]
    intro = model.sections[0]
    assert intro.heading == "Introduction"
    assert len(intro.sentences()) == 2
    # the sibling reference attaches to the sentence before it
    assert intro.sentences()[0].references == (1,)
    assert intro.sentences()[1].references == ()

    related = model.sections[1]
    (sub,) = related.subsections()
    assert sub.section_id == "2.1"
    texts = [s.text for s in sub.sentences()]
    assert texts[0] == "Oztaysi et al."
    assert any("Metadata Extractor & Loader (MEL)" in t for t in texts)
    # nested references belong to their enclosing sentence
    mel = next(s for s in sub.sentences() if "MEL" in s.text)
    assert mel.references == (20,)


def test_doc_id_is_parse_stable(fixtures_dir):
    data = (fixtures_dir / "chunked_paper.xml").read_bytes()
    model = parse_chunked_xml(data)
    assert len(model.doc_id) == 14
    again = parse_chunked_xml(serialize_chunked_xml(model))
    assert again.doc_id == model.doc_id
    assert again.sections == model.sections


def test_sentence_text_whitespace_is_collapsed():
    model = parse_chunked_xml(
        "<section><section ID='1'><heading>H</heading>"
        "<sentence>\n  spread   over\nlines </sentence></section></section>")
    assert model.sections[0].sentences()[0].text == "spread over lines"


def test_root_section_with_id_is_a_section():
    model = parse_chunked_xml(
        "<section ID='1'><heading>Only</heading>"
        "<sentence>Text.</sentence></section>")
    assert model.title is None
    assert [s.section_id for s in model.sections] == ["1"]


def test_reference_before_any_sentence_is_rejected():
    with pytest.raises(ChunkedXmlValidationError, match="no preceding sentence"):
        parse_chunked_xml(
            "<section><section ID='1'><heading>H</heading>"
            "<reference>4</reference></section></section>")


def test_reference_attaches_across_section_boundary():
    # a reference opening a section still refers to the previous sentence
    model = parse_chunked_xml(
        "<section>"
        "<section ID='1'><heading>A</heading><sentence>One.</sentence></section>"
        "<section ID='2'><heading>B</heading><reference>7</reference>"
        "<sentence>Two.</sentence></section>"
        "</section>")
    first = model.sections[0].sentences()[0]
    assert first.references == (7,)


def test_unknown_element_and_attribute_are_rejected():
    with pytest.raises(ChunkedXmlValidationError, match="paragraph"):
        parse_chunked_xml("<section><paragraph/></section>")
    with pytest.raises(ChunkedXmlValidationError, match="lang"):
        parse_chunked_xml("<section lang='en'></section>")


def test_non_integer_reference_is_rejected():
    with pytest.raises(ChunkedXmlValidationError):
        parse_chunked_xml(
            "<section><section ID='1'><heading>H</heading>"
            "<sentence>S.</sentence><reference>seven</reference>"
            "</section></section>")


def test_stray_text_in_section_is_rejected():
    with pytest.raises(ChunkedXmlValidationError, match="text"):
        parse_chunked_xml("<section><section ID='1'>loose words</section></section>")


def test_malformed_xml_reports_position():
    with pytest.raises(ChunkedXmlParseError) as err:
        parse_chunked_xml("<section><sentence>oops</section>")
    assert err.value.line == 1
    assert err.value.column > 0


def test_serialize_flattens_paragraphs_and_nests_references():
    model = DocumentModel(
        doc_id="x",
        title="T",
        sections=(
            Section("1", "H", (
                Paragraph("p", (
                    Sentence("One.", references=(2,)),
                    Sentence("Two."),
                )),
            )),
        ),
    )
    data = serialize_chunked_xml(model).decode("utf-8")
    assert "<paragraph" not in data
    assert data.count("<sentence>") == 2
    assert "<reference>2</reference>" in data
    # reference sits inside the sentence element
    assert data.index("<reference>") < data.index("</sentence>")


def test_serialize_parse_fixpoint(fixtures_dir):
    data = (fixtures_dir / "chunked_paper.xml").read_bytes()
    model = parse_chunked_xml(data)
    canonical = serialize_chunked_xml(model)
    assert serialize_chunked_xml(parse_chunked_xml(canonical)) == canonical


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

_XML_FRAGMENTS = st.sampled_from([
    "<section>", "</section>", '<section ID="1">', '<section ID="2.1">', '<section ID="x">',
    '<section ID="">', "<heading>", "</heading>", "<sentence>", "</sentence>",
    "<reference>", "</reference>", "<reference/>", "<para>", "</para>", "<b/>",
    ' foo="1"', "Some text.", " ", "\n", "3", "0", "-1", "²", "٣", "&amp;", "&bogus;",
    "<!-- c -->", "<?xml version='1.0'?>", "<![CDATA[x]]>", "<", ">", "&", '"', "\x00", "é",
])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.binary(),
    st.lists(_XML_FRAGMENTS | st.text(max_size=2)).map("".join),
    st.lists(_XML_FRAGMENTS).map(lambda parts: "<section>" + "".join(parts) + "</section>"),
))
@example('<section><section ID="1"><sentence>x<reference>\u00b2</reference>'
         '</sentence></section></section>')
@example("<section>\n\ud800</section>")
@example("<section>" + '<section ID="1">' * 2000 + "</section>" * 2001)
def test_parser_raises_only_chunked_xml_errors(data):
    try:
        parse_chunked_xml(data)
    except ChunkedXmlError:
        pass


@pytest.mark.parametrize("data, error, message", [
    ('<section><section ID="1"><sentence>x<reference>\u00b2</reference></sentence></section>'
     "</section>", ChunkedXmlValidationError, "reference content '\u00b2' is not a positive integer"),
    ("<section>\nab\ud800</section>", ChunkedXmlParseError,
     "surrogate code point (line 2, column 2)"),
    ("<section>" + '<section ID="1">' * 101 + "</section>" * 102, ChunkedXmlValidationError,
     "sections are nested more than 100 levels deep"),
    ('<section ID="1">' * 101 + "</section>" * 101, ChunkedXmlValidationError,
     "sections are nested more than 100 levels deep"),
], ids=["superscript-reference", "surrogate", "101-levels", "101-levels-from-an-identified-root"])
def test_parser_refuses_what_it_cannot_represent(data, error, message):
    with pytest.raises(error) as err:
        parse_chunked_xml(data)
    assert str(err.value) == message


def test_parser_reads_a_decimal_reference_in_any_script_and_100_levels():
    arabic_three = '<section ID="1"><sentence>x</sentence><reference>\u0663</reference></section>'
    assert parse_chunked_xml(arabic_three).sections[0].sentences()[0].references == (3,)
    deep = parse_chunked_xml(
        "<section>" + '<section ID="1">' * 100 + "<sentence>x</sentence>" + "</section>" * 101)
    section = deep.sections[0]
    for _ in range(99):
        (section,) = section.subsections()
    assert [s.text for s in section.sentences()] == ["x"]


def test_an_identified_root_is_the_first_of_100_levels():
    deep = parse_chunked_xml('<section ID="1">' * 100 + "<sentence>x</sentence>"
                             + "</section>" * 100)
    assert len(list(deep.iter_sections())) == 100
