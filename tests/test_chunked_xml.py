import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_chunked_xml
from reference_chunked_xml import serialize_chunked_xml
from scholarkg import chunked_xml
from scholarkg.chunked_xml import (
    ChunkedXmlError,
    ChunkedXmlParseError,
    ChunkedXmlValidationError,
    parse_chunked_xml,
)
from scholarkg.document import (
    MAX_SECTION_DEPTH,
    DocumentModel,
    Paragraph,
    Section,
    Sentence,
    collect_paragraphs,
    paragraph_id_for,
    short_hash,
)


def test_parse_fixture_document(fixtures_dir):
    model = parse_chunked_xml((fixtures_dir / "chunked_paper.xml").read_bytes())
    assert [s.section_id for s in model.sections] == ["1", "2"]
    intro = model.sections[0]
    assert intro.heading == "Introduction"
    (paragraph,) = intro.body
    assert len(paragraph.sentences) == 2
    # the sibling reference attaches to the sentence before it
    assert paragraph.sentences[0].references == (1,)
    assert paragraph.sentences[1].references == ()

    related = model.sections[1]
    (sub,) = related.body
    assert sub.section_id == "2.1"
    (paragraph,) = sub.body
    texts = [s.text for s in paragraph.sentences]
    assert texts[0] == "Oztaysi et al."
    assert any("Metadata Extractor & Loader (MEL)" in t for t in texts)
    # nested references belong to their enclosing sentence
    mel = next(s for s in paragraph.sentences if "MEL" in s.text)
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
    assert collect_paragraphs(model)[0].sentences[0].text == "spread over lines"


def test_collect_paragraphs_groups_consecutive_sentences():
    model = parse_chunked_xml(
        "<section><section ID='1'><heading>H</heading>"
        "<sentence>One.</sentence><sentence>Two.</sentence>"
        "<section ID='1.1'><heading>Sub</heading><sentence>Three.</sentence></section>"
        "<sentence>Four.</sentence></section></section>")
    paragraphs = collect_paragraphs(model)
    assert [p.text for p in paragraphs] == ["One. Two.", "Three.", "Four."]
    # implicit ids derive from the document and the paragraph text
    expected = f"Paper-{model.doc_id}-Paragraph-{short_hash('One. Two.', 16)}"
    assert paragraphs[0].paragraph_id == expected


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
    first = collect_paragraphs(model)[0].sentences[0]
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


@pytest.mark.parametrize("encoding", ["ISO-8859-1", "windows-1252", "UTF-16", "UTF-8"])
def test_a_str_is_read_as_the_text_it_holds_whatever_encoding_it_declares(encoding):
    text = (f"<?xml version='1.0' encoding='{encoding}'?><section><heading>Caf\u00e9</heading>"
            "<section ID='1'><sentence>Na\u00efve \u00e0 la carte.</sentence></section></section>")
    model = parse_chunked_xml(text)
    assert model.title == "Caf\u00e9"
    assert model == parse_chunked_xml(text.encode(encoding))


def test_parser_builds_each_paragraph_and_section_once(monkeypatch):
    built = Counter()

    def counted(cls):
        class Counted(cls):
            def __new__(subclass, *args, **kwargs):
                built[cls.__name__] += 1
                return super().__new__(subclass, *args, **kwargs)
        return Counted

    monkeypatch.setattr(chunked_xml, "Paragraph", counted(Paragraph))
    monkeypatch.setattr(chunked_xml, "Section", counted(Section))
    model = parse_chunked_xml(
        "<section><heading>T</heading><section ID='1'><sentence>One.</sentence>"
        "<sentence>Two.</sentence><section ID='1.1'><sentence>Three.</sentence></section>"
        "<sentence>Four.</sentence></section><section ID='2'><sentence>Five.</sentence>"
        "</section></section>")
    assert [p.text for p in collect_paragraphs(model)] == ["One. Two.", "Three.", "Four.", "Five."]
    assert built == {"Paragraph": 4, "Section": 3}


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


REFUSALS = [
    ('<section><section ID="1"><sentence>x<reference>\u00b2</reference></sentence></section>'
     "</section>", ChunkedXmlValidationError, "reference content '\u00b2' is not a positive integer"),
    ("<section>\nab\ud800</section>", ChunkedXmlParseError,
     "surrogate code point (line 2, column 2)"),
    ("<section>" + '<section ID="1">' * 101 + "</section>" * 102, ChunkedXmlValidationError,
     "sections are nested more than 100 levels deep"),
    ('<section ID="1">' * 101 + "</section>" * 101, ChunkedXmlValidationError,
     "sections are nested more than 100 levels deep"),
    ('<section ID="1"><sentence>First one.</sentence><sentence>  </sentence>'
     "<sentence>Second.</sentence></section>", ChunkedXmlValidationError, "sentence has no text"),
    ('<section><section ID="1"><sentence/></section></section>', ChunkedXmlValidationError,
     "sentence has no text"),
    ('<section ID="1"><sentence><reference>1</reference></sentence></section>',
     ChunkedXmlValidationError, "sentence has no text"),
    ('<section ID="1"><heading>H<bogus x="1">B</bogus></heading><sentence>S.</sentence>'
     "</section>", ChunkedXmlValidationError, "unexpected <bogus> inside <heading>"),
    ('<section ID="1"><sentence>S.</sentence><reference>3<b/>4</reference></section>',
     ChunkedXmlValidationError, "unexpected <b> inside <reference>"),
    ('<section ID="1"><sentence>S.<reference>3<b/>4</reference></sentence></section>',
     ChunkedXmlValidationError, "unexpected <b> inside <reference>"),
]


@pytest.mark.parametrize("data, error, message", REFUSALS, ids=[
    "superscript-reference", "surrogate", "101-levels", "101-levels-from-an-identified-root",
    "blank-sentence", "empty-sentence", "sentence-of-a-reference", "element-in-heading",
    "element-in-reference", "element-in-nested-reference"])
def test_parser_refuses_what_it_cannot_represent(data, error, message):
    with pytest.raises(error) as err:
        parse_chunked_xml(data)
    assert str(err.value) == message


def test_parser_reads_a_decimal_reference_in_any_script_and_100_levels():
    arabic_three = '<section ID="1"><sentence>x</sentence><reference>\u0663</reference></section>'
    assert collect_paragraphs(parse_chunked_xml(arabic_three))[0].sentences[0].references == (3,)
    deep = parse_chunked_xml(
        "<section>" + '<section ID="1">' * 100 + "<sentence>x</sentence>" + "</section>" * 101)
    assert innermost_of(deep, 100).body[0].text == "x"


def test_an_identified_root_is_the_first_of_100_levels():
    deep = parse_chunked_xml('<section ID="1">' * 100 + "<sentence>x</sentence>"
                             + "</section>" * 100)
    assert innermost_of(deep, 100).body[0].text == "x"


def innermost_of(model: DocumentModel, levels: int) -> Section:
    """The section ``levels`` deep in a model of one section per level,
    each holding only the next one."""
    (section,) = model.sections
    for _ in range(levels - 1):
        (section,) = section.body
    assert isinstance(section, Section) and len(section.body) == 1
    assert isinstance(section.body[0], Paragraph)
    return section


# ---------------------------------------------------------------------------
# Paragraph grouping against an oracle read from the element tree
# ---------------------------------------------------------------------------

_WORD = st.sampled_from(["One", "two.", "&amp;", "\u00e9t\u00e9", "x1"])
_SPACE = st.sampled_from(["", " ", "\n", "  \t", "\n    "])
_TEXT = st.lists(st.tuples(_SPACE, _WORD), min_size=1, max_size=3).map(
    lambda parts: "".join(space + word for space, word in parts))
_BLANK = st.sampled_from(["", " ", "\n  "])
_REFERENCE = st.builds(lambda lead, n, trail: f"<reference>{lead}{n}{trail}</reference>",
                       _BLANK, st.integers(1, 99), _BLANK)


@st.composite
def _sentence(draw):
    lead_is_text = draw(st.booleans())
    parts = [draw(_TEXT if lead_is_text else _BLANK)]
    for reference in draw(st.lists(_REFERENCE, max_size=2)):
        parts += [reference, draw(_TEXT | _BLANK)]
    parts.append(draw((_TEXT | _BLANK) if lead_is_text else _TEXT))
    return "<sentence>" + "".join(parts) + "</sentence>"


def _section_of(subsections):
    @st.composite
    def section(draw):
        children = draw(st.lists(_sentence() | _REFERENCE | subsections, max_size=5))
        if draw(st.booleans()):
            heading = "<heading>" + draw(_TEXT | _BLANK) + "</heading>"
            children.insert(draw(st.integers(0, len(children))), heading)
        spaces = draw(st.lists(_BLANK, min_size=len(children) + 1, max_size=len(children) + 1))
        body = "".join(space + child for space, child in zip(spaces, children + [""]))
        return f'<section ID="{draw(st.sampled_from(["1", "2.1"]))}">{body}</section>'
    return section()


_SECTIONS = st.recursive(_section_of(st.nothing()), _section_of, max_leaves=8)
_DOCUMENTS = _SECTIONS | st.builds(
    lambda title, sections: "<section>" + title + "".join(sections) + "</section>",
    st.sampled_from(["", "<heading>Title</heading>", "<heading/>"]),
    st.lists(_SECTIONS, max_size=3))


class _NoPrecedingSentence(Exception):
    pass


def _oracle_runs(data: str) -> list:
    """((text, references), ...) per paragraph: one per maximal run of
    sentences of a section, which only a subsection ends; a sibling
    reference cites from the sentence before it in document order."""
    references: dict[ET.Element, list[int]] = {}
    runs: list[list[ET.Element]] = []
    last: list[ET.Element] = []

    def text_of(sentence: ET.Element) -> str:
        return " ".join("".join([sentence.text or ""] + [r.tail or "" for r in sentence]).split())

    def walk(section: ET.Element) -> None:
        run: list[ET.Element] = []
        for child in section:
            if child.tag == "sentence":
                references[child] = [int(r.text) for r in child]
                last[:] = [child]
                run.append(child)
            elif child.tag == "reference":
                if not last:
                    raise _NoPrecedingSentence
                references[last[0]].append(int(child.text))
            elif child.tag == "section":
                if run:
                    runs.append(run)
                run = []
                walk(child)
        if run:
            runs.append(run)

    walk(ET.fromstring(data))
    return [tuple((text_of(s), tuple(references[s])) for s in run) for run in runs]


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS)
@example('<section ID="1"><sentence>a</sentence><heading>H</heading><reference>2</reference>'
         '<sentence>b<reference>3</reference></sentence>'
         '<section ID="1.1"><reference>4</reference><sentence>c</sentence></section>'
         "<sentence>d</sentence></section>")
def test_reader_groups_sentence_runs_like_the_element_tree_oracle(data):
    try:
        runs = _oracle_runs(data)
    except _NoPrecedingSentence:
        with pytest.raises(ChunkedXmlValidationError, match="no preceding sentence"):
            parse_chunked_xml(data)
        return
    model = parse_chunked_xml(data)
    expected = [(paragraph_id_for(model.doc_id, " ".join(text for text, _ in run)), run)
                for run in runs]
    assert [(p.paragraph_id, tuple((s.text, s.references) for s in p.sentences))
            for p in collect_paragraphs(model)] == expected
    canonical = serialize_chunked_xml(model)
    again = parse_chunked_xml(canonical)
    assert again == model
    assert serialize_chunked_xml(again) == canonical


# ---------------------------------------------------------------------------
# Differential against the reader that built each model twice
# ---------------------------------------------------------------------------

_MALFORMED = st.sampled_from([
    "<sentence>  </sentence>", "<sentence/>", "<sentence><reference>1</reference></sentence>",
    "<sentence>Loose.</sentence>", "<heading>Again</heading>", "<heading/>",
    '<heading>H<bogus x="1">B</bogus></heading>', "<reference>3<b/>4</reference>",
    "<sentence>S.<reference>3<b/>4</reference></sentence>", "<sentence>S.<heading/></sentence>",
    "<reference>\u00b2</reference>", "<reference>0</reference>", "<reference>\u0663</reference>",
    "<reference>7</reference>", "<para/>", "loose words", '<section lang="en"/>',
    "<section><sentence>No id.</sentence></section>", '<section ID="9"/>',
])


@st.composite
def _with_a_malformed_fragment(draw):
    """A drawn document with one fragment put after one of its tags."""
    document = draw(_DOCUMENTS)
    tags = re.finditer(r"<section[^>]*>|</(?:sentence|heading|reference)>", document)
    at = draw(st.sampled_from([tag.end() for tag in tags]))
    return document[:at] + draw(_MALFORMED) + document[at:]


@st.composite
def _deep(draw):
    """One section per level around one sentence, under an ID-less root or
    not, with the ID left off at most one level."""
    levels = draw(st.integers(MAX_SECTION_DEPTH - 2, MAX_SECTION_DEPTH + 2))
    without_id = draw(st.none() | st.sampled_from([0, levels - 1]) | st.integers(0, levels - 1))
    opening = "".join("<section>" if level == without_id else f'<section ID="{level}">'
                      for level in range(levels))
    nested = opening + draw(_sentence()) + draw(_REFERENCE | st.just("")) + "</section>" * levels
    return nested if draw(st.booleans()) else "<section>" + nested + "</section>"


def _outcome(parse, data):
    try:
        return parse(data)
    except ChunkedXmlError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(_DOCUMENTS | _with_a_malformed_fragment() | _deep()
       | st.sampled_from([data for data, _, _ in REFUSALS]))
@example('<section><heading>T</heading><section ID="1"><sentence>a</sentence>'
         '<heading>H</heading></section><reference>2</reference><heading> </heading></section>')
@example('<section ID="1"><heading/><sentence>a</sentence><heading>H</heading></section>')
@example('<section><sentence>Loose.</sentence><section ID="1"><sentence>a</sentence></section>'
         "</section>")
@example('<section><section ID="1"><sentence>a</sentence></section>tail</section>')
@example("<sentence>a</sentence>")
def test_reader_reads_like_the_reference_reader(data):
    assert _outcome(parse_chunked_xml, data) == _outcome(reference_chunked_xml.parse_chunked_xml,
                                                         data)
