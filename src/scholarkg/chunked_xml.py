"""Chunked XML interchange format for document models.

The format uses exactly four elements: ``section``, ``heading``,
``sentence`` and ``reference``, plus the ``ID`` attribute on sections.
The root element is an ID-less ``<section>`` container. References may
appear nested inside a sentence or as a sibling immediately after one;
both attach to that sentence.

Because the format has no paragraph element, serialization flattens
paragraph grouping into the underlying sentences. Round-tripping is the
identity for models that came out of ``parse_chunked_xml``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .document import MAX_SECTION_DEPTH, DocumentModel, Paragraph, Section, Sentence, short_hash

__all__ = [
    "ChunkedXmlError",
    "ChunkedXmlParseError",
    "ChunkedXmlValidationError",
    "parse_chunked_xml",
    "serialize_chunked_xml",
]

_ALLOWED_ELEMENTS = {"section", "heading", "sentence", "reference"}


class ChunkedXmlError(Exception):
    """Base error for the chunked XML reader and writer."""


class ChunkedXmlParseError(ChunkedXmlError):
    """Raised for XML that is not well formed; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ChunkedXmlValidationError(ChunkedXmlError):
    """Raised for well-formed XML that violates the interchange format."""


def _check_element(elem: ET.Element) -> None:
    if elem.tag not in _ALLOWED_ELEMENTS:
        raise ChunkedXmlValidationError(f"unknown element <{elem.tag}>")
    for attr in elem.attrib:
        if not (elem.tag == "section" and attr == "ID"):
            raise ChunkedXmlValidationError(f"unknown attribute {attr!r} on <{elem.tag}>")


def _collapse(text: str) -> str:
    return " ".join(text.split())


def _sentence_text(elem: ET.Element) -> str:
    """Text content of a sentence, excluding nested reference elements."""
    parts = [elem.text or ""]
    for child in elem:
        parts.append(child.tail or "")
    return _collapse("".join(parts))


def _parse_reference(elem: ET.Element) -> int:
    raw = _collapse(elem.text or "")
    if not raw.isdecimal() or int(raw) <= 0:
        raise ChunkedXmlValidationError(f"reference content {raw!r} is not a positive integer")
    return int(raw)


class _SentenceBuilder:
    """Mutable sentence accumulator so sibling references can attach late."""

    def __init__(self, text: str, references: list[int]):
        self.text = text
        self.references = references

    def build(self) -> Sentence:
        return Sentence(text=self.text, references=tuple(self.references))


def _parse_section(elem: ET.Element, is_root: bool,
                   last_sentence: list[_SentenceBuilder | None], depth: int = 0):
    """Return (section_id, heading, body_items) for a section element at
    section level ``depth``; the ID-less root container is level 0."""
    if depth > MAX_SECTION_DEPTH:
        raise ChunkedXmlValidationError(
            f"sections are nested more than {MAX_SECTION_DEPTH} levels deep")
    section_id = elem.get("ID")
    if not is_root and section_id is None:
        raise ChunkedXmlValidationError("section element is missing its ID attribute")
    heading: str | None = None
    body: list = []
    if elem.text and elem.text.strip():
        raise ChunkedXmlValidationError("unexpected text content directly inside <section>")
    for child in elem:
        _check_element(child)
        if child.tail and child.tail.strip():
            raise ChunkedXmlValidationError("unexpected text content directly inside <section>")
        if child.tag == "heading":
            if heading is not None:
                raise ChunkedXmlValidationError("section has more than one heading")
            heading = _collapse("".join(child.itertext()))
        elif child.tag == "sentence":
            refs = []
            for sub in child:
                _check_element(sub)
                if sub.tag != "reference":
                    raise ChunkedXmlValidationError(f"unexpected <{sub.tag}> inside <sentence>")
                refs.append(_parse_reference(sub))
            builder = _SentenceBuilder(_sentence_text(child), refs)
            body.append(builder)
            last_sentence[0] = builder
        elif child.tag == "reference":
            # A sibling reference cites from the nearest preceding sentence
            # in document order, even across a section boundary.
            if last_sentence[0] is None:
                raise ChunkedXmlValidationError("reference element has no preceding sentence")
            last_sentence[0].references.append(_parse_reference(child))
        else:  # nested section
            body.append(_parse_section(child, False, last_sentence, depth + 1))
    return section_id, heading, body


def _realize(node) -> Section:
    section_id, heading, body = node
    items: list[Section | Sentence] = []
    for item in body:
        if isinstance(item, _SentenceBuilder):
            items.append(item.build())
        else:
            items.append(_realize(item))
    return Section(section_id=section_id, heading=heading or "", body=tuple(items))


def parse_chunked_xml(data: bytes | str) -> DocumentModel:
    """Parse chunked XML into a document model.

    The document id is the hash of the model's canonical serialization, so
    re-parsing a serialized model reproduces the same id.
    """
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as exc:  # only a surrogate cannot be encoded
            line_start = data.rfind("\n", 0, exc.start) + 1
            raise ChunkedXmlParseError("surrogate code point", data.count("\n", 0, exc.start) + 1,
                                       exc.start - line_start) from None
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        line, column = exc.position
        raise ChunkedXmlParseError(exc.msg.split(":")[0], line, column) from exc
    _check_element(root)
    if root.tag != "section":
        raise ChunkedXmlValidationError(f"root element must be <section>, got <{root.tag}>")

    last_sentence: list[_SentenceBuilder | None] = [None]
    if root.get("ID") is not None:
        # A root carrying an ID is itself a section rather than a container.
        sections = (_realize(_parse_section(root, False, last_sentence, 1)),)
        title = None
    else:
        _, title, body = _parse_section(root, True, last_sentence)
        sections = []
        for item in body:
            if isinstance(item, _SentenceBuilder):
                raise ChunkedXmlValidationError("sentence outside any identified section")
            sections.append(_realize(item))
        sections = tuple(sections)

    model = DocumentModel(doc_id="", title=title or None, sections=sections)
    canonical = serialize_chunked_xml(model)
    return DocumentModel(doc_id=short_hash(canonical.decode("utf-8")),
                         title=model.title, sections=model.sections)


def _emit_section(parent: ET.Element, section: Section) -> None:
    elem = ET.SubElement(parent, "section", {"ID": section.section_id})
    if section.heading:
        ET.SubElement(elem, "heading").text = section.heading
    for item in section.body:
        if isinstance(item, Section):
            _emit_section(elem, item)
        elif isinstance(item, Paragraph):
            for sentence in item.sentences:
                _emit_sentence(elem, sentence)
        else:
            _emit_sentence(elem, item)


def _emit_sentence(parent: ET.Element, sentence: Sentence) -> None:
    elem = ET.SubElement(parent, "sentence")
    elem.text = sentence.text
    for ref in sentence.references:
        ET.SubElement(elem, "reference").text = str(ref)


def serialize_chunked_xml(model: DocumentModel) -> bytes:
    """Serialize a model to canonical chunked XML (UTF-8).

    References are always written nested inside their sentence, and
    paragraph grouping is flattened since the format has no paragraph
    element.
    """
    root = ET.Element("section")
    if model.title:
        ET.SubElement(root, "heading").text = model.title
    for section in model.sections:
        _emit_section(root, section)
    tree = ET.ElementTree(root)
    ET.indent(tree, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=False)
