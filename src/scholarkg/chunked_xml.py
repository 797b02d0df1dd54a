"""Chunked XML interchange format for document models.

The format uses exactly four elements: ``section``, ``heading``,
``sentence`` and ``reference``, plus the ``ID`` attribute on sections.
The root element is an ID-less ``<section>`` container. References may
appear nested inside a sentence or as a sibling after one; both attach
to that sentence, a sibling even across a section boundary. A heading
or a reference holds only text, and a sentence holds text and nested
references.

The format has no paragraph element, so the reader makes one paragraph of
each maximal run of consecutive sentences in a section: only a subsection
ends a run. Its id derives from the document id and its text, as the
outline reader's do. Serialization flattens paragraphs back into their
sentences, so round-tripping is the identity for models that came out of
``parse_chunked_xml``.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from functools import cached_property
from itertools import groupby

from .document import (MAX_SECTION_DEPTH, DocumentModel, Paragraph, Section, Sentence,
                       paragraph_id_for, short_hash)

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


def _text_only(elem: ET.Element) -> str:
    """Collapsed text of an element that may hold no child element."""
    if len(elem):
        raise ChunkedXmlValidationError(f"unexpected <{elem[0].tag}> inside <{elem.tag}>")
    return _collapse(elem.text or "")


def _parse_reference(elem: ET.Element) -> int:
    raw = _text_only(elem)
    if not raw.isdecimal() or int(raw) <= 0:
        raise ChunkedXmlValidationError(f"reference content {raw!r} is not a positive integer")
    return int(raw)


class _SentenceBuilder:
    """Mutable sentence accumulator so sibling references can attach late."""

    def __init__(self, text: str, references: list[int]):
        self.text = text
        self.references = references

    @cached_property
    def sentence(self) -> Sentence:
        """The finished sentence; read only once the whole tree is parsed."""
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
            heading = _text_only(child)
        elif child.tag == "sentence":
            refs = []
            for sub in child:
                _check_element(sub)
                if sub.tag != "reference":
                    raise ChunkedXmlValidationError(f"unexpected <{sub.tag}> inside <sentence>")
                refs.append(_parse_reference(sub))
            text = _sentence_text(child)
            if not text:
                raise ChunkedXmlValidationError("sentence has no text")
            builder = _SentenceBuilder(text, refs)
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


def _realize(node, doc_id: str) -> Section:
    """The section of a parsed node, each run of its sentences one paragraph."""
    section_id, heading, body = node
    items: list[Paragraph | Section] = []
    for is_sentence, group in groupby(body, key=lambda item: isinstance(item, _SentenceBuilder)):
        if is_sentence:
            sentences = tuple(builder.sentence for builder in group)
            text = " ".join(sentence.text for sentence in sentences)
            items.append(Paragraph(paragraph_id_for(doc_id, text), sentences))
        else:
            items.extend(_realize(child, doc_id) for child in group)
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
        nodes = [_parse_section(root, False, last_sentence, 1)]
        title = None
    else:
        _, title, nodes = _parse_section(root, True, last_sentence)
        if any(isinstance(item, _SentenceBuilder) for item in nodes):
            raise ChunkedXmlValidationError("sentence outside any identified section")
    title = title or None

    # The serialization holds no paragraph id, so any id hashes it alike.
    canonical = serialize_chunked_xml(
        DocumentModel(doc_id="", title=title, sections=tuple(_realize(n, "") for n in nodes)))
    doc_id = short_hash(canonical.decode("utf-8"))
    return DocumentModel(doc_id=doc_id, title=title,
                         sections=tuple(_realize(n, doc_id) for n in nodes))


def _emit_section(parent: ET.Element, section: Section) -> None:
    elem = ET.SubElement(parent, "section", {"ID": section.section_id})
    if section.heading:
        ET.SubElement(elem, "heading").text = section.heading
    for item in section.body:
        if isinstance(item, Section):
            _emit_section(elem, item)
        else:
            for sentence in item.sentences:
                _emit_sentence(elem, sentence)


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
