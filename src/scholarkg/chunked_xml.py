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
outline reader's do. As it validates, the reader writes the model's
canonical tree: each section's heading first, then its sentences, each
holding its references nested, and subsections in document order. The
document id is the hash of that tree's serialization, so reading the
canonical tree of a model that came out of ``parse_chunked_xml`` gives
that model again. A ``str`` is read as the text it holds, whatever
encoding its XML declaration names.
"""

from __future__ import annotations

from itertools import groupby
from operator import attrgetter

from .document import (MAX_SECTION_DEPTH, DocumentModel, Paragraph, Section, Sentence,
                       paragraph_id_for, short_hash)

__all__ = [
    "ChunkedXmlError",
    "ChunkedXmlParseError",
    "ChunkedXmlValidationError",
    "parse_chunked_xml",
]

_ALLOWED_ELEMENTS = {"section", "heading", "sentence", "reference"}


class ChunkedXmlError(Exception):
    """Base error for the chunked XML reader."""


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


def _read_section(elem: ET.Element, canonical: ET.Element, last: ET.Element | None,
                  depth: int) -> ET.Element | None:
    """Validate the children of a section element at section level ``depth``
    (the ID-less root container is level 0) and write their canonical form
    into ``canonical``. ``last`` is the canonical element of the sentence
    before the section in document order; the one after it is returned."""
    import xml.etree.ElementTree as ET
    heading: str | None = None
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
            if heading:  # the canonical heading comes first
                canonical.insert(0, ET.Element("heading"))
                canonical[0].text = heading
        elif child.tag == "sentence":
            last = ET.SubElement(canonical, "sentence")
            for sub in child:
                _check_element(sub)
                if sub.tag != "reference":
                    raise ChunkedXmlValidationError(f"unexpected <{sub.tag}> inside <sentence>")
                ET.SubElement(last, "reference").text = str(_parse_reference(sub))
            last.text = _sentence_text(child)
            if not last.text:
                raise ChunkedXmlValidationError("sentence has no text")
        elif child.tag == "reference":
            # A sibling reference cites from the nearest preceding sentence
            # in document order, even across a section boundary.
            if last is None:
                raise ChunkedXmlValidationError("reference element has no preceding sentence")
            ET.SubElement(last, "reference").text = str(_parse_reference(child))
        else:  # nested section
            if depth >= MAX_SECTION_DEPTH:
                raise ChunkedXmlValidationError(
                    f"sections are nested more than {MAX_SECTION_DEPTH} levels deep")
            section_id = child.get("ID")
            if section_id is None:
                raise ChunkedXmlValidationError("section element is missing its ID attribute")
            last = _read_section(child, ET.SubElement(canonical, "section", {"ID": section_id}),
                                 last, depth + 1)
    return last


def _realize(elem: ET.Element, doc_id: str) -> tuple[str, tuple[Paragraph | Section, ...]]:
    """The heading and body of a canonical section element, each run of its
    sentences one paragraph."""
    heading = ""
    items: list[Paragraph | Section] = []
    for tag, group in groupby(elem, key=attrgetter("tag")):
        if tag == "heading":
            heading = next(group).text
        elif tag == "sentence":
            sentences = tuple(Sentence(s.text, tuple(int(r.text) for r in s)) for s in group)
            text = " ".join(sentence.text for sentence in sentences)
            items.append(Paragraph(paragraph_id_for(doc_id, text), sentences))
        else:
            items.extend(Section(s.get("ID"), *_realize(s, doc_id)) for s in group)
    return heading, tuple(items)


def parse_chunked_xml(data: bytes | str) -> DocumentModel:
    """Parse chunked XML into a document model.

    The document id is the hash of the model's canonical serialization, so
    re-parsing a serialized model reproduces the same id.
    """
    import xml.etree.ElementTree as ET  # here, so only a parse loads it
    if isinstance(data, str):
        try:
            data.encode("utf-8")
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

    tree = ET.Element("section")
    section_id = root.get("ID")
    if section_id is not None:
        # A root carrying an ID is itself a section rather than a container.
        _read_section(root, ET.SubElement(tree, "section", {"ID": section_id}), None, 1)
    else:
        _read_section(root, tree, None, 0)
        if tree.find("sentence") is not None:
            raise ChunkedXmlValidationError("sentence outside any identified section")
    ET.indent(tree, space="  ")
    doc_id = short_hash(ET.tostring(tree, encoding="unicode"))
    title, sections = _realize(tree, doc_id)
    return DocumentModel(doc_id=doc_id, title=title or None, sections=sections)
