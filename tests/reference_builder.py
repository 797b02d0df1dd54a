"""The outline-driven model builder as it was before it nested sections
from flat records.

``build_document_model`` is kept verbatim, with its mutable section
builder, as the reference that the differential test in
``test_ingest.py`` compares ``scholarkg.ingest.build_document_model``
against: on every drawn outline both must give equal document models.
"""

from scholarkg.document import (DocumentModel, Paragraph, Section, Sentence, paragraph_id_for,
                                short_hash)
from scholarkg.ingest import HeadingOutline
from scholarkg.segmentation import segment_sentences


class _SectionBuilder:
    def __init__(self, section_id: str, heading: str):
        self.section_id = section_id
        self.heading = heading
        self.body: list = []

    def build(self) -> Section:
        return Section(
            section_id=self.section_id,
            heading=self.heading,
            body=tuple(b.build() if isinstance(b, _SectionBuilder) else b for b in self.body),
        )


def _paragraphs_from_span(text: str, doc_id: str) -> list[Paragraph]:
    paragraphs: list[Paragraph] = []
    for block in text.split("\n\n"):
        block = block.strip()
        if not block:
            continue
        sentences = tuple(Sentence(s) for s in segment_sentences(block))
        if not sentences:
            continue
        body_text = " ".join(s.text for s in sentences)
        paragraphs.append(Paragraph(paragraph_id_for(doc_id, body_text), sentences))
    return paragraphs


def build_document_model(outline: HeadingOutline, text: str) -> DocumentModel:
    """Assemble a document model from a heading outline and the full text.

    Every outline offset must lie inside ``text``. Section ids follow the
    outline levels with per-level counters ("1", "1.1", "1.2", "2", ...);
    a jump of more than one level is clamped to one below the current
    depth. Text between consecutive headings belongs to the earlier
    section and is split into paragraphs at blank lines, then into
    sentences. Text before the first heading lands in an implicit
    preamble section with id "0". The document id is ``short_hash(text)``
    and the model has no title.
    """
    for entry in outline.entries:
        if entry.offset >= len(text):
            raise ValueError(f"outline offset {entry.offset} is outside the text")
    doc_id = short_hash(text)

    top: list[_SectionBuilder] = []
    stack: list[_SectionBuilder] = []
    counters: list[int] = []

    preamble = text[: outline.entries[0].offset] if outline.entries else text
    if preamble.strip():
        builder = _SectionBuilder("0", "Preamble")
        builder.body.extend(_paragraphs_from_span(preamble, doc_id))
        top.append(builder)

    for index, entry in enumerate(outline.entries):
        depth = min(entry.level, len(stack) + 1)
        del stack[depth - 1:]
        del counters[depth:]
        while len(counters) < depth:
            counters.append(0)
        counters[depth - 1] += 1
        section_id = ".".join(str(c) for c in counters[:depth])
        builder = _SectionBuilder(section_id, entry.heading)
        if stack:
            stack[-1].body.append(builder)
        else:
            top.append(builder)
        stack.append(builder)

        start = entry.offset
        span = text[start: outline.entries[index + 1].offset] if index + 1 < len(
            outline.entries) else text[start:]
        # Drop the heading line itself from the section body text.
        if span.lstrip().startswith(entry.heading):
            span = span.lstrip()[len(entry.heading):]
        builder.body.extend(_paragraphs_from_span(span, doc_id))

    return DocumentModel(doc_id=doc_id, title=None,
                         sections=tuple(b.build() for b in top))

