"""Document ingestion: outline-driven model building, excerpt-to-paragraph
linking, and emission of the scholarly RDF shapes."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .document import (
    DocumentModel,
    Excerpt,
    Paragraph,
    Section,
    Sentence,
    collect_paragraphs,
    paragraph_id_for,
    short_hash,
)
from .embedding import Embedder, cosine_similarities
from .kg.graph import KnowledgeGraph
from .kg.terms import (
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    Iri,
    Literal,
    MENTIONS,
    NAMESPACES,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    Triple,
    WORD_INDEX_FROM,
    WORD_INDEX_TO,
    XSD_INT,
    XSD_STRING,
    entity_iri,
)
from .segmentation import segment_sentences

__all__ = [
    "OutlineEntry",
    "HeadingOutline",
    "build_document_model",
    "read_outline_json",
    "ExcerptLink",
    "link_excerpts",
    "UnknownLinkTargetError",
    "emit_rdf",
    "link_graph",
    "excerpt_link_triples",
    "excerpt_triples",
    "paragraph_triples",
    "read_excerpts_jsonl",
]

_DATA_NS = NAMESPACES["askg-data"]


@dataclass(frozen=True)
class OutlineEntry:
    level: int
    heading: str
    offset: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError(f"outline level must be >= 1, got {self.level}")
        if self.offset < 0:
            raise ValueError("outline offset must be non-negative")


@dataclass(frozen=True)
class HeadingOutline:
    """Document headings with their levels and character offsets."""

    entries: tuple[OutlineEntry, ...]

    def __post_init__(self) -> None:
        offsets = [e.offset for e in self.entries]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("outline offsets must be strictly increasing")


_KIND_NAMES = {int: "an integer", str: "a string"}


def _record_fields(record, fields: dict[str, type]) -> dict:
    """The named fields of one parsed JSON record. A ``str`` field must be
    a JSON string; an ``int`` field must be a JSON integer, not a bool or a
    float."""
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    values = {}
    for name, kind in fields.items():
        if name not in record:
            raise ValueError(f"missing field {name!r}")
        value = record[name]
        if type(value) is not kind:
            raise ValueError(f"{name!r} must be {_KIND_NAMES[kind]}, got {value!r}")
        values[name] = value
    return values


_OUTLINE_FIELDS = {"level": int, "heading": str, "offset": int}


def read_outline_json(data: str | bytes) -> HeadingOutline:
    """Load an outline from JSON: a list of {level, heading, offset} objects.

    A bad record raises ``ValueError`` naming its index and the field.
    """
    raw = json.loads(data)
    if not isinstance(raw, list):
        raise ValueError("outline must be a JSON list of records")
    entries = []
    for index, item in enumerate(raw):
        try:
            entries.append(OutlineEntry(**_record_fields(item, _OUTLINE_FIELDS)))
        except ValueError as exc:
            raise ValueError(f"outline record {index}: {exc}") from exc
    return HeadingOutline(tuple(entries))


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


# ---------------------------------------------------------------------------
# Excerpt linking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExcerptLink:
    excerpt_id: str
    paragraph_id: str
    similarity: float


def link_excerpts(paragraphs: Sequence[Paragraph], excerpts: Sequence[Excerpt],
                  embedder: Embedder, threshold: float = 0.7) -> list[ExcerptLink]:
    """Link each excerpt to its most similar paragraph.

    Paragraph texts and then excerpt sentences are embedded in one
    ``embed_many`` call each, in input order. Similarity is the cosine
    between an excerpt's sentence vector and each paragraph's vector,
    scored in one ``cosine_similarities`` call per excerpt over the
    paragraphs in id order; the argmax paragraph wins (ties break toward
    the lexicographically smaller paragraph id), but only links at or
    above ``threshold`` are kept.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if not paragraphs:
        return []
    ranked = sorted(zip((p.paragraph_id for p in paragraphs),
                        embedder.embed_many([p.text for p in paragraphs])),
                    key=operator.itemgetter(0))
    paragraph_ids = [pid for pid, _ in ranked]
    paragraph_vectors = [vector for _, vector in ranked]
    excerpt_vectors = embedder.embed_many([e.in_sentence for e in excerpts])
    links: list[ExcerptLink] = []
    for excerpt, vector in zip(excerpts, excerpt_vectors):
        similarities = cosine_similarities(vector, paragraph_vectors)
        best = max(similarities)
        if best >= threshold:
            links.append(ExcerptLink(excerpt.excerpt_id,
                                     paragraph_ids[similarities.index(best)], best))
    return links


# ---------------------------------------------------------------------------
# RDF emission
# ---------------------------------------------------------------------------

class UnknownLinkTargetError(ValueError):
    def __init__(self, excerpt_id: str, paragraph_id: str, missing: str):
        super().__init__(
            f"link {excerpt_id!r} -> {paragraph_id!r} references unknown {missing}")
        self.excerpt_id = excerpt_id
        self.paragraph_id = paragraph_id


def paragraph_triples(paragraph: Paragraph) -> list[Triple]:
    node = Iri(_DATA_NS + paragraph.paragraph_id)
    return [
        Triple(node, RDF_TYPE, PARAGRAPH),
        Triple(node, RDFS_LABEL, Literal(paragraph.text, language="en")),
    ]


def excerpt_triples(excerpt: Excerpt) -> list[Triple]:
    node = Iri(_DATA_NS + excerpt.excerpt_id)
    return [
        Triple(node, RDF_TYPE, EXCERPT),
        Triple(node, RDFS_LABEL, Literal(excerpt.label, language="en")),
        Triple(node, IN_SENTENCE, Literal(excerpt.in_sentence, datatype=XSD_STRING)),
        Triple(node, MENTIONS, entity_iri(excerpt.mentions)),
        Triple(node, WORD_INDEX_FROM, Literal(str(excerpt.word_index_from), datatype=XSD_INT)),
        Triple(node, WORD_INDEX_TO, Literal(str(excerpt.word_index_to), datatype=XSD_INT)),
    ]


def excerpt_link_triples(excerpts: Iterable[Excerpt], links: Iterable[ExcerptLink],
                         paragraph_ids: Collection[str]) -> list[Triple]:
    """Triples of each excerpt node plus one ``hasExcerpt`` edge per link.

    Links must reference one of ``paragraph_ids`` and one of ``excerpts``.
    """
    triples: list[Triple] = []
    excerpt_ids: set[str] = set()
    for excerpt in excerpts:
        excerpt_ids.add(excerpt.excerpt_id)
        triples.extend(excerpt_triples(excerpt))

    for link in links:
        if link.paragraph_id not in paragraph_ids:
            raise UnknownLinkTargetError(link.excerpt_id, link.paragraph_id, "paragraph")
        if link.excerpt_id not in excerpt_ids:
            raise UnknownLinkTargetError(link.excerpt_id, link.paragraph_id, "excerpt")
        triples.append(Triple(
            Iri(_DATA_NS + link.paragraph_id), HAS_EXCERPT, Iri(_DATA_NS + link.excerpt_id)))
    return triples


def emit_rdf(model: DocumentModel) -> KnowledgeGraph:
    """The document's paragraph shapes: per paragraph, a typed node whose
    label is the paragraph text."""
    return KnowledgeGraph(t for paragraph in collect_paragraphs(model)
                          for t in paragraph_triples(paragraph))


def link_graph(graph: KnowledgeGraph, excerpts: Sequence[Excerpt], embedder: Embedder,
               threshold: float = 0.7) -> tuple[KnowledgeGraph, list[ExcerptLink]]:
    """Link excerpts to the paragraphs of ``graph``, read back from their
    labels, and add the excerpt shapes and link edges.

    Per excerpt: a typed node with label, source sentence, mentioned
    entity, and word-index range; per link, a ``hasExcerpt`` edge. A
    paragraph node without a label is skipped; one outside the askg-data
    namespace cannot carry a link edge and is refused.
    """
    paragraphs = []
    for node in graph.subjects_of_type(PARAGRAPH):
        label = graph.label_of(node)
        if label is None:
            continue
        if not node.value.startswith(_DATA_NS):
            raise ValueError(f"cannot link paragraph node <{node.value}>: "
                             f"it is outside the askg-data namespace <{_DATA_NS}>")
        paragraphs.append(Paragraph(node.value[len(_DATA_NS):], (Sentence(label.lexical),)))
    links = link_excerpts(paragraphs, excerpts, embedder, threshold=threshold)
    paragraph_ids = {p.paragraph_id for p in paragraphs}
    linked = KnowledgeGraph([*graph, *excerpt_link_triples(excerpts, links, paragraph_ids)])
    return linked, links


# ---------------------------------------------------------------------------
# Excerpt record input
# ---------------------------------------------------------------------------

_EXCERPT_FIELDS = {"excerpt_id": str, "label": str, "in_sentence": str, "mentions": str,
                   "word_index_from": int, "word_index_to": int}


def read_excerpts_jsonl(data: str | bytes) -> list[Excerpt]:
    """Read excerpt records from JSON lines.

    Each line is an object with ``excerpt_id``, ``label``, ``in_sentence``,
    ``mentions``, ``word_index_from`` and ``word_index_to``; the first four
    are JSON strings and the word indices JSON integers. A bad line raises
    ``ValueError`` naming it and the field.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    out: list[Excerpt] = []
    for index, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:  # json.JSONDecodeError is a ValueError
            out.append(Excerpt(**_record_fields(json.loads(line), _EXCERPT_FIELDS)))
        except ValueError as exc:
            raise ValueError(f"bad excerpt record on line {index}: {exc}") from exc
    return out
