"""Document ingestion: outline-driven model building, excerpt-to-paragraph
linking, and emission of the scholarly RDF shapes."""

from __future__ import annotations

import json
import operator
import re
from collections import namedtuple
from typing import Sequence

from .document import (
    MAX_SECTION_DEPTH,
    DocumentModel,
    Excerpt,
    Paragraph,
    Section,
    Sentence,
    collect_paragraphs,
    paragraph_id_for,
    segment_sentences,
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
    _Value,
    entity_iri,
)

__all__ = [
    "OutlineEntry",
    "HeadingOutline",
    "build_document_model",
    "read_outline_json",
    "ExcerptLink",
    "link_excerpts",
    "emit_rdf",
    "link_graph",
    "read_excerpts_jsonl",
]

_DATA_NS = NAMESPACES["askg-data"]


class OutlineEntry(_Value, namedtuple("_OutlineEntryFields", "level heading offset")):
    __slots__ = ()

    def __new__(cls, level: int, heading: str, offset: int):
        if level < 1:
            raise ValueError(f"outline level must be >= 1, got {level}")
        if offset < 0:
            raise ValueError("outline offset must be non-negative")
        return tuple.__new__(cls, (level, heading, offset))


class HeadingOutline(_Value, namedtuple("_HeadingOutlineFields", "entries")):
    """Document headings with their levels and character offsets, as a
    tuple of ``OutlineEntry``."""

    __slots__ = ()

    def __new__(cls, entries: tuple):
        offsets = [e.offset for e in entries]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError("outline offsets must be strictly increasing")
        return tuple.__new__(cls, (entries,))


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


def _paragraphs_from_span(text: str, doc_id: str) -> list[Paragraph]:
    paragraphs: list[Paragraph] = []
    for block in text.split("\n\n"):
        sentences = segment_sentences(block.strip())
        if sentences:
            paragraphs.append(Paragraph(paragraph_id_for(doc_id, " ".join(sentences)),
                                        tuple(map(Sentence, sentences))))
    return paragraphs


def build_document_model(outline: HeadingOutline, text: str) -> DocumentModel:
    """Assemble a document model from a heading outline and the full text.

    Every outline offset must lie inside ``text``. Section ids follow the
    outline levels with per-level counters ("1", "1.1", "1.2", "2", ...);
    a jump of more than one level is clamped to one below the current
    depth, and a section deeper than ``MAX_SECTION_DEPTH`` is refused.
    Text between consecutive headings belongs to the earlier section and
    is split into paragraphs at blank lines, then into sentences; a
    section's body is its own paragraphs, then its subsections. Text
    before the first heading lands in an implicit preamble section with
    id "0". The document id is ``short_hash(text)`` and the model has no
    title.
    """
    doc_id = short_hash(text)

    # (depth, section id, heading, paragraphs) per section, in document order
    records: list[tuple[int, str, str, list[Paragraph]]] = []
    preamble = text[: outline.entries[0].offset] if outline.entries else text
    if preamble.strip():
        records.append((1, "0", "Preamble", _paragraphs_from_span(preamble, doc_id)))

    counters: list[int] = []
    ends = [entry.offset for entry in outline.entries[1:]] + [len(text)]
    for entry, end in zip(outline.entries, ends):
        if entry.offset >= len(text):
            raise ValueError(f"outline offset {entry.offset} is outside the text")
        depth = min(entry.level, len(counters) + 1)
        if depth > MAX_SECTION_DEPTH:
            raise ValueError(f"sections are nested more than {MAX_SECTION_DEPTH} levels deep")
        del counters[depth:]
        if len(counters) < depth:
            counters.append(0)
        counters[-1] += 1
        span = text[entry.offset:end]
        # Drop the heading line itself from the section body text.
        if span.lstrip().startswith(entry.heading):
            span = span.lstrip()[len(entry.heading):]
        records.append((depth, ".".join(map(str, counters)), entry.heading,
                        _paragraphs_from_span(span, doc_id)))

    sections, _ = _nest(records, 0, 1)
    return DocumentModel(doc_id=doc_id, title=None, sections=sections)


def _nest(records: list[tuple[int, str, str, list[Paragraph]]], index: int,
          depth: int) -> tuple[tuple[Section, ...], int]:
    """The sections at ``depth`` from ``records[index]`` on, each holding the
    deeper records that follow it, and the index of the first record left."""
    sections = []
    while index < len(records) and records[index][0] == depth:
        _, section_id, heading, paragraphs = records[index]
        subsections, index = _nest(records, index + 1, depth + 1)
        sections.append(Section(section_id, heading, (*paragraphs, *subsections)))
    return tuple(sections), index


# ---------------------------------------------------------------------------
# Excerpt linking
# ---------------------------------------------------------------------------

class ExcerptLink(_Value, namedtuple("_ExcerptLinkFields", "excerpt_id paragraph_id similarity")):
    __slots__ = ()


def link_excerpts(paragraphs: Sequence[Paragraph], excerpts: Sequence[Excerpt],
                  embedder: Embedder, threshold: float = 0.7) -> list[ExcerptLink]:
    """Link each excerpt to its most similar paragraph.

    Paragraph texts are embedded in one ``embed_many`` call, in input
    order, and then the distinct excerpt sentences in another, each once,
    in the order they first occur. Similarity is the cosine between a
    sentence's vector and each paragraph's vector, scored in one
    ``cosine_similarities`` call, a row per distinct sentence over the
    paragraphs in id order; the argmax paragraph wins (ties break toward the
    lexicographically smaller paragraph id). Each excerpt takes its
    sentence's best paragraph and similarity, and only links at or above
    ``threshold`` are kept, in excerpt order. Without paragraphs or
    without excerpts nothing is embedded and nothing is linked.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if not paragraphs or not excerpts:
        return []
    vectors = embedder.embed_many([p.text for p in paragraphs])
    paragraph_ids, paragraph_vectors = zip(*sorted(
        zip((p.paragraph_id for p in paragraphs), vectors), key=operator.itemgetter(0)))
    sentences = list(dict.fromkeys(e.in_sentence for e in excerpts))
    best = {}
    for sentence, similarities in zip(sentences, cosine_similarities(
            embedder.embed_many(sentences), paragraph_vectors)):
        similarity = max(similarities)
        best[sentence] = paragraph_ids[similarities.index(similarity)], similarity
    links: list[ExcerptLink] = []
    for excerpt in excerpts:
        paragraph_id, similarity = best[excerpt.in_sentence]
        if similarity >= threshold:
            links.append(ExcerptLink(excerpt.excerpt_id, paragraph_id, similarity))
    return links


# ---------------------------------------------------------------------------
# RDF emission
# ---------------------------------------------------------------------------

def emit_rdf(model: DocumentModel) -> KnowledgeGraph:
    """The document's paragraph shapes: per paragraph, a typed node whose
    label is the paragraph text."""
    triples = []
    for paragraph in collect_paragraphs(model):
        node = Iri(_DATA_NS + paragraph.paragraph_id)
        triples += (Triple(node, RDF_TYPE, PARAGRAPH),
                    Triple(node, RDFS_LABEL, Literal(paragraph.text, language="en")))
    return KnowledgeGraph(triples)


def link_graph(graph: KnowledgeGraph, excerpts: Sequence[Excerpt], embedder: Embedder,
               threshold: float = 0.7) -> tuple[KnowledgeGraph, list[ExcerptLink]]:
    """Link excerpts to the paragraphs of ``graph``, read back from their
    labels, and add the excerpt shapes and link edges.

    Per excerpt: a typed node with label, source sentence, mentioned
    entity, and word-index range; per link, a ``hasExcerpt`` edge. A
    paragraph node without a label is skipped; one outside the askg-data
    namespace cannot carry a link edge and is refused. So is, before
    anything is embedded, an excerpt id given twice with two shapes, or an
    excerpt whose node is already the subject of a triple in ``graph`` that
    the excerpt's own shape does not hold, since the graph would merge two
    excerpts into one node; linking the same excerpt again adds nothing.
    """
    triples = list(graph)
    shapes: dict[Iri, tuple[Triple, ...]] = {}
    for excerpt in excerpts:
        node = Iri(_DATA_NS + excerpt.excerpt_id)
        shape = (
            Triple(node, RDF_TYPE, EXCERPT),
            Triple(node, RDFS_LABEL, Literal(excerpt.label, language="en")),
            Triple(node, IN_SENTENCE, Literal(excerpt.in_sentence, datatype=XSD_STRING)),
            Triple(node, MENTIONS, entity_iri(excerpt.mentions)),
            Triple(node, WORD_INDEX_FROM, Literal(str(excerpt.word_index_from), datatype=XSD_INT)),
            Triple(node, WORD_INDEX_TO, Literal(str(excerpt.word_index_to), datatype=XSD_INT)))
        if shapes.setdefault(node, shape) != shape:
            raise ValueError(f"excerpt {excerpt.excerpt_id!r} has two different records")
    clashing = {t.subject for t in triples if t.subject in shapes and t not in shapes[t.subject]}
    for excerpt in excerpts:
        if Iri(_DATA_NS + excerpt.excerpt_id) in clashing:
            raise ValueError(f"excerpt {excerpt.excerpt_id!r} is already in the graph "
                             "with other triples")
    paragraphs = []
    for node in graph.subjects_of_type(PARAGRAPH):
        label = graph.labels().get(node)
        if label is None:
            continue
        if not node.value.startswith(_DATA_NS):
            raise ValueError(f"cannot link paragraph node <{node.value}>: "
                             f"it is outside the askg-data namespace <{_DATA_NS}>")
        paragraphs.append(Paragraph(node.value[len(_DATA_NS):], (Sentence(label.lexical),)))
    links = link_excerpts(paragraphs, excerpts, embedder, threshold=threshold)
    for shape in shapes.values():
        triples += shape
    triples += (Triple(Iri(_DATA_NS + link.paragraph_id), HAS_EXCERPT,
                       Iri(_DATA_NS + link.excerpt_id)) for link in links)
    return KnowledgeGraph(triples), links


# ---------------------------------------------------------------------------
# Excerpt record input
# ---------------------------------------------------------------------------

_EXCERPT_FIELDS = {"excerpt_id": str, "label": str, "in_sentence": str, "mentions": str,
                   "word_index_from": int, "word_index_to": int}
_SURROGATE = re.compile("[\ud800-\udfff]")


def read_excerpts_jsonl(data: str | bytes) -> list[Excerpt]:
    """Read excerpt records from JSON lines.

    Each line is an object with ``excerpt_id``, ``label``, ``in_sentence``,
    ``mentions``, ``word_index_from`` and ``word_index_to``; the first four
    are JSON strings and the word indices JSON integers. A string holding a
    lone surrogate (a ``\\ud800``-``\\udfff`` escape not paired with
    another) is refused, since it can be neither embedded nor saved as
    UTF-8, and so is a blank ``in_sentence``, which cannot be embedded.
    Only ``"\\n"`` ends a line, since a JSON string may hold U+0085,
    U+2028 and U+2029 raw. Excerpt ids are unique within the file.
    A bad line raises ``ValueError`` naming it and the field, or, for a
    repeated id, the line that first held it.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    out: list[Excerpt] = []
    first_lines: dict[str, int] = {}
    for index, line in enumerate(map(str.strip, data.split("\n")), start=1):
        if not line:
            continue
        try:  # json.JSONDecodeError is a ValueError
            fields = _record_fields(json.loads(line), _EXCERPT_FIELDS)
            for name, value in fields.items():
                surrogate = type(value) is str and _SURROGATE.search(value)
                if surrogate:
                    raise ValueError(f"{name!r} holds a lone surrogate "
                                     f"U+{ord(surrogate[0]):04X}")
            if not fields["in_sentence"].strip():
                raise ValueError("'in_sentence' is blank")
            excerpt = Excerpt(**fields)
            first = first_lines.setdefault(excerpt.excerpt_id, index)
            if first != index:
                raise ValueError(f"excerpt_id {excerpt.excerpt_id!r} is already on line {first}")
        except ValueError as exc:
            raise ValueError(f"bad excerpt record on line {index}: {exc}") from exc
        out.append(excerpt)
    return out
