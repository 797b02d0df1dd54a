"""Document ingestion: outline-driven model building, excerpt-to-paragraph
linking, and emission of the scholarly RDF shapes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .document import (
    DocumentModel,
    Excerpt,
    Paragraph,
    Section,
    Sentence,
    collect_paragraphs,
    short_hash,
)
from .embedding import Embedder, cosine_similarity
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
    "excerpt_link_triples",
    "excerpt_triples",
    "paragraph_triples",
    "read_excerpts_jsonl",
    "excerpts_from_graph",
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


def read_outline_json(data: str | bytes) -> HeadingOutline:
    """Load an outline from JSON: a list of {level, heading, offset} objects."""
    raw = json.loads(data)
    entries = tuple(
        OutlineEntry(level=int(item["level"]), heading=str(item["heading"]),
                     offset=int(item["offset"]))
        for item in raw
    )
    return HeadingOutline(entries)


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
        pid = f"Paper-{doc_id}-Paragraph-{short_hash(body_text, 16)}"
        paragraphs.append(Paragraph.from_sentences(pid, sentences))
    return paragraphs


def build_document_model(outline: HeadingOutline, text: str,
                         doc_id: str | None = None,
                         title: str | None = None) -> DocumentModel:
    """Assemble a document model from a heading outline and the full text.

    Every outline offset must lie inside ``text``. Section ids follow the
    outline levels with per-level counters ("1", "1.1", "1.2", "2", ...);
    a jump of more than one level is clamped to one below the current
    depth. Text between consecutive headings belongs to the earlier
    section and is split into paragraphs at blank lines, then into
    sentences. Text before the first heading lands in an implicit
    preamble section with id "0".
    """
    for entry in outline.entries:
        if entry.offset >= len(text):
            raise ValueError(f"outline offset {entry.offset} is outside the text")
    if doc_id is None:
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

    return DocumentModel(
        doc_id=doc_id,
        title=title,
        sections=tuple(b.build() for b in top),
    )


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

    Similarity is the cosine between the embedding of the excerpt's
    sentence and each paragraph's text; the argmax paragraph wins (ties
    break toward the lexicographically smaller paragraph id), but only
    links at or above ``threshold`` are kept.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError("threshold must lie in [0, 1]")
    if not paragraphs:
        return []
    paragraph_vectors = list(zip((p.paragraph_id for p in paragraphs),
                                 embedder.embed_many([p.text for p in paragraphs])))
    excerpt_vectors = embedder.embed_many([e.in_sentence for e in excerpts])
    links: list[ExcerptLink] = []
    for excerpt, vector in zip(excerpts, excerpt_vectors):
        best_id = None
        best_sim = -2.0
        for pid, pvec in paragraph_vectors:
            sim = cosine_similarity(vector, pvec)
            if sim > best_sim or (sim == best_sim and (best_id is None or pid < best_id)):
                best_id, best_sim = pid, sim
        if best_id is not None and best_sim >= threshold:
            links.append(ExcerptLink(excerpt.excerpt_id, best_id, best_sim))
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


def emit_rdf(model: DocumentModel, links: Iterable[ExcerptLink],
             excerpts: Iterable[Excerpt]) -> KnowledgeGraph:
    """Emit the paragraph and excerpt shapes of the scholarly graph.

    Per paragraph: a typed node whose label is the paragraph text plus one
    ``hasExcerpt`` edge per link; per excerpt: a typed node with label,
    source sentence, mentioned entity, and word-index range. Links must
    reference known paragraph and excerpt ids.
    """
    paragraphs = collect_paragraphs(model)
    triples = [t for paragraph in paragraphs for t in paragraph_triples(paragraph)]
    triples += excerpt_link_triples(excerpts, links, {p.paragraph_id for p in paragraphs})
    return KnowledgeGraph(triples)


# ---------------------------------------------------------------------------
# Excerpt record input
# ---------------------------------------------------------------------------

def read_excerpts_jsonl(data: str | bytes) -> list[Excerpt]:
    """Read excerpt records from JSON lines.

    Each line is an object with ``excerpt_id``, ``label``, ``in_sentence``,
    ``mentions``, ``word_index_from`` and ``word_index_to``.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    out: list[Excerpt] = []
    for index, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            out.append(Excerpt(
                excerpt_id=str(record["excerpt_id"]),
                label=str(record["label"]),
                in_sentence=str(record["in_sentence"]),
                mentions=str(record["mentions"]),
                word_index_from=int(record["word_index_from"]),
                word_index_to=int(record["word_index_to"]),
            ))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"bad excerpt record on line {index}: {exc}") from exc
    return out


def excerpts_from_graph(graph: KnowledgeGraph) -> list[Excerpt]:
    """Reconstruct excerpt records from their graph shape."""
    out: list[Excerpt] = []
    for node in sorted(graph.subjects_of_type(EXCERPT), key=lambda n: n.value):
        label = graph.label_of(node)

        def literal_of(predicate) -> str:
            matches = graph.match(subject=node, predicate=predicate)
            return matches[0].object.lexical if matches and isinstance(
                matches[0].object, Literal) else ""

        mention_edges = graph.match(subject=node, predicate=MENTIONS)
        mentions = mention_edges[0].object.entity_key() if mention_edges else ""
        frm = literal_of(WORD_INDEX_FROM)
        to = literal_of(WORD_INDEX_TO)
        out.append(Excerpt(
            excerpt_id=node.local_name(),
            label=label.lexical if label else "",
            in_sentence=literal_of(IN_SENTENCE),
            mentions=mentions,
            word_index_from=int(frm) if frm.isdigit() else 0,
            word_index_to=int(to) if to.isdigit() else 0,
        ))
    return out
