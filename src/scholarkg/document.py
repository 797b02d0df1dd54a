"""Hierarchical document model: documents, sections, paragraphs, sentences.

All node types are frozen dataclasses, so a constructed model is immutable
and safe to share across threads. Structural problems are reported by
``validate_model`` as data rather than raised eagerly, which lets callers
inspect a whole document in one pass.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

__all__ = [
    "Sentence",
    "Paragraph",
    "Section",
    "DocumentModel",
    "Excerpt",
    "ValidationIssue",
    "validate_model",
    "collect_paragraphs",
    "word_count",
    "short_hash",
    "paragraph_id_for",
]

_SECTION_ID_RE = re.compile(r"^\d+(\.\d+)*$")


def short_hash(text: str, size: int = 7) -> str:
    """Deterministic hex digest used for node identifiers (2*size chars)."""
    return hashlib.blake2s(text.encode("utf-8"), digest_size=size).hexdigest()


def paragraph_id_for(doc_id: str, text: str) -> str:
    """Identifier of a paragraph derived from its document and its text."""
    return f"Paper-{doc_id}-Paragraph-{short_hash(text, 16)}"


def word_count(text: str) -> int:
    """Number of whitespace-delimited tokens in ``text``."""
    return len(text.split())


@dataclass(frozen=True)
class Sentence:
    """A single sentence with the numeric references cited from it."""

    text: str
    references: tuple[int, ...] = ()


@dataclass(frozen=True)
class Paragraph:
    paragraph_id: str
    sentences: tuple[Sentence, ...]
    word_count: int

    @classmethod
    def from_sentences(cls, paragraph_id: str, sentences: tuple[Sentence, ...]) -> Paragraph:
        total = sum(word_count(s.text) for s in sentences)
        return cls(paragraph_id=paragraph_id, sentences=sentences, word_count=total)

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.sentences)


@dataclass(frozen=True)
class Section:
    """A section with a dotted-decimal id such as ``"2"`` or ``"2.1"``.

    ``body`` preserves document order and may interleave paragraphs, loose
    sentences (as produced by the chunked XML interchange format, which has
    no paragraph element) and nested subsections.
    """

    section_id: str
    heading: str
    body: tuple["Section | Paragraph | Sentence", ...] = ()

    def subsections(self) -> tuple["Section", ...]:
        return tuple(item for item in self.body if isinstance(item, Section))

    def sentences(self) -> tuple[Sentence, ...]:
        """Direct sentences of this section, including those in paragraphs."""
        out: list[Sentence] = []
        for item in self.body:
            if isinstance(item, Sentence):
                out.append(item)
            elif isinstance(item, Paragraph):
                out.extend(item.sentences)
        return tuple(out)


@dataclass(frozen=True)
class DocumentModel:
    doc_id: str
    title: str | None
    sections: tuple[Section, ...] = ()

    def iter_sections(self):
        """Depth-first walk over all sections in document order."""
        stack = list(reversed(self.sections))
        while stack:
            section = stack.pop()
            yield section
            stack.extend(reversed(section.subsections()))

    def iter_sentences(self):
        for section in self.iter_sections():
            yield from section.sentences()


@dataclass(frozen=True)
class Excerpt:
    """A extracted text span with its provenance and mentioned entity key."""

    excerpt_id: str
    label: str
    in_sentence: str
    mentions: str
    word_index_from: int
    word_index_to: int

    def __post_init__(self) -> None:
        if self.word_index_from < 0 or self.word_index_to < 0:
            raise ValueError("word indices must be non-negative")
        if self.word_index_from > self.word_index_to:
            raise ValueError(
                f"word_index_from {self.word_index_from} exceeds "
                f"word_index_to {self.word_index_to}"
            )


@dataclass(frozen=True)
class ValidationIssue:
    path: str
    message: str


def _validate_section(section: Section, path: str, parent_id: str | None,
                      seen_ids: dict[str, str], issues: list[ValidationIssue]) -> None:
    sid = section.section_id
    if not _SECTION_ID_RE.match(sid):
        issues.append(ValidationIssue(path, f"section id {sid!r} is not dotted-decimal"))
    elif sid in seen_ids:
        issues.append(ValidationIssue(path, f"duplicate section id {sid!r} (also at {seen_ids[sid]})"))
    else:
        seen_ids[sid] = path
        if parent_id is None:
            if "." in sid:
                issues.append(ValidationIssue(
                    path, f"top-level section id {sid!r} must be a single component"))
        elif not (sid.startswith(parent_id + ".") and "." not in sid[len(parent_id) + 1:]):
            issues.append(ValidationIssue(
                path, f"section id {sid!r} does not extend parent id {parent_id!r} by one component"))
    if not section.heading.strip():
        issues.append(ValidationIssue(path, "section heading is empty"))
    for i, item in enumerate(section.body):
        item_path = f"{path}/body[{i}]"
        if isinstance(item, Section):
            _validate_section(item, item_path, sid, seen_ids, issues)
        elif isinstance(item, Paragraph):
            _validate_paragraph(item, item_path, issues)
        else:
            _validate_sentence(item, item_path, issues)


def _validate_sentence(sentence: Sentence, path: str, issues: list[ValidationIssue]) -> None:
    if not sentence.text.strip():
        issues.append(ValidationIssue(path, "sentence text is empty"))
    for ref in sentence.references:
        if not isinstance(ref, int) or ref <= 0:
            issues.append(ValidationIssue(path, f"reference {ref!r} is not a positive integer"))


def _validate_paragraph(paragraph: Paragraph, path: str, issues: list[ValidationIssue]) -> None:
    if not paragraph.sentences:
        issues.append(ValidationIssue(path, "paragraph has no sentences"))
    for i, sentence in enumerate(paragraph.sentences):
        _validate_sentence(sentence, f"{path}/sentence[{i}]", issues)
    expected = sum(word_count(s.text) for s in paragraph.sentences)
    if paragraph.word_count != expected:
        issues.append(ValidationIssue(
            path, f"paragraph word_count {paragraph.word_count} != sum of sentence counts {expected}"))


def validate_model(model: DocumentModel) -> list[ValidationIssue]:
    """Check every structural invariant of the model.

    Returns an empty list when the model is valid; otherwise one issue per
    violation, each carrying the path of the offending node.
    """
    issues: list[ValidationIssue] = []
    seen_ids: dict[str, str] = {}
    for i, section in enumerate(model.sections):
        _validate_section(section, f"section[{i}]", None, seen_ids, issues)
    return issues


def collect_paragraphs(model: DocumentModel) -> list[Paragraph]:
    """Flatten the model into a document-ordered list of paragraphs.

    Runs of consecutive loose sentences inside a section body (the chunked
    XML interchange format carries no paragraph element) are grouped into
    implicit paragraphs whose ids are derived from the document id and the
    paragraph text hash. Every sentence of the model lands in exactly one
    returned paragraph.
    """
    out: list[Paragraph] = []

    def emit_run(run: list[Sentence]) -> None:
        if not run:
            return
        text = " ".join(s.text for s in run)
        out.append(Paragraph.from_sentences(paragraph_id_for(model.doc_id, text), tuple(run)))

    def walk(section: Section) -> None:
        run: list[Sentence] = []
        for item in section.body:
            if isinstance(item, Sentence):
                run.append(item)
                continue
            emit_run(run)
            run = []
            if isinstance(item, Paragraph):
                out.append(item)
            else:
                walk(item)
        emit_run(run)

    for section in model.sections:
        walk(section)
    return out
