"""Hierarchical document model: documents, sections, paragraphs, sentences.

A document holds sections, a section holds paragraphs and subsections in
document order, and a paragraph holds sentences; a section's body refuses
any other item when it is built. Both document readers, the outline reader
in ``ingest`` and ``chunked_xml``, id each paragraph with
``paragraph_id_for``. All node types are immutable value classes (named
tuples under ``kg.terms``'s one base), so a constructed model is safe to
share across threads. A node
stores only what it is made of; a paragraph's text, for one, is derived
from its sentences. Other structural problems are reported by
``validate_model`` as data rather than raised eagerly, which lets callers
inspect a whole document in one pass. ``segment_sentences`` is the
rule-based splitter that turns plain prose into a paragraph's sentences.
"""

from __future__ import annotations

import hashlib
import re
from collections import namedtuple

from .kg.terms import _Value

__all__ = [
    "MAX_SECTION_DEPTH",
    "Sentence",
    "Paragraph",
    "Section",
    "DocumentModel",
    "Excerpt",
    "ValidationIssue",
    "validate_model",
    "collect_paragraphs",
    "short_hash",
    "paragraph_id_for",
    "document_id_of",
    "ABBREVIATIONS",
    "segment_sentences",
]

_SECTION_ID_RE = re.compile(r"^\d+(\.\d+)*$")

# The readers and the walks over a model recurse once per section level,
# so the readers refuse deeper nesting before it can exhaust the stack.
MAX_SECTION_DEPTH = 100


def short_hash(text: str, size: int = 7) -> str:
    """Deterministic hex digest used for node identifiers (2*size chars)."""
    return hashlib.blake2s(text.encode("utf-8"), digest_size=size).hexdigest()


def paragraph_id_for(doc_id: str, text: str) -> str:
    """Identifier of a paragraph derived from its document and its text."""
    return f"Paper-{doc_id}-Paragraph-{short_hash(text, 16)}"


def document_id_of(paragraph_id: str) -> str:
    """The document id inside an identifier built by ``paragraph_id_for``,
    or ``""`` for an identifier of another shape."""
    head, separator, _ = paragraph_id.rpartition("-Paragraph-")
    if not separator or not head.startswith("Paper-"):
        return ""
    return head[len("Paper-"):]


class Sentence(_Value, namedtuple("_SentenceFields", "text references", defaults=((),))):
    """A single sentence (``text``) with the numeric ``references`` cited
    from it."""

    __slots__ = ()


class Paragraph(_Value, namedtuple("_ParagraphFields", "paragraph_id sentences")):
    """A paragraph's identifier and its sentences, in order."""

    __slots__ = ()

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.sentences)


class Section(_Value, namedtuple("_SectionFields", "section_id heading body")):
    """A section with a dotted-decimal id such as ``"2"`` or ``"2.1"`` and
    a heading.

    ``body`` interleaves paragraphs and subsections in document order.
    """

    __slots__ = ()

    def __new__(cls, section_id: str, heading: str, body: tuple = ()):
        for item in body:
            if not isinstance(item, (Paragraph, Section)):
                raise TypeError("a section body holds paragraphs and sections, "
                                f"not {type(item).__name__}")
        return tuple.__new__(cls, (section_id, heading, body))


class DocumentModel(_Value, namedtuple("_DocumentModelFields", "doc_id title sections",
                                         defaults=((),))):
    """A document's id, its title or ``None``, and its top-level sections."""

    __slots__ = ()


class Excerpt(_Value, namedtuple("_ExcerptFields", "excerpt_id label in_sentence mentions "
                                   "word_index_from word_index_to")):
    """An extracted text span with its provenance and mentioned entity key."""

    __slots__ = ()

    def __new__(cls, excerpt_id: str, label: str, in_sentence: str, mentions: str,
                word_index_from: int, word_index_to: int):
        if word_index_from < 0 or word_index_to < 0:
            raise ValueError("word indices must be non-negative")
        if word_index_from > word_index_to:
            raise ValueError(
                f"word_index_from {word_index_from} exceeds "
                f"word_index_to {word_index_to}"
            )
        return tuple.__new__(cls, (excerpt_id, label, in_sentence, mentions,
                                   word_index_from, word_index_to))


class ValidationIssue(_Value, namedtuple("_ValidationIssueFields", "path message")):
    __slots__ = ()


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
        else:
            _validate_paragraph(item, item_path, issues)


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
    """Every paragraph of the model, in document order."""
    out: list[Paragraph] = []
    pending: list[Paragraph | Section] = list(reversed(model.sections))
    while pending:
        item = pending.pop()
        if isinstance(item, Paragraph):
            out.append(item)
        else:
            pending.extend(reversed(item.body))
    return out


# Tokens that end with a period without ending a sentence. Compared
# case-insensitively against the text immediately before a terminator.
ABBREVIATIONS = (
    "et al.",
    "fig.",
    "figs.",
    "eq.",
    "eqs.",
    "tab.",
    "sec.",
    "no.",
    "vol.",
    "e.g.",
    "i.e.",
    "etc.",
    "cf.",
    "vs.",
    "resp.",
    "approx.",
    "dr.",
    "prof.",
    "mr.",
    "ms.",
)

# A run of terminators and the closers after it; group 1 is the run.
_TERMINATOR = re.compile(r"([.!?]+)[\"')\]}”’]*")
# What follows a terminator: whitespace, openers, then the first
# character of the next sentence, if any.
_NEXT = re.compile(r"\s*[\"'(\[{“‘]*(.?)", re.DOTALL)
# A single-letter initial such as "J." at the end of the searched span.
_INITIAL = re.compile(r"(^|\s)[A-Za-z]\.$")
_LONGEST_ABBREVIATION = max(map(len, ABBREVIATIONS))


def _is_abbreviation(text: str, end: int) -> bool:
    """Whether ``text[:end]`` ends with an abbreviation or an initial.

    Only the last few characters are read: lowercasing maps each
    character on its own to one or more, so the tail's lowercase ends
    like the whole prefix's.
    """
    tail = text[max(0, end - _LONGEST_ABBREVIATION):end].lower()
    # Single-letter initials such as "J." never end a sentence; ``^``
    # matches only at the start of ``text``, not at the search's start.
    return tail.endswith(ABBREVIATIONS) or bool(_INITIAL.search(text, max(0, end - 3), end))


def _starts_new_sentence(text: str, end: int) -> bool:
    first = _NEXT.match(text, end).group(1)
    return bool(first) and (first.isupper() or first.isdigit())


def segment_sentences(text: str) -> list[str]:
    """Split plain text into sentences.

    A sentence boundary is a run of ``.``, ``!`` or ``?`` followed by
    whitespace and an uppercase letter or digit, unless the terminator
    belongs to a known abbreviation or a decimal number. The returned
    sentences are trimmed; concatenating them preserves every
    non-whitespace character of the input. Each terminator is judged
    from the few characters around it, so the time is linear in the
    length of the text.
    """
    boundaries: list[int] = []
    for match in _TERMINATOR.finditer(text):
        end = match.end()
        if end >= len(text) or not text[end].isspace():
            continue  # mid-token period, e.g. a decimal number or URL
        if not _starts_new_sentence(text, end):
            continue
        if _is_abbreviation(text, match.end(1)):
            continue
        boundaries.append(end)

    sentences: list[str] = []
    start = 0
    for end in boundaries:
        chunk = text[start:end].strip()
        if chunk:
            sentences.append(" ".join(chunk.split()))
        start = end
    tail = text[start:].strip()
    if tail:
        sentences.append(" ".join(tail.split()))
    return sentences
