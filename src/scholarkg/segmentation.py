"""Rule-based sentence segmentation for scholarly prose."""

from __future__ import annotations

import re

__all__ = ["segment_sentences", "ABBREVIATIONS"]

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
