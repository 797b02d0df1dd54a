import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from scholarkg.document import ABBREVIATIONS, segment_sentences


def test_plain_sentences():
    assert segment_sentences("First one. Second one. Third!") == [
        "First one.", "Second one.", "Third!"]


def test_question_and_exclamation_marks():
    assert segment_sentences("Really? Yes! Good.") == ["Really?", "Yes!", "Good."]


@pytest.mark.parametrize("abbrev", ["et al.", "e.g.", "i.e.", "etc.", "vs.", "cf.", "Fig.", "Eq."])
def test_abbreviations_do_not_split(abbrev):
    text = f"Shown by {abbrev} The results hold."
    sentences = segment_sentences(text)
    # the abbreviation's period must not end a sentence on its own
    assert sentences[0].startswith("Shown by")
    assert abbrev.split()[-1].lower() in sentences[0].lower()


def test_single_letter_initials_do_not_split():
    assert segment_sentences("As shown by J. Smith. Next point.") == [
        "As shown by J. Smith.", "Next point."]


def test_decimal_numbers_do_not_split():
    assert segment_sentences("Accuracy was 3.14 overall. Good.") == [
        "Accuracy was 3.14 overall.", "Good."]


def test_lowercase_continuation_does_not_split():
    # a period followed by a lowercase word is not a boundary
    assert segment_sentences("see section 2. for details") == [
        "see section 2. for details"]


def test_terminator_inside_closing_quote():
    assert segment_sentences('He said "Stop." Then he left.') == [
        'He said "Stop."', "Then he left."]


def test_whitespace_is_collapsed_and_trimmed():
    assert segment_sentences("  One\n  two.   Three\tfour.  ") == [
        "One two.", "Three four."]


def test_empty_and_blank_input():
    assert segment_sentences("") == []
    assert segment_sentences("   \n ") == []


def test_no_terminator_yields_single_sentence():
    assert segment_sentences("no punctuation at all") == ["no punctuation at all"]


def test_boundary_before_digit():
    assert segment_sentences("Done. 42 items remained.") == [
        "Done.", "42 items remained."]


def reference_segment_sentences(text: str) -> list[str]:
    """The segmenter as first written: it reads the whole rest of the
    text and the whole prefix at every terminator, so its time grows
    with the square of the text's length."""
    boundaries = []
    for match in re.finditer(r"[.!?]+[\"')\]}”’]*", text):
        end = match.end()
        if end >= len(text) or not text[end].isspace():
            continue
        rest = text[end:].lstrip().lstrip("\"'([{“‘")
        if not (rest and (rest[0].isupper() or rest[0].isdigit())):
            continue
        prefix = text[:end].rstrip("\"')]}”’")
        if (any(prefix.lower().endswith(a) for a in ABBREVIATIONS)
                or re.search(r"(^|\s)[A-Za-z]\.$", prefix)):
            continue
        boundaries.append(end)
    sentences = []
    start = 0
    for end in [*boundaries, len(text)]:
        chunk = text[start:end].strip()
        if chunk:
            sentences.append(" ".join(chunk.split()))
        start = end
    return sentences


# Terminators, closers, openers, whitespace of several kinds, initials,
# pieces of abbreviations, and letters whose lowercase differs in length
# or is context-dependent (U+0130, the Kelvin sign, capital sigma).
_SEGMENT_PIECES = st.sampled_from([
    ".", "!", "?", "...", "\"", "'", ")", "]", "}", "”", "’", "(", "[", "{", "“", "‘",
    " ", "  ", "\n", "\t", "\xa0", "\x1c", "\u2028", "\x85",
    "A", "b", "J", "x", "Z", "7", "é", "İ", "\u212a", "Σ", "ß",
    "et al", "e.g", "I.E", "Fig", "etc", "approx", "Dr", "vs", "no", "al",
])


@settings(max_examples=800, deadline=None)
@given(st.lists(_SEGMENT_PIECES, max_size=40).map("".join) | st.text(max_size=60))
def test_segment_sentences_matches_the_whole_prefix_reference(text):
    assert segment_sentences(text) == reference_segment_sentences(text)


def test_segment_sentences_is_linear_in_block_length():
    # One 200,000-character block of short sentences, as plain text with
    # single-newline paragraph breaks arrives. The whole-prefix reference
    # does sixteen times the work here that it does on a quarter of it.
    sentence = "The model of J. Smith et al. reached 3.5 points, e.g. on Tab. 2 again.\n"
    text = sentence * (200_000 // len(sentence) + 1)
    assert len(text) >= 200_000
    started = time.perf_counter()
    sentences = segment_sentences(text)
    assert time.perf_counter() - started < 3.0
    assert len(sentences) == text.count("\n")
