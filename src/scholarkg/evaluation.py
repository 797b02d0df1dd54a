"""Answer comparison metrics.

The graph-backed pipeline and the sliding-window baseline answer the
same questions; these metrics quantify how close the two answers are,
per question (entity overlap, Jaccard distance, embedding similarity)
and across raters (Cronbach's alpha for rating consistency).
"""

from __future__ import annotations

import csv
import json
import math
import re
import statistics
from collections import namedtuple
from typing import Iterable

from .embedding import Embedder, cosine_similarities
from .kg.terms import _Value, entity_phrase, phrase_haystack

__all__ = [
    "extract_entity_set",
    "entity_overlap",
    "embedding_distance",
    "cronbach_alpha",
    "QuestionComparison",
    "EvaluationReport",
    "build_report",
    "read_answers_json",
    "read_ratings_csv",
]

_CAPITALIZED_RUN = re.compile(
    r"[A-Z][A-Za-z0-9-]*(?:\s+(?:&\s+)?[A-Z][A-Za-z0-9-]*)*")
_FUNCTION_WORDS = frozenset("""
    a an and are as at be but by for from how if in is it its of on or
    our that the these this those to we what when where which who why with
""".split())


def extract_entity_set(text: str, known_keys: Iterable[str] = ()) -> set[str]:
    """Entity names found in an answer text.

    Heuristic extraction for answers whose entities were not recorded:
    runs of capitalized words (an interior ``&`` keeps a run together)
    become candidate names, with leading and trailing function words
    dropped; a lone function word is not a name. Each known entity key,
    read with underscores as spaces, is added when it occurs in the
    text regardless of capitalization. Names are normalized to
    lowercase with single spaces.
    """
    names: set[str] = set()
    for match in _CAPITALIZED_RUN.finditer(text):
        tokens = match.group().split()
        while tokens and tokens[0].lower() in _FUNCTION_WORDS:
            tokens.pop(0)
        while tokens and tokens[-1].lower() in _FUNCTION_WORDS:
            tokens.pop()
        if tokens:
            names.add(" ".join(t.lower() for t in tokens))
    if known_keys:
        haystack = phrase_haystack(text)
        for key in known_keys:
            phrase = entity_phrase(key).strip()
            if phrase and f" {phrase} " in haystack:
                names.add(phrase)
    return names


def entity_overlap(a: set[str], b: set[str]) -> tuple[float, float]:
    """Overlap ratio and Jaccard distance between two entity sets.

    The overlap ratio is the intersection size over the larger set's
    size; the Jaccard distance is one minus intersection over union.
    Comparing two empty sets is an error, while one empty side gives
    (0.0, 1.0).
    """
    if not a and not b:
        raise ValueError("entity overlap of two empty sets is undefined")
    if not a or not b:
        return (0.0, 1.0)
    intersection = len(a & b)
    ratio = intersection / max(len(a), len(b))
    distance = 1.0 - intersection / len(a | b)
    return (ratio, distance)


def embedding_distance(text_a: str, text_b: str, embedder: Embedder) -> float:
    """Cosine similarity between the embeddings of two texts.

    Both texts are embedded in one batch, so identical texts score 1.0
    and unrelated texts score near 0.0. The embedder refuses an empty
    text with ``ValueError``.
    """
    u, v = embedder.embed_many([text_a, text_b])
    return cosine_similarities((u,), (v,))[0][0]


def cronbach_alpha(ratings: list[list[float]]) -> float:
    """Internal consistency of ratings; rows are raters, columns items.

    Every rating must be finite. Uses sample variances. When every
    variance is zero the raters are in perfect agreement and the alpha
    is taken as 1.0; a zero total variance with varying items leaves the
    formula undefined. Ratings so large that a variance, a rater's total
    or the alpha overflows a float are refused.
    """
    if len(ratings) < 2:
        raise ValueError("at least two raters are required")
    k = len(ratings[0])
    if k < 2:
        raise ValueError("at least two items are required")
    if any(len(row) != k for row in ratings):
        raise ValueError("every rater must rate every item")
    if not all(math.isfinite(x) for row in ratings for x in row):
        raise ValueError("every rating must be a finite number")

    too_large = "ratings are too large: their variance overflows a float"
    try:
        item_variances = [
            statistics.variance([row[j] for row in ratings]) for j in range(k)
        ]
        total_variance = statistics.variance([sum(row) for row in ratings])
    except OverflowError:
        raise ValueError(too_large) from None
    if total_variance == 0.0:
        if all(v == 0.0 for v in item_variances):
            return 1.0
        raise ValueError("alpha undefined: total variance is zero")
    alpha = (k / (k - 1)) * (1.0 - sum(item_variances) / total_variance)
    if not (math.isfinite(alpha) and math.isfinite(total_variance)):
        raise ValueError(too_large)
    return alpha


class QuestionComparison(_Value, namedtuple(
        "_QuestionComparisonFields",
        "label graph_entities baseline_entities graph_answer baseline_answer")):
    """One question's answers from both pipelines, ready to score: its
    label, each pipeline's entity set (a frozenset) and each answer."""

    __slots__ = ()


class EvaluationReport(_Value, namedtuple("_EvaluationReportFields",
                                           "overlap_rows distance_rows")):
    """Per-question metric rows, identical in the text and JSON forms:
    ``(label, ratio, jaccard)`` overlap rows and ``(label, distance)``
    distance rows."""

    __slots__ = ()

    def to_text(self) -> str:
        lines = ["Question | Overlap Entity Ratio | Jaccard Distance"]
        for label, ratio, distance in self.overlap_rows:
            lines.append(f"{label} | {ratio:.4f} | {distance:.4f}")
        lines.append("")
        lines.append("Question | Embedding Distance")
        for label, distance in self.distance_rows:
            lines.append(f"{label} | {distance:.4f}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "entity_overlap": [
                {"question": label, "overlap_entity_ratio": ratio,
                 "jaccard_distance": distance}
                for label, ratio, distance in self.overlap_rows
            ],
            "embedding_distance": [
                {"question": label, "embedding_distance": distance}
                for label, distance in self.distance_rows
            ],
        }


def build_report(comparisons: list[QuestionComparison],
                 embedder: Embedder) -> EvaluationReport:
    """Score every question; values are rounded to four decimals once."""
    overlap_rows = []
    distance_rows = []
    for c in comparisons:
        ratio, jaccard = entity_overlap(c.graph_entities, c.baseline_entities)
        overlap_rows.append((c.label, round(ratio, 4), round(jaccard, 4)))
        distance_rows.append((c.label, round(
            embedding_distance(c.graph_answer, c.baseline_answer, embedder), 4)))
    return EvaluationReport(overlap_rows=tuple(overlap_rows),
                            distance_rows=tuple(distance_rows))


def _record_text(record: dict, index: int, name: str) -> str:
    value = record.get(name)
    if not isinstance(value, str):
        raise ValueError(f"answers record {index}: {name!r} must be a string")
    return value


def _record_keys(record: dict, index: int, name: str) -> list[str]:
    value = record.get(name, [])
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"answers record {index}: {name!r} must be a list of strings")
    return value


def read_answers_json(text: str) -> list[QuestionComparison]:
    """Comparisons from the JSON list of answer records.

    Each record needs string ``label``, ``graph_answer`` and
    ``baseline_answer``. Records may carry ``graph_entities`` and
    ``baseline_entities``; otherwise they are extracted from the answer
    texts, which also find the optional ``known_entities`` keys. Those
    three are lists of strings.
    """
    records = json.loads(text)
    if not isinstance(records, list):
        raise ValueError("answers must be a JSON list of records")
    comparisons = []
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ValueError(f"answers record {index} is not a JSON object")
        label, graph_answer, baseline_answer = (
            _record_text(record, index, name)
            for name in ("label", "graph_answer", "baseline_answer"))
        known = _record_keys(record, index, "known_entities")
        graph_entities, baseline_entities = (
            frozenset(_record_keys(record, index, name) if name in record
                      else extract_entity_set(answer, known))
            for name, answer in (("graph_entities", graph_answer),
                                 ("baseline_entities", baseline_answer)))
        comparisons.append(QuestionComparison(label, graph_entities, baseline_entities,
                                              graph_answer, baseline_answer))
    return comparisons


def _number(cell: str) -> float | None:
    try:  # float() alone reads "1_0" as 10, and "\u0661" (ARABIC-INDIC ONE) as 1
        return None if "_" in cell or not cell.isascii() else float(cell)
    except ValueError:
        return None


def read_ratings_csv(lines: Iterable[str]) -> list[list[float]]:
    """Ratings, rows raters and columns items, from the lines of a CSV file
    opened with ``newline=""``; a first row holding no number is a header."""
    rows = [row for row in csv.reader(lines) if row]
    ratings: list[list[float]] = []
    for index, row in enumerate(rows):
        cells = [_number(cell) for cell in row]
        if None not in cells:
            ratings.append(cells)
        elif index or any(cell is not None for cell in cells):
            raise ValueError(f"non-numeric rating row: {row!r}")
    return ratings
