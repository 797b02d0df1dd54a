"""Answer comparison metrics.

The graph-backed pipeline and the sliding-window baseline answer the
same questions; these metrics quantify how close the two answers are,
per question (entity overlap, Jaccard distance, embedding similarity)
and across raters (Cronbach's alpha for rating consistency).
"""

from __future__ import annotations

import math
import re
import statistics
from dataclasses import dataclass
from typing import Iterable

from .embedding import Embedder, cosine_similarity
from .kg.terms import entity_phrase, phrase_haystack

__all__ = [
    "extract_entity_set",
    "entity_overlap",
    "embedding_distance",
    "cronbach_alpha",
    "QuestionComparison",
    "EvaluationReport",
    "build_report",
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
    return cosine_similarity(*embedder.embed_many([text_a, text_b]))


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


@dataclass(frozen=True)
class QuestionComparison:
    """One question's answers from both pipelines, ready to score."""

    label: str
    graph_entities: frozenset[str]
    baseline_entities: frozenset[str]
    graph_answer: str
    baseline_answer: str


@dataclass(frozen=True)
class EvaluationReport:
    """Per-question metric rows, identical in the text and JSON forms."""

    overlap_rows: tuple[tuple[str, float, float], ...]
    distance_rows: tuple[tuple[str, float], ...]

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
        ratio, jaccard = entity_overlap(set(c.graph_entities),
                                        set(c.baseline_entities))
        overlap_rows.append((c.label, round(ratio, 4), round(jaccard, 4)))
        distance_rows.append((c.label, round(
            embedding_distance(c.graph_answer, c.baseline_answer, embedder), 4)))
    return EvaluationReport(overlap_rows=tuple(overlap_rows),
                            distance_rows=tuple(distance_rows))
