"""Triple patterns and conjunctive queries over the knowledge graph.

A pattern position holds either a phrase (a plain string, matched softly
against the graph's paragraph and excerpt text) or a :class:`Variable`.
These are the only terms the gateway's wire format can carry.

A :class:`Variable` is the gateway's ``?name`` wire form, kept so that a
pattern formats back as it was read; :data:`WILDCARD` is the anonymous
variable ``?``. Nothing binds a variable: the matcher in ``qa.engine``
lets it match anything, so two patterns that name the same variable are
not joined on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

__all__ = [
    "Variable",
    "WILDCARD",
    "PatternTerm",
    "TriplePattern",
    "CompoundQuery",
    "is_ground",
]


@dataclass(frozen=True)
class Variable:
    """A ``?name`` position; matches any term without binding."""

    name: str


WILDCARD = Variable("")

PatternTerm = Union[Variable, str]


def is_ground(term: PatternTerm) -> bool:
    return isinstance(term, str)


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def __post_init__(self) -> None:
        for position, term in zip(("subject", "predicate", "object"), self.terms):
            if not isinstance(term, (Variable, str)):
                raise TypeError(
                    f"pattern {position} must be a phrase or a Variable, not {term!r}")

    @property
    def terms(self) -> tuple[PatternTerm, PatternTerm, PatternTerm]:
        return (self.subject, self.predicate, self.object)

    @property
    def has_ground_term(self) -> bool:
        """Whether at least one position is ground.

        A fully wild pattern is legal for matching (it matches every
        triple) but is rejected wherever patterns describe question
        content, e.g. in relaxation dictionaries.
        """
        return any(is_ground(t) for t in self.terms)


@dataclass(frozen=True)
class CompoundQuery:
    """A conjunction of triple patterns; never empty."""

    patterns: tuple[TriplePattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("a compound query must contain at least one pattern")

    @property
    def n(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)
