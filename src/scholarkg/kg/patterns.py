"""Triple patterns and conjunctive queries over the knowledge graph.

A pattern position holds either a ground term (an :class:`Iri`, a
:class:`Literal`, or a plain string for natural-language terms that are
matched softly), a named :class:`Variable`, or the :data:`WILDCARD`.

A :class:`Variable` is the gateway's ``?name`` wire form, kept so that a
pattern formats back as it was read. Nothing binds it: the matcher in
``qa.engine`` treats it exactly like the wildcard, so two patterns that
name the same variable are not joined on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .terms import Iri, Literal

__all__ = [
    "Variable",
    "Wildcard",
    "WILDCARD",
    "PatternTerm",
    "TriplePattern",
    "CompoundQuery",
    "is_ground",
]


@dataclass(frozen=True)
class Variable:
    """A ``?name`` position; matched like :data:`WILDCARD`."""

    name: str


class Wildcard:
    """Matches any term without binding. A singleton; see :data:`WILDCARD`."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "?"


WILDCARD = Wildcard()

PatternTerm = Union[Iri, Literal, Variable, Wildcard, str]


def is_ground(term: PatternTerm) -> bool:
    return not isinstance(term, (Variable, Wildcard))


@dataclass(frozen=True)
class TriplePattern:
    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

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
