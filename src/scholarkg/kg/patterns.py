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

from collections import namedtuple
from typing import Union

from .terms import _Value

__all__ = [
    "Variable",
    "WILDCARD",
    "PatternTerm",
    "TriplePattern",
    "CompoundQuery",
    "is_ground",
]


class Variable(_Value, namedtuple("_VariableFields", "name")):
    """A ``?name`` position; matches any term without binding."""

    __slots__ = ()


WILDCARD = Variable("")

PatternTerm = Union[Variable, str]


def is_ground(term: PatternTerm) -> bool:
    return isinstance(term, str)


class TriplePattern(_Value, namedtuple("_TriplePatternFields", "subject predicate object")):
    """Three pattern terms, each a phrase or a :class:`Variable`."""

    __slots__ = ()

    def __new__(cls, subject: PatternTerm, predicate: PatternTerm, object: PatternTerm):
        terms = (subject, predicate, object)
        for position, term in zip(cls._fields, terms):
            if not isinstance(term, (Variable, str)):
                raise TypeError(
                    f"pattern {position} must be a phrase or a Variable, not {term!r}")
        return tuple.__new__(cls, terms)

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


class CompoundQuery(_Value, namedtuple("_CompoundQueryFields", "patterns")):
    """A conjunction of triple patterns; never empty. Its length,
    iteration and ``in`` are over its patterns."""

    __slots__ = ()

    def __new__(cls, patterns: tuple[TriplePattern, ...]):
        if not patterns:
            raise ValueError("a compound query must contain at least one pattern")
        return tuple.__new__(cls, (patterns,))

    @property
    def n(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, pattern) -> bool:
        return pattern in self.patterns
