"""Relaxation algebra over conjunctive queries.

A query that fails to match can be weakened step by step: replace one
pattern with a dictionary entry, or delete one pattern outright. Each
step produces a new query at relaxation depth one; chains of steps
accumulate depth.
"""

from __future__ import annotations

from collections import namedtuple

from ..kg.patterns import CompoundQuery, TriplePattern
from ..kg.terms import _Value

__all__ = [
    "Edit",
    "RelaxedQuery",
    "RelaxationDictionary",
    "relax",
    "relax_set",
]


class Edit(_Value, namedtuple("_EditFields", "position replacement", defaults=(None,))):
    """One relaxation step at the 1-based pattern index ``position``: it
    replaces that pattern with ``replacement``, or deletes it when there
    is none."""

    __slots__ = ()


class RelaxedQuery(_Value, namedtuple("_RelaxedQueryFields", "query edits", defaults=((),))):
    """A query with the edits that relaxed it; its depth is their number."""

    __slots__ = ()


class RelaxationDictionary(_Value, namedtuple("_RelaxationDictionaryFields", "entries")):
    """An ordered pool of replacement patterns (duplicates dropped)."""

    __slots__ = ()

    def __new__(cls, entries: tuple[TriplePattern, ...] = ()):
        deduped = tuple(dict.fromkeys(entries))
        for entry in deduped:
            if not entry.has_ground_term:
                raise ValueError("dictionary entries must have at least one ground term")
        return tuple.__new__(cls, (deduped,))


def relax(query: CompoundQuery, position: int,
          replacement: TriplePattern | None = None) -> CompoundQuery:
    """Apply one relaxation step at the 1-based ``position``.

    With a ``replacement`` the pattern at that position is substituted;
    without one it is deleted, which requires the query to keep at least
    one pattern.
    """
    if not 1 <= position <= query.n:
        raise ValueError(f"position {position} out of range for a query of {query.n} patterns")
    patterns = list(query.patterns)
    if replacement is None:
        if query.n == 1:
            raise ValueError("cannot relax below one triple")
        del patterns[position - 1]
    else:
        patterns[position - 1] = replacement
    return CompoundQuery(tuple(patterns))


def relax_set(query: CompoundQuery,
              dictionary: RelaxationDictionary) -> tuple[RelaxedQuery, ...]:
    """All depth-1 relaxations of ``query``.

    The set contains every single-pattern deletion (when more than one
    pattern remains to delete from) and every replacement of one pattern
    by a dictionary entry that differs from it. Relaxations whose pattern
    lists coincide are deduplicated; enumeration order (deletions by
    position, then replacements by position and dictionary order) makes
    the result deterministic.
    """
    seen: set[tuple[TriplePattern, ...]] = set()
    out: list[RelaxedQuery] = []

    def add(relaxed: CompoundQuery, edit: Edit) -> None:
        if relaxed.patterns in seen:
            return
        seen.add(relaxed.patterns)
        out.append(RelaxedQuery(query=relaxed, edits=(edit,)))

    if query.n >= 2:
        for position in range(1, query.n + 1):
            add(relax(query, position), Edit(position))
    for position in range(1, query.n + 1):
        current = query.patterns[position - 1]
        for entry in dictionary.entries:
            if entry == current:
                continue
            add(relax(query, position, entry), Edit(position, entry))
    return tuple(out)
