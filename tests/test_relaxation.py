import pytest

from scholarkg.kg.patterns import CompoundQuery, TriplePattern, Variable, WILDCARD
from scholarkg.kg.terms import XSD_INT, Literal, iri
from scholarkg.qa.relaxation import (
    Edit,
    RelaxationDictionary,
    relax,
    relax_set,
)


def tp(s, p, o) -> TriplePattern:
    return TriplePattern(s, p, o)


T1 = tp("mel", "extracts", "text")
T2 = tp("tika", "parses", "files")
T3 = tp("mel", "stores", "json")
D1 = tp("mel", WILDCARD, "text")
D2 = tp(WILDCARD, "extracts", "text")


def test_relax_replacement():
    q = CompoundQuery((T1, T2))
    relaxed = relax(q, 1, D1)
    assert relaxed.patterns == (D1, T2)
    # original query is untouched
    assert q.patterns == (T1, T2)


def test_relax_deletion():
    q = CompoundQuery((T1, T2, T3))
    assert relax(q, 2).patterns == (T1, T3)


def test_relax_position_is_one_based_and_checked():
    q = CompoundQuery((T1, T2))
    with pytest.raises(ValueError, match="out of range"):
        relax(q, 0)
    with pytest.raises(ValueError, match="out of range"):
        relax(q, 3)


def test_relax_cannot_delete_last_pattern():
    q = CompoundQuery((T1,))
    with pytest.raises(ValueError, match="below one triple"):
        relax(q, 1)
    # replacement at the same position is still allowed
    assert relax(q, 1, D1).patterns == (D1,)


def test_relax_set_single_pattern_has_no_deletions():
    q = CompoundQuery((T1,))
    d = RelaxationDictionary((D1, D2))
    out = relax_set(q, d)
    assert [r.edits for r in out] == [(Edit(1, D1),), (Edit(1, D2),)]
    assert [r.query.patterns for r in out] == [(D1,), (D2,)]


def test_relax_set_enumerates_deletions_then_replacements():
    q = CompoundQuery((T1, T2))
    d = RelaxationDictionary((D1,))
    out = relax_set(q, d)
    # a deletion's edit has no replacement
    assert [r.edits for r in out] == [(Edit(1, None),), (Edit(2, None),),
                                      (Edit(1, D1),), (Edit(2, D1),)]
    assert out[2].query.patterns == (D1, T2)
    assert out[3].query.patterns == (T1, D1)


def test_relax_set_skips_identity_replacement():
    q = CompoundQuery((D1, T2))
    d = RelaxationDictionary((D1,))
    out = relax_set(q, d)
    # replacing pattern 1 by itself is not offered
    assert (D1, T2) not in [r.query.patterns for r in out]
    assert (Edit(2, D1),) in [r.edits for r in out]


def test_relax_set_deduplicates_equal_outcomes():
    # deleting either copy of a duplicated pattern gives the same query
    q = CompoundQuery((T1, T1))
    out = relax_set(q, RelaxationDictionary())
    assert len(out) == 1
    assert out[0].query.patterns == (T1,)


def test_relax_set_count_formula_without_collisions():
    q = CompoundQuery((T1, T2, T3))
    d = RelaxationDictionary((D1, D2))
    out = relax_set(q, d)
    # n deletions + n*|D| replacements, none colliding here
    assert len(out) == 3 + 3 * 2


def test_dictionary_deduplicates_and_requires_ground_terms():
    d = RelaxationDictionary((D1, D1, D2))
    assert d.entries == (D1, D2)
    with pytest.raises(ValueError, match="ground"):
        RelaxationDictionary((tp(WILDCARD, WILDCARD, WILDCARD),))


@pytest.mark.parametrize("term", [
    iri("askg-onto:mentions"),
    Literal("text"),
    Literal("3", datatype=XSD_INT),
    None,
    3,
])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_pattern_refuses_terms_other_than_phrases_and_variables(term, position):
    terms = ["mel", Variable("x"), WILDCARD]
    terms[position] = term
    name = ("subject", "predicate", "object")[position]
    with pytest.raises(TypeError, match=name):
        TriplePattern(*terms)


def test_compound_query_must_have_patterns():
    with pytest.raises(ValueError):
        CompoundQuery(())
