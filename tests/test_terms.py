import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scholarkg
from scholarkg.kg.terms import (
    RDFS_LABEL,
    XSD_INT,
    Iri,
    Literal,
    Triple,
    entity_iri,
    phrase_haystack,
)

A = Iri("http://x.example/a")
TERMS = [
    A,
    Literal("x"),
    Literal("x", language="en"),
    Literal("3", datatype=XSD_INT),
    Triple(A, RDFS_LABEL, Literal("x", language="en")),
    Triple(A, RDFS_LABEL, A),
]


def rebuilt(term):
    """An equal term built afresh from the same field values."""
    if isinstance(term, Iri):
        return Iri(str(term.value))
    if isinstance(term, Literal):
        return Literal(term.lexical, term.datatype, term.language)
    return Triple(term.subject, term.predicate, term.object)


@pytest.mark.parametrize("term", TERMS, ids=repr)
def test_terms_keep_the_frozen_dataclass_contract(term):
    twin = rebuilt(term)
    assert twin == term and twin is not term
    assert hash(twin) == hash(term)
    assert {term: 1}[twin] == 1
    fields = tuple(getattr(term, name) for name in term._fields)
    assert hash(term) == hash(fields)
    assert repr(term) == f"{type(term).__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(term._fields, fields)) + ")"
    assert term != fields and term != Iri("http://x.example/other")
    # A term is a tuple, so a plain tuple's reflected == and ordering must
    # not reach it.
    assert fields != term and not (fields == term)
    with pytest.raises(TypeError):
        term < twin  # noqa: B015
    with pytest.raises(TypeError):
        fields < term  # noqa: B015
    with pytest.raises(AttributeError):
        setattr(term, term._fields[0], twin[0])
    for copied in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert copied == term and hash(copied) == hash(term)


def test_literal_refuses_a_datatype_with_a_language():
    with pytest.raises(ValueError, match="both a datatype and a language tag"):
        Literal("x", XSD_INT, "en")
    with pytest.raises(ValueError, match="both a datatype and a language tag"):
        Literal("x", datatype=XSD_INT, language="en")


def test_term_kinds_never_compare_equal():
    assert Iri("x") != Literal("x")
    assert Literal("x") != Literal("x", language="en")
    assert Literal("x") != Literal("x", datatype=XSD_INT)


_PICKLE = """
import pickle, sys
from scholarkg.kg.terms import RDFS_LABEL, Iri, Literal, Triple
a = Iri("http://x.example/a")
terms = [a, Literal("x", language="en"), Triple(a, RDFS_LABEL, Literal("x", language="en"))]
sys.stdout.write(pickle.dumps((terms, {t: i for i, t in enumerate(terms)})).hex())
"""

_UNPICKLE = """
import pickle, sys
from scholarkg.kg.terms import RDFS_LABEL, Iri, Literal, Triple
terms, index = pickle.loads(bytes.fromhex(sys.stdin.read()))
a = Iri("http://x.example/a")
fresh = [a, Literal("x", language="en"), Triple(a, RDFS_LABEL, Literal("x", language="en"))]
assert terms == fresh
assert [index[t] for t in fresh] == [0, 1, 2]
assert [t in {f: None for f in fresh} for t in terms] == [True] * 3
assert [hash(t) for t in terms] == [hash(t) for t in fresh]
print("ok")
"""


def test_pickled_terms_rehash_in_a_process_with_another_hash_seed():
    src = str(Path(scholarkg.__file__).resolve().parent.parent)

    def python(code: str, seed: str, stdin: str = "") -> str:
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], input=stdin, env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert python(_UNPICKLE, "2", python(_PICKLE, "1")) == "ok\n"


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(st.sampled_from("aZ09 _-.\n\u0130\u00df\u212a"), st.characters())))
def test_phrase_haystack_is_the_substituted_lowercase_text(text):
    assert phrase_haystack(text) == " " + re.sub(r"[^a-z0-9]+", " ", text.lower()).strip() + " "


def test_literal_entity_key_is_the_key_of_the_entity_iri_it_names():
    mention = Literal("Metadata Extractor & Loader (MEL)")
    assert mention.entity_key() == "metadata_extractor_loader_mel"
    assert entity_iri(mention.entity_key()).entity_key() == mention.entity_key()
