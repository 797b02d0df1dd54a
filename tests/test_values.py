"""The frozen-dataclass contract that every public value class keeps as a
named tuple under ``kg.terms``'s one base."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import scholarkg
from scholarkg.baseline import Chunk, RetrievedChunk
from scholarkg.document import (
    DocumentModel,
    Excerpt,
    Paragraph,
    Section,
    Sentence,
    ValidationIssue,
)
from scholarkg.embedding import BackendConfig, EmbeddingVector
from scholarkg.evaluation import EvaluationReport, QuestionComparison
from scholarkg.gateway import GatewayRequest, GatewayResponse
from scholarkg.ingest import ExcerptLink, HeadingOutline, OutlineEntry
from scholarkg.kg.graph import GraphStats
from scholarkg.kg.patterns import WILDCARD, CompoundQuery, TriplePattern, Variable
from scholarkg.kg.terms import RDFS_LABEL, XSD_INT, Iri, Literal, Triple, _Value
from scholarkg.qa.context import AnswerResult, QueryAnswer, ScoredParagraph
from scholarkg.qa.engine import CandidateTripleSet, RankedEntity
from scholarkg.qa.relaxation import Edit, RelaxationDictionary, RelaxedQuery

NODE = Iri("https://www.anu.edu.au/onto/scholarly/Paper-abc-Paragraph-0")
PATTERN = TriplePattern("mel", Variable("p"), "text")
OTHER_PATTERN = TriplePattern(WILDCARD, "extracts", "metadata")
QUERY = CompoundQuery((PATTERN, OTHER_PATTERN))
RELAXED = RelaxedQuery(CompoundQuery((PATTERN,)), (Edit(2),))
LABEL = Triple(NODE, RDFS_LABEL, Literal("MEL", language="en"))
CANDIDATES = CandidateTripleSet(frozenset({LABEL}), 1, 2, (RELAXED,))
SCORED = ScoredParagraph(NODE, "MEL extracts text.", 2)
PARAGRAPH = Paragraph("p-1", (Sentence("One.", (1,)), Sentence("Two.")))
CHUNK = Chunk("doc-0000", "doc", "some words")
RANKED = RankedEntity("mel", 3, 0.5)
ANSWER = AnswerResult("MEL.", (SCORED,), "stub")

VALUES = [
    NODE,
    Literal("3", datatype=XSD_INT),
    LABEL,
    Sentence("One.", (1,)),
    PARAGRAPH,
    Section("1", "Introduction", (PARAGRAPH, Section("1.1", "Aims"))),
    DocumentModel("abc", "Title", (Section("1", "Introduction", (PARAGRAPH,)),)),
    Excerpt("Excerpt-1", "MEL", "MEL extracts text.", "mel", 0, 1),
    ValidationIssue("sections[0]", "section heading is empty"),
    OutlineEntry(1, "Introduction", 0),
    HeadingOutline((OutlineEntry(1, "Introduction", 0), OutlineEntry(2, "Aims", 40))),
    ExcerptLink("Excerpt-1", "p-1", 0.9),
    EmbeddingVector((0.0, 1.5, -2.0)),
    BackendConfig("http://127.0.0.1:1/", "model", "TOKEN", 5.0, 1),
    GatewayRequest("", "Which tool extracts text?"),
    GatewayResponse("MEL.", "stub"),
    CHUNK,
    RetrievedChunk(CHUNK, 0.5),
    QuestionComparison("Q1", frozenset({"mel"}), frozenset(), "MEL.", "Tika."),
    EvaluationReport((("Q1", 0.5, 0.5),), (("Q1", 0.25),)),
    GraphStats(1, 2, 3, 4.5, 5, 6, 7.5, 8, 9, 10, 11, 12),
    Variable("p"),
    PATTERN,
    QUERY,
    CANDIDATES,
    RANKED,
    SCORED,
    ANSWER,
    QueryAnswer("Which tool?", QUERY, CANDIDATES, (RANKED,), ANSWER, "SELECT"),
    Edit(1, OTHER_PATTERN),
    RELAXED,
    RelaxationDictionary((PATTERN, OTHER_PATTERN, PATTERN)),
]


def test_the_table_holds_every_public_value_class():
    public = set()
    for info in pkgutil.walk_packages(scholarkg.__path__, "scholarkg."):
        module = importlib.import_module(info.name)
        public.update(value for value in map(module.__dict__.get, getattr(module, "__all__", ()))
                      if isinstance(value, type) and issubclass(value, _Value))
    assert len(public) == 32
    assert {type(value) for value in VALUES} == public


@pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
def test_value_classes_keep_the_frozen_dataclass_contract(value):
    cls, fields = type(value), value[:]
    assert fields == tuple(getattr(value, name) for name in cls._fields)
    # a value is the sequence of its fields, with no exception
    assert len(value) == len(cls._fields) and tuple(value) == fields
    twin = cls(*fields)
    assert twin == value and twin is not value and not twin != value
    assert hash(twin) == hash(value) == hash(fields)
    assert {value: 1}[twin] == 1
    # never a plain tuple or another class with the same fields, either way
    impostor = tuple.__new__(Variable if cls is not Variable else Iri, fields)
    for other in (fields, impostor):
        assert value != other and other != value
        assert not (value == other) and not (other == value)
    with pytest.raises(TypeError):
        value < twin  # noqa: B015
    with pytest.raises(TypeError):
        fields < value  # noqa: B015
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in zip(cls._fields, fields)) + ")"
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == twin
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls and copied == value and hash(copied) == hash(value)
        assert getattr(copied, "__dict__", None) == getattr(value, "__dict__", None)


# A field tuple that each class's constructor refuses.
REFUSED = [
    (Literal, ("x", XSD_INT, "en"), ValueError),
    (Section, ("1", "Heading", ("not a paragraph",)), TypeError),
    (Excerpt, ("Excerpt-1", "MEL", "MEL extracts text.", "mel", 2, 1), ValueError),
    (OutlineEntry, (0, "Heading", 0), ValueError),
    (HeadingOutline, ((OutlineEntry(1, "A", 5), OutlineEntry(1, "B", 5)),), ValueError),
    (EmbeddingVector, ((),), ValueError),
    (BackendConfig, ("http://127.0.0.1:1/", "", "", 30.0, -1), ValueError),
    (GatewayRequest, ("", " "), ValueError),
    (TriplePattern, ("mel", 1, "text"), TypeError),
    (CompoundQuery, ((),), ValueError),
    (RelaxationDictionary, ((TriplePattern(WILDCARD, WILDCARD, WILDCARD),),), ValueError),
]


@pytest.mark.parametrize("cls, fields, error", REFUSED, ids=[cls.__name__ for cls, *_ in REFUSED])
def test_copies_run_the_constructor_checks_again(cls, fields, error):
    with pytest.raises(error):
        cls(*fields)
    smuggled = tuple.__new__(cls, fields)
    for rebuild in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        with pytest.raises(error):
            rebuild(smuggled)


def test_an_embedding_vector_keeps_its_support_and_norm_outside_its_fields():
    vector = EmbeddingVector((0.0, 3.0, -4.0))
    assert vector[:] == ((0.0, 3.0, -4.0),)
    assert vars(vector) == {"_support": ((1, 2), (3.0, -4.0)), "_norm": 5.0}
