import collections
import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_embedder
from scholarkg.document import Excerpt, Paragraph, Sentence
from scholarkg.embedding import (
    BackendConfig,
    BackendProtocolError,
    BackendTransportError,
    EmbeddingVector,
    HashedBagOfWordsEmbedder,
    HttpEmbedder,
    cosine_similarities,
)
from scholarkg.evaluation import embedding_distance
from scholarkg.ingest import link_excerpts
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.terms import NAMESPACES, PARAGRAPH, RDF_TYPE, RDFS_LABEL, Iri, Literal, Triple
from scholarkg.qa.context import select_context


def vec(*values) -> EmbeddingVector:
    return EmbeddingVector.of(values)


def test_vector_validation():
    with pytest.raises(ValueError):
        EmbeddingVector(())
    with pytest.raises(ValueError):
        vec(1.0, float("nan"))
    with pytest.raises(ValueError):
        vec(1.0, float("inf"))
    assert len(vec(1, 2).values) == 2
    # finite components whose sum overflows are accepted
    for values in [(1e308, 1e308), (-1e308, -1e308), (1e308, 1e308, -1e308, -1e308)]:
        assert vec(*values).values == values
    # a non-finite component is refused wherever it sits, also beside an
    # overflowing sum or another non-finite component
    for bad in (math.inf, -math.inf, math.nan):
        for row in ([bad], [bad, 1.0, 0.0], [0.0, bad, 1.0], [1.0, 0.0, bad],
                    [1e308, 1e308, bad], [bad, -bad, 1.0]):
            with pytest.raises(ValueError) as caught:
                EmbeddingVector(tuple(row))
            assert str(caught.value) == "embedding components must be finite", row


def test_cosine_similarity_known_value():
    # dot([1,2,3],[4,5,6]) / (|u||v|) = 32 / sqrt(14*77)
    expected = 32.0 / math.sqrt(14.0 * 77.0)
    assert cosine_similarities((vec(1, 2, 3),), (vec(4, 5, 6),)) \
        == [[pytest.approx(expected, abs=1e-12)]]


def test_cosine_similarity_bounds_and_errors():
    assert cosine_similarities((vec(1, 0),), (vec(1, 0), vec(0, 1), vec(-1, 0))) \
        == [[1.0, 0.0, -1.0]]
    with pytest.raises(ValueError):
        cosine_similarities((vec(1, 2),), (vec(1, 2, 3),))
    with pytest.raises(ValueError):
        cosine_similarities((vec(0, 0),), (vec(1, 2),))


def test_stub_embedder_is_deterministic_and_normalized(stub_embedder):
    a = stub_embedder.embed("alpha beta gamma")
    b = stub_embedder.embed("alpha beta gamma")
    assert a == b
    assert math.sqrt(sum(v * v for v in a.values)) == pytest.approx(1.0)
    assert len(a.values) == 256


def test_stub_embedder_is_order_invariant(stub_embedder):
    assert stub_embedder.embed("alpha beta") == stub_embedder.embed("beta alpha")


def test_stub_embedder_tokenization(stub_embedder):
    # case and punctuation do not matter; relative multiplicity does
    assert stub_embedder.embed("Alpha, BETA!") == stub_embedder.embed("alpha beta")
    assert stub_embedder.embed("alpha alpha beta") != stub_embedder.embed("alpha beta")
    # a single repeated token normalizes to the same unit vector
    assert stub_embedder.embed("alpha alpha") == stub_embedder.embed("alpha")


def test_stub_embedder_rejects_empty_input(stub_embedder):
    with pytest.raises(ValueError):
        stub_embedder.embed("")
    with pytest.raises(ValueError):
        stub_embedder.embed(" \t\n ")


@pytest.mark.parametrize("text", ["!!! ???", "* * *", "  * * *\n", "日本語の段落。"])
def test_stub_embedder_reads_text_without_a_run_as_one_token(stub_embedder, text):
    # a text with no alphanumeric run is one token, its stripped text
    (index,) = [i for i, v in enumerate(stub_embedder.embed(text).values) if v]
    assert index == HashedBagOfWordsEmbedder.bucket(text.strip(), 256)
    assert stub_embedder.embed(text).values[index] == 1.0
    assert stub_embedder.embed(text) == stub_embedder.embed(f" {text.strip()} ")


def test_bucket_is_stable():
    assert HashedBagOfWordsEmbedder.bucket("alpha", 256) == \
        HashedBagOfWordsEmbedder.bucket("alpha", 256)
    assert 0 <= HashedBagOfWordsEmbedder.bucket("alpha", 7) < 7


# ---------------------------------------------------------------------------
# Stub vectors pinned bit for bit
# ---------------------------------------------------------------------------

PIN_WORDS = ("graph", "Graph", "GRAPH", "query", "paper", "tika", "pdf", "x", "2024",
             "v2", "a1b2", "relaxation", "excerpt", "Pipeline", "mel", "42", "ohm")


def pinned_texts() -> list[str]:
    """500 seeded texts of 1-40 tokens: a shared vocabulary in mixed case,
    digits, random runs and repeated texts."""
    rng = random.Random(8)
    texts = []
    for _ in range(500):
        words = [rng.choice(PIN_WORDS) if rng.random() < 0.6
                 else "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789")
                              for _ in range(rng.randint(1, 9)))
                 for _ in range(rng.randint(1, 40))]
        texts.append(rng.choice((" ", ", ", "-", "! ")).join(words))
    return texts


def values_digest(vectors) -> str:
    return hashlib.sha256(repr([v.values for v in vectors]).encode()).hexdigest()


def test_stub_vectors_are_pinned_bit_for_bit():
    # The digest of the per-token-hashing embedder that preceded the
    # bucket memo; any change to a stub vector's bits changes it.
    texts = pinned_texts()
    assert len(set(texts)) < len(texts)
    assert values_digest(HashedBagOfWordsEmbedder().embed_many(texts)) == \
        "dfcebd432109462b92706fb61dadca7437ce0559adbcc0f93f74402950b814c9"


def test_stub_embedder_vectors_do_not_depend_on_what_it_saw_before():
    texts = pinned_texts()
    embedder = HashedBagOfWordsEmbedder()
    first = values_digest(embedder.embed_many(texts))
    assert values_digest(embedder.embed_many(texts)) == first
    assert values_digest(HashedBagOfWordsEmbedder().embed_many(texts)) == first
    for text in (texts[0], texts[-1], "graph unseen99 GRAPH"):
        assert repr(embedder.embed(text).values) == \
            repr(HashedBagOfWordsEmbedder().embed(text).values)


def test_stub_embedder_hashes_each_distinct_token_once(monkeypatch):
    calls = []
    bucket = HashedBagOfWordsEmbedder.bucket

    def counting(token, dimension):
        calls.append(token)
        return bucket(token, dimension)

    monkeypatch.setattr(HashedBagOfWordsEmbedder, "bucket", staticmethod(counting))
    embedder = HashedBagOfWordsEmbedder()
    embedder.embed_many(["alpha beta alpha", "Beta gamma", "ALPHA"])
    assert sorted(calls) == ["alpha", "beta", "gamma"]
    HashedBagOfWordsEmbedder().embed("alpha")
    assert calls.count("alpha") == 2           # a fresh instance starts empty


def embedding_outcome(embedder, text: str) -> tuple:
    """The vector's values, support and norm as ``repr``, or the error."""
    try:
        vector = embedder.embed(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(vector.values), repr(vector._support), repr(vector._norm)


# Repeated words in mixed case, digits, punctuation and blanks, "é", "İ"
# (whose lowercase is "i" and a combining dot), the Kelvin sign (whose
# lowercase is "k") and CJK text.
_PIECES = st.sampled_from([
    "graph", "Graph", "GRAPH", "query", "x", "42", "2024", "v2", "a1b2", "é", "café", "İ",
    "İstanbul", "\u212a", "\u212aelvin", "日本語", "段落。", "!!!", "* * *", "-", ",", ".",
    " ", "\t", "\n", ""])
_TEXTS = st.one_of(
    st.lists(st.one_of(_PIECES, st.text(max_size=4)), max_size=40).map(" ".join),
    st.lists(_PIECES, max_size=12).map("".join),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEXTS, min_size=1, max_size=6))
@example(["graph graph Graph 42", "", " \t\n ", "!!! ???", "İ \u212a é 日本語", "graph"])
def test_stub_embedder_matches_the_per_token_reference_bit_for_bit(texts):
    """Each text gives the reference's values, support and norm, or its
    error, also when the embedder's memo already holds the tokens."""
    embedder, reference = HashedBagOfWordsEmbedder(), reference_embedder.HashedBagOfWordsEmbedder()
    for text in texts + texts:
        assert embedding_outcome(embedder, text) == embedding_outcome(reference, text), text


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(json)
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def http_embedder(responses, **config) -> HttpEmbedder:
    config = BackendConfig(url="http://embed.test/v1", model="embed-model", **config)
    return HttpEmbedder(config, session=_FakeSession(responses))


def test_http_embedder_openai_payload():
    embedder = http_embedder([
        _FakeResponse(payload={"data": [{"embedding": [1.0, 0.0]},
                                        {"embedding": [0.0, 1.0]}]}),
    ])
    vectors = embedder.embed_many(["a", "b"])
    assert vectors[0] == vec(1.0, 0.0)
    assert vectors[1] == vec(0.0, 1.0)


def test_http_embedder_plain_vectors_payload():
    embedder = http_embedder([_FakeResponse(payload={"vectors": [[0.5, 0.5]]})])
    assert embedder.embed("a") == vec(0.5, 0.5)


def test_http_embedder_count_mismatch():
    embedder = http_embedder([_FakeResponse(payload={"vectors": [[1.0]]})])
    with pytest.raises(BackendProtocolError, match="expected 2"):
        embedder.embed_many(["a", "b"])


@pytest.mark.parametrize("payload", [
    {"vectors": [1.0]},
    {"vectors": 5},
    {"vectors": "a"},
    {"vectors": [None]},
    {"vectors": [{"0": 1.0}]},
    {"vectors": [["a"]]},
    {"vectors": [["1.5"]]},
    {"vectors": [[1.0, "nan"]]},
    {"vectors": [[True, 1.0]]},
    {"vectors": [[]]},
    {"vectors": [[float("inf")]]},
    {"vectors": [[10 ** 400]]},
    {"data": [{"embedding": None}]},
    {"data": [{"embedding": "1"}]},
    {"data": [["x"]]},
    {"data": 5},
])
def test_http_embedder_wrong_payload_shape_is_a_protocol_error(payload):
    embedder = http_embedder([_FakeResponse(payload=payload)])
    with pytest.raises(BackendProtocolError):
        embedder.embed_many(["a"])


def test_http_embedder_dimension_drift():
    embedder = http_embedder([
        _FakeResponse(payload={"vectors": [[1.0, 0.0]]}),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    embedder.embed("a")
    with pytest.raises(BackendProtocolError, match="dimension"):
        embedder.embed("b")


def test_http_embedder_retries_transport_failures(retry_waits):
    import requests

    embedder = http_embedder([
        requests.ConnectionError("down"),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    assert embedder.embed("a") == vec(1.0)


def test_http_embedder_transport_error_after_exhausted_retries(retry_waits):
    import requests

    embedder = http_embedder([requests.ConnectionError("down")] * 3)
    with pytest.raises(BackendTransportError):
        embedder.embed("a")


@pytest.mark.parametrize("field, value", [
    ("retries", -1), ("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")),
    ("timeout", float("inf")),
])
def test_backend_config_refuses_a_bad_retries_or_timeout(field, value):
    session = _FakeSession([_FakeResponse(payload={"vectors": [[1.0]]})])
    with pytest.raises(ValueError, match=f"^{field} must"):
        HttpEmbedder(BackendConfig(url="http://embed.test/v1", **{field: value}),
                     session=session).embed("a")
    assert session.calls == []
    # the bounds themselves are allowed
    config = BackendConfig(url="http://embed.test/v1", retries=0, timeout=1e-3)
    assert HttpEmbedder(config, session=session).embed("a") == vec(1.0)


def test_http_embedder_rejects_empty_text():
    embedder = http_embedder([])
    with pytest.raises(ValueError):
        embedder.embed("")
    assert embedder.embed_many([]) == []


def test_http_embedder_retries_429_then_succeeds(retry_waits):
    embedder = http_embedder([
        _FakeResponse(status_code=429, headers={"Retry-After": "1"}),
        _FakeResponse(status_code=429),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    assert embedder.embed("a") == vec(1.0)
    assert len(embedder.session.calls) == 3
    assert retry_waits == [1.0, 0.2]


def test_http_embedder_gives_up_after_repeated_429(retry_waits):
    embedder = http_embedder([_FakeResponse(status_code=429)] * 3)
    with pytest.raises(BackendTransportError, match="429"):
        embedder.embed("a")
    assert len(embedder.session.calls) == 3  # initial try plus two retries


@pytest.mark.parametrize("status", [400, 404, 413, 422])
def test_http_embedder_other_4xx_fails_at_once(status):
    embedder = http_embedder([_FakeResponse(status_code=status)])
    with pytest.raises(BackendTransportError, match=str(status)):
        embedder.embed("a")
    assert len(embedder.session.calls) == 1


def test_429_retry_after_sets_the_wait_up_to_a_cap(retry_waits):
    embedder = http_embedder([
        _FakeResponse(status_code=429, headers={"Retry-After": "3"}),
        _FakeResponse(status_code=429, headers={"Retry-After": "3600"}),
        _FakeResponse(status_code=429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        _FakeResponse(status_code=503, headers={"Retry-After": "4"}),
        _FakeResponse(status_code=429, headers={"Retry-After": "0"}),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ], retries=5)
    assert embedder.embed("a") == vec(1.0)
    # a numeric Retry-After on a 429 lengthens the 0.1 s * attempt backoff,
    # up to 5 s; a date, a 5xx's header and a shorter value leave it
    assert retry_waits == [3.0, 5.0, 0.1 * 3, 0.1 * 4, 0.1 * 5]
    assert len(embedder.session.calls) == 6


# ---------------------------------------------------------------------------
# Cosine similarity against the dense three-sum formula
# ---------------------------------------------------------------------------

def reference_cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """The dense formula: one sum for the dot product and one per norm."""
    if len(u.values) != len(v.values):
        raise ValueError(f"dimension mismatch: {len(u.values)} != {len(v.values)}")
    dot = sum(a * b for a, b in zip(u.values, v.values))
    norm_u = math.sqrt(sum(a * a for a in u.values))
    norm_v = math.sqrt(sum(b * b for b in v.values))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


def reference_similarities(u: EmbeddingVector, vectors) -> list[float]:
    return [reference_cosine(u, v) for v in vectors]


def reference_rows(us, vectors) -> list[list[float]]:
    """Row by row, so the first bad pair in row-major order raises."""
    return [reference_similarities(u, vectors) for u in us]


def single_row(u: EmbeddingVector, vectors) -> list[float]:
    (row,) = cosine_similarities((u,), vectors)
    return row


def outcome(function, *args) -> tuple:
    try:
        return ("value", repr(function(*args)))
    except ValueError as exc:
        return (type(exc), str(exc))


def random_component(rng: random.Random) -> float:
    kind = rng.randrange(8)
    if kind < 2:
        return rng.choice((0.0, -0.0))
    if kind == 2:
        return float(rng.randint(-3, 3))
    if kind == 3:
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.choice((200, 160, -160, -200, -320))
    return rng.uniform(-1.0, 1.0)


def random_vector(rng: random.Random, size: int, density: float) -> EmbeddingVector:
    return EmbeddingVector(tuple(
        random_component(rng) if rng.random() < density else rng.choice((0.0, -0.0))
        for _ in range(size)))


def random_partner(rng: random.Random, u: EmbeddingVector, density: float) -> EmbeddingVector:
    kind = rng.randrange(6)
    if kind == 0:
        return random_vector(rng, rng.choice((1, 2, 4, 256)), density)  # usually a mismatch
    if kind == 1:
        return EmbeddingVector(u.values)                 # a tie with itself
    if kind == 2:
        return EmbeddingVector(tuple(-a for a in u.values))
    return random_vector(rng, len(u.values), density)


def random_vector_pair(rng: random.Random) -> tuple[EmbeddingVector, EmbeddingVector]:
    dimension = rng.choice((1, 2, 3, 5, 16, 256))
    density = rng.choice((0.1, 0.5, 1.0))
    u = random_vector(rng, dimension, density)
    return u, random_partner(rng, u, density)


def random_batch(rng: random.Random, u: EmbeddingVector) -> list[EmbeddingVector]:
    """0-4 partners of ``u``; a mismatched or zero one may sit anywhere."""
    density = rng.choice((0.1, 0.5, 1.0))
    return [random_vector(rng, len(u.values), 0.0) if rng.random() < 0.1
            else random_partner(rng, u, density)
            for _ in range(rng.randrange(5))]


def test_cosine_similarity_matches_dense_reference_bit_for_bit():
    rng = random.Random(20261018)
    errors = 0
    batches = collections.Counter()
    grids = collections.Counter()
    for _ in range(10000):
        u, v = random_vector_pair(rng)
        for a, b in ((u, v), (v, u), (u, v)):   # the repeat reads the cached norms
            expected = outcome(reference_similarities, a, [b])
            assert outcome(single_row, a, [b]) == expected, (a, b)
            errors += expected[0] is ValueError
        # the batch kernel: every similarity bit for bit, or the first bad
        # vector's error class and message
        batch = random_batch(rng, u)
        expected = outcome(reference_similarities, u, batch)
        assert outcome(single_row, u, batch) == expected, (u, batch)
        if expected[0] is ValueError:
            first_bad = next(i for i, w in enumerate(batch)
                             if outcome(reference_cosine, u, w)[0] is ValueError)
            batches[expected[1].split(":")[0], first_bad > 0] += 1
        else:
            batches["value", min(len(batch), 2)] += 1
        # many us against the batch: every row bit for bit, or the error of
        # the first bad (u, v) pair in row-major order
        us = random_batch(rng, u)
        us.insert(rng.randrange(len(us) + 1), u)
        expected = outcome(reference_rows, us, batch)
        assert outcome(cosine_similarities, us, batch) == expected, (us, batch)
        if expected[0] is ValueError:
            first_bad = next(i for i, w in enumerate(us)
                             if outcome(reference_similarities, w, batch)[0] is ValueError)
            grids[expected[1].split(":")[0], first_bad > 0] += 1
        else:
            odd_u = any(outcome(reference_cosine, w, u)[0] is ValueError for w in us)
            grids["value", min(len(batch), 2), odd_u] += 1
    # the draw reaches every branch: values, mismatches and zero vectors
    assert 0 < errors < 30000
    # ... and in batches: empty and longer lists, and each error behind a
    # vector that scored
    assert {("value", 0), ("value", 2), ("dimension mismatch", True),
            ("cosine similarity is undefined for a zero vector", True)} <= set(batches)
    # ... and with many us: each error in a row behind one that scored, and
    # an empty batch, which never raises, also for a zero or mismatched u
    assert {("value", 0, True), ("value", 2, False), ("dimension mismatch", True),
            ("cosine similarity is undefined for a zero vector", True)} <= set(grids)


def test_cosine_similarity_edge_cases_match_dense_reference():
    z, nz = 0.0, -0.0
    pairs = [
        ((1.0, z), (z, 1.0)),                        # orthogonal: +0.0
        ((1.0, nz), (nz, -1.0)),                     # orthogonal with signed zeros
        ((-1.0, z), (z, 1.0)),
        ((1e-200, 1.0), (1e-200, -1.0)),             # products underflow to zero
        ((1e200, 1e200), (1e200, 1e200)),            # dot and norms overflow
        ((1e-200,), (1e-200,)),                      # norm underflows to zero
        ((z, nz), (1.0, 1.0)),                       # all-zero vector
        ((nz,), (nz,)),
        ((1.0, 2.0), (1.0, 2.0, 3.0)),               # dimension mismatch
        ((z, z), (1.0,)),                            # mismatch beats zero vector
        ((5e-324, 1.0), (5e-324, 1.0)),
        ((z, 3.0, nz), (2.0, nz, 5.0)),              # one-index support: -0.0 product, +0.0 sum
        ((nz, 0.5, z), (1.0, -2.0, 3.0)),            # one-index support, negative
        ((0.5,), (-2.0,)),
    ]
    for a, b in pairs:
        u, v = EmbeddingVector(a), EmbeddingVector(b)
        assert outcome(single_row, u, [v]) == outcome(reference_similarities, u, [v])
        assert outcome(single_row, v, [u]) == outcome(reference_similarities, v, [u])
        for batch in ([v], [u, v], [v, v, u]):
            assert outcome(single_row, u, batch) == \
                outcome(reference_similarities, u, batch), (u, batch)
        # an empty list scores nothing, so even a zero vector raises nothing
        assert cosine_similarities((u,), []) == [[]]


def dense_norm(values) -> float:
    return math.sqrt(sum(a * a for a in values))


def dense_support(values) -> tuple[tuple[int, ...], tuple[float, ...]]:
    pairs = [(i, a) for i, a in enumerate(values) if a != 0.0]
    return tuple(i for i, _ in pairs), tuple(a for _, a in pairs)


def assert_norm_and_support_are_dense(vector: EmbeddingVector) -> None:
    assert repr(vector._norm) == repr(dense_norm(vector.values)), vector
    assert repr(vector._support) == repr(dense_support(vector.values)), vector


def test_norm_and_support_match_dense_formulas_bit_for_bit():
    rng = random.Random(20261019)
    for _ in range(3000):
        for vector in random_vector_pair(rng):
            assert_norm_and_support_are_dense(vector)
    z, nz = 0.0, -0.0
    for row in [(z, nz, 1.0, nz), (nz,), (z, z, z), (nz, nz), (1e200, 1e200),
                (1e200, z, -1e200), (5e-324,), (5e-324, z, 1.0), (1e-200, 1e-200),
                (1.0, 2.0, 3.0), (-0.5, nz, 0.25), (z,) * 256]:
        assert_norm_and_support_are_dense(EmbeddingVector(row))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", [0, 2, 4])
def test_vector_refuses_a_non_finite_component_anywhere(bad, position):
    values = [1.0, 0.0, -2.0, 0.5, 3.0]
    values[position] = bad
    with pytest.raises(ValueError, match="finite"):
        EmbeddingVector(tuple(values))


def test_cached_norm_and_support_leave_equality_hash_and_repr_alone():
    fresh = vec(0.0, 3.0, -0.0, 4.0)
    used = vec(0.0, 3.0, -0.0, 4.0)
    before = (repr(used), hash(used))
    assert cosine_similarities((used,), (vec(1.0, 1.0, 1.0, 1.0),)) == [[pytest.approx(7 / 10)]]
    assert used._norm == 5.0
    assert used._support == ((1, 3), (3.0, 4.0))
    assert (repr(used), hash(used)) == before == (repr(fresh), hash(fresh))
    assert used == fresh and fresh == used
    assert repr(used) == "EmbeddingVector(values=(0.0, 3.0, -0.0, 4.0))"


# ---------------------------------------------------------------------------
# Batched embeddings in excerpt linking
# ---------------------------------------------------------------------------

PARAGRAPH_TEXTS = [
    "We extract text from research proposals with a metadata tool.",
    "Stored documents go into a database keyed by proposal index.",
    "The evaluation compares graph answers with a retrieval baseline.",
]
EXCERPT_SENTENCES = [
    ("E1", "The metadata tool extracts text from proposals."),
    ("E2", "Graph answers are compared with the retrieval baseline."),
    ("E3", "Entirely unrelated wording about migrating reindeer."),
]


def linking_inputs() -> tuple[list[Paragraph], list[Excerpt]]:
    paragraphs = [Paragraph(f"P{i}", (Sentence(text),)) for i, text in enumerate(PARAGRAPH_TEXTS)]
    excerpts = [Excerpt(eid, f"label {eid}", sentence, "m", 1, 2)
                for eid, sentence in EXCERPT_SENTENCES]
    return paragraphs, excerpts


def reference_links(paragraphs, excerpts, embedder, threshold) -> list[tuple[str, str, str]]:
    """One embed call per text and the dense cosine, argmax with id tie-break."""
    links = []
    for excerpt in excerpts:
        vector = embedder.embed(excerpt.in_sentence)
        scored = [(-reference_cosine(vector, embedder.embed(p.text)), p.paragraph_id)
                  for p in paragraphs]
        negated, best_id = min(scored)
        if -negated >= threshold:
            links.append((excerpt.excerpt_id, best_id, (-negated).hex()))
    return links


def test_link_excerpts_sends_one_request_per_batch(stub_embedder):
    paragraphs, excerpts = linking_inputs()
    # the request bodies list the texts in input order, also when it is not
    # the paragraph id order the scoring uses
    for ordered in (paragraphs, paragraphs[::-1]):
        texts = [p.text for p in ordered]
        embedder = http_embedder([
            _FakeResponse(payload={"vectors": [list(stub_embedder.embed(t).values)
                                               for t in texts]}),
            _FakeResponse(payload={"vectors": [list(stub_embedder.embed(e.in_sentence).values)
                                               for e in excerpts]}),
        ])
        links = link_excerpts(ordered, excerpts, embedder, threshold=0.3)
        assert len(embedder.session.calls) == 2
        assert [call["input"] for call in embedder.session.calls] == [
            texts, [sentence for _, sentence in EXCERPT_SENTENCES]]
        assert [(l.excerpt_id, l.paragraph_id, l.similarity.hex()) for l in links] == \
            reference_links(paragraphs, excerpts, stub_embedder, 0.3)


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.7])
def test_link_excerpts_matches_per_text_reference(stub_embedder, threshold):
    paragraphs, excerpts = linking_inputs()
    links = link_excerpts(paragraphs, excerpts, stub_embedder, threshold=threshold)
    assert [(l.excerpt_id, l.paragraph_id, l.similarity.hex()) for l in links] == \
        reference_links(paragraphs, excerpts, stub_embedder, threshold)


def test_select_context_embeds_the_shortlist_in_one_request(stub_embedder):
    texts = [f"common topic {word} " + "common " * (8 - i)
             for i, word in enumerate(["alpha", "beta", "gamma", "delta", "eps", "zeta"])]
    graph = KnowledgeGraph(
        triple
        for i, text in enumerate(texts)
        for node in [Iri(f"{NAMESPACES['askg-data']}Paper-d-Paragraph-{i:02d}")]
        for triple in (Triple(node, RDF_TYPE, PARAGRAPH),
                       Triple(node, RDFS_LABEL, Literal(text))))
    shortlist = texts[:5]
    embedder = http_embedder([_FakeResponse(payload={
        "vectors": [list(stub_embedder.embed(t).values) for t in shortlist]})])
    chosen = select_context(graph, {"common"}, top_n=5, diverse_k=3, embedder=embedder)
    assert [call["input"] for call in embedder.session.calls] == [shortlist]
    assert chosen == select_context(graph, {"common"}, top_n=5, diverse_k=3,
                                    embedder=stub_embedder)


def test_embedding_distance_embeds_both_texts_in_one_request(stub_embedder):
    texts = ["graph answer one", "baseline answer"]
    embedder = http_embedder([_FakeResponse(payload={
        "vectors": [list(stub_embedder.embed(t).values) for t in texts]})])
    distance = embedding_distance(*texts, embedder)
    assert [call["input"] for call in embedder.session.calls] == [texts]
    assert distance == embedding_distance(*texts, stub_embedder)


def test_stub_embed_many_is_embed_per_text(stub_embedder):
    texts = ["alpha beta", "gamma", "alpha beta"]
    assert stub_embedder.embed_many(texts) == [stub_embedder.embed(t) for t in texts]
    assert stub_embedder.embed_many([]) == []


# ---------------------------------------------------------------------------
# One score per distinct excerpt sentence
# ---------------------------------------------------------------------------

class _RecordingEmbedder(HashedBagOfWordsEmbedder):
    def __init__(self) -> None:
        super().__init__()
        self.batches: list[list[str]] = []

    def embed_many(self, texts):
        self.batches.append(list(texts))
        return super().embed_many(texts)


def test_link_excerpts_embeds_each_distinct_sentence_once(stub_embedder):
    paragraphs, excerpts = linking_inputs()
    repeated = [Excerpt(f"R{i}", "label", sentence, "m", 0, 1)
                for i, (_, sentence) in enumerate(EXCERPT_SENTENCES[1::-1] * 2)]
    excerpts = excerpts + repeated
    sentences = [sentence for _, sentence in EXCERPT_SENTENCES]
    embedder = _RecordingEmbedder()
    links = link_excerpts(paragraphs, excerpts, embedder, threshold=0.3)
    assert embedder.batches == [PARAGRAPH_TEXTS, sentences]
    assert [(l.excerpt_id, l.paragraph_id, l.similarity.hex()) for l in links] == \
        reference_links(paragraphs, excerpts, stub_embedder, 0.3)
    # an HTTP embedder is sent each distinct sentence once, in first-seen order
    http = http_embedder([
        _FakeResponse(payload={"vectors": [list(stub_embedder.embed(t).values)
                                           for t in PARAGRAPH_TEXTS]}),
        _FakeResponse(payload={"vectors": [list(stub_embedder.embed(t).values)
                                           for t in sentences]}),
    ])
    assert link_excerpts(paragraphs, excerpts, http, threshold=0.3) == links
    assert [call["input"] for call in http.session.calls] == [PARAGRAPH_TEXTS, sentences]


_LINK_WORDS = st.sampled_from(["tool", "text", "pdf", "graph", "tika", "mel", "Tool"])
_LINK_TEXTS = st.lists(_LINK_WORDS, min_size=1, max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(_LINK_TEXTS, min_size=1, max_size=6),
       st.lists(_LINK_TEXTS, min_size=1, max_size=4).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)),
       st.randoms(use_true_random=False),
       st.sampled_from([0.0, 0.5, 0.7, 1.0]))
def test_link_excerpts_with_repeated_sentences_links_like_the_reference(
        paragraph_texts, sentences, rnd, threshold):
    """Repeated sentences, and paragraphs that tie (the same text), in any
    id order: each excerpt gets the link the per-excerpt reference gives."""
    ids = [f"P{i}" for i in range(len(paragraph_texts))]
    rnd.shuffle(ids)
    paragraphs = [Paragraph(pid, (Sentence(text),)) for pid, text in zip(ids, paragraph_texts)]
    excerpts = [Excerpt(f"E{i}", "label", sentence, "m", 0, 1)
                for i, sentence in enumerate(sentences)]
    embedder = _RecordingEmbedder()
    links = link_excerpts(paragraphs, excerpts, embedder, threshold=threshold)
    assert embedder.batches[1] == list(dict.fromkeys(sentences))
    assert [(l.excerpt_id, l.paragraph_id, l.similarity.hex()) for l in links] == \
        reference_links(paragraphs, excerpts, HashedBagOfWordsEmbedder(), threshold)
