import math
import random

import pytest

from scholarkg import embedding
from scholarkg.document import Excerpt, Paragraph, Sentence
from scholarkg.embedding import (
    BackendConfig,
    EmbeddingProtocolError,
    EmbeddingTransportError,
    EmbeddingVector,
    HashedBagOfWordsEmbedder,
    HttpEmbedder,
    cosine_similarity,
)
from scholarkg.ingest import link_excerpts


def vec(*values) -> EmbeddingVector:
    return EmbeddingVector.of(values)


def test_vector_validation():
    with pytest.raises(ValueError):
        EmbeddingVector(())
    with pytest.raises(ValueError):
        vec(1.0, float("nan"))
    with pytest.raises(ValueError):
        vec(1.0, float("inf"))
    assert vec(1, 2).dimension == 2


def test_cosine_similarity_known_value():
    # dot([1,2,3],[4,5,6]) / (|u||v|) = 32 / sqrt(14*77)
    expected = 32.0 / math.sqrt(14.0 * 77.0)
    assert cosine_similarity(vec(1, 2, 3), vec(4, 5, 6)) == pytest.approx(expected, abs=1e-12)


def test_cosine_similarity_bounds_and_errors():
    assert cosine_similarity(vec(1, 0), vec(1, 0)) == 1.0
    assert cosine_similarity(vec(1, 0), vec(0, 1)) == 0.0
    assert cosine_similarity(vec(1, 0), vec(-1, 0)) == -1.0
    with pytest.raises(ValueError):
        cosine_similarity(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(ValueError):
        cosine_similarity(vec(0, 0), vec(1, 2))


def test_stub_embedder_is_deterministic_and_normalized(stub_embedder):
    a = stub_embedder.embed("alpha beta gamma")
    b = stub_embedder.embed("alpha beta gamma")
    assert a == b
    assert math.sqrt(sum(v * v for v in a.values)) == pytest.approx(1.0)
    assert a.dimension == 256


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
        stub_embedder.embed("!!! ???")


def test_bucket_is_stable():
    assert HashedBagOfWordsEmbedder.bucket("alpha", 256) == \
        HashedBagOfWordsEmbedder.bucket("alpha", 256)
    assert 0 <= HashedBagOfWordsEmbedder.bucket("alpha", 7) < 7


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
    config = BackendConfig(url="http://embed.test/v1", model="embed-model",
                           **{"backoff": 0.0, **config})
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
    with pytest.raises(EmbeddingProtocolError, match="expected 2"):
        embedder.embed_many(["a", "b"])


def test_http_embedder_dimension_drift():
    embedder = http_embedder([
        _FakeResponse(payload={"vectors": [[1.0, 0.0]]}),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    embedder.embed("a")
    with pytest.raises(EmbeddingProtocolError, match="dimension"):
        embedder.embed("b")


def test_http_embedder_retries_transport_failures():
    import requests

    embedder = http_embedder([
        requests.ConnectionError("down"),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    assert embedder.embed("a") == vec(1.0)


def test_http_embedder_transport_error_after_exhausted_retries():
    import requests

    embedder = http_embedder([requests.ConnectionError("down")] * 3)
    with pytest.raises(EmbeddingTransportError):
        embedder.embed("a")


def test_http_embedder_rejects_empty_text():
    embedder = http_embedder([])
    with pytest.raises(ValueError):
        embedder.embed("")
    assert embedder.embed_many([]) == []


def test_http_embedder_retries_429_then_succeeds():
    embedder = http_embedder([
        _FakeResponse(status_code=429, headers={"Retry-After": "1"}),
        _FakeResponse(status_code=429),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    assert embedder.embed("a") == vec(1.0)
    assert len(embedder.session.calls) == 3


def test_http_embedder_gives_up_after_repeated_429():
    embedder = http_embedder([_FakeResponse(status_code=429)] * 3)
    with pytest.raises(EmbeddingTransportError, match="429"):
        embedder.embed("a")
    assert len(embedder.session.calls) == 3  # initial try plus two retries


@pytest.mark.parametrize("status", [400, 404, 413, 422])
def test_http_embedder_other_4xx_fails_at_once(status):
    embedder = http_embedder([_FakeResponse(status_code=status)])
    with pytest.raises(EmbeddingTransportError, match=str(status)):
        embedder.embed("a")
    assert len(embedder.session.calls) == 1


def test_429_retry_after_sets_the_wait_up_to_a_cap(monkeypatch):
    slept = []
    monkeypatch.setattr(embedding.time, "sleep", slept.append)
    embedder = http_embedder([
        _FakeResponse(status_code=429, headers={"Retry-After": "3"}),
        _FakeResponse(status_code=429, headers={"Retry-After": "3600"}),
        _FakeResponse(status_code=429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        _FakeResponse(status_code=503, headers={"Retry-After": "4"}),
        _FakeResponse(status_code=429, headers={"Retry-After": "0"}),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ], backoff=0.25, retries=5)
    assert embedder.embed("a") == vec(1.0)
    # a numeric Retry-After on a 429 lengthens the backoff, up to 5 s; a
    # date, a 5xx's header and a shorter value leave backoff * attempt
    assert slept == [3.0, 5.0, 0.75, 1.0, 1.25]
    assert len(embedder.session.calls) == 6


def test_zero_backoff_never_sleeps_on_429(monkeypatch):
    monkeypatch.setattr(embedding.time, "sleep", pytest.fail)
    embedder = http_embedder([
        _FakeResponse(status_code=429, headers={"Retry-After": "30"}),
        _FakeResponse(payload={"vectors": [[1.0]]}),
    ])
    assert embedder.embed("a") == vec(1.0)


# ---------------------------------------------------------------------------
# Cosine similarity against the dense three-sum formula
# ---------------------------------------------------------------------------

def reference_cosine(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """The dense formula: one sum for the dot product and one per norm."""
    if u.dimension != v.dimension:
        raise ValueError(f"dimension mismatch: {u.dimension} != {v.dimension}")
    dot = sum(a * b for a, b in zip(u.values, v.values))
    norm_u = math.sqrt(sum(a * a for a in u.values))
    norm_v = math.sqrt(sum(b * b for b in v.values))
    if norm_u == 0.0 or norm_v == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


def outcome(function, u: EmbeddingVector, v: EmbeddingVector) -> tuple:
    try:
        return ("value", repr(function(u, v)))
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


def random_vector_pair(rng: random.Random) -> tuple[EmbeddingVector, EmbeddingVector]:
    dimension = rng.choice((1, 2, 3, 5, 16, 256))
    density = rng.choice((0.1, 0.5, 1.0))

    def draw(size: int) -> EmbeddingVector:
        return EmbeddingVector(tuple(
            random_component(rng) if rng.random() < density else rng.choice((0.0, -0.0))
            for _ in range(size)))

    u = draw(dimension)
    kind = rng.randrange(6)
    if kind == 0:
        v = draw(rng.choice((1, 2, 4, 256)))          # usually a dimension mismatch
    elif kind == 1:
        v = EmbeddingVector(u.values)                 # a tie with itself
    elif kind == 2:
        v = EmbeddingVector(tuple(-a for a in u.values))
    else:
        v = draw(dimension)
    return u, v


def test_cosine_similarity_matches_dense_reference_bit_for_bit():
    rng = random.Random(20261018)
    errors = 0
    for _ in range(10000):
        u, v = random_vector_pair(rng)
        for a, b in ((u, v), (v, u), (u, v)):   # the repeat reads the cached norms
            expected = outcome(reference_cosine, a, b)
            assert outcome(cosine_similarity, a, b) == expected, (a, b)
            errors += expected[0] is ValueError
    # the draw reaches every branch: values, mismatches and zero vectors
    assert 0 < errors < 30000


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
    ]
    for a, b in pairs:
        u, v = EmbeddingVector(a), EmbeddingVector(b)
        assert outcome(cosine_similarity, u, v) == outcome(reference_cosine, u, v)
        assert outcome(cosine_similarity, v, u) == outcome(reference_cosine, v, u)


def test_cached_norm_and_support_leave_equality_hash_and_repr_alone():
    fresh = vec(0.0, 3.0, -0.0, 4.0)
    used = vec(0.0, 3.0, -0.0, 4.0)
    before = (repr(used), hash(used))
    assert cosine_similarity(used, vec(1.0, 1.0, 1.0, 1.0)) == pytest.approx(7 / 10)
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
    paragraphs = [Paragraph.from_sentences(f"P{i}", (Sentence(text),))
                  for i, text in enumerate(PARAGRAPH_TEXTS)]
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
    stub = [stub_embedder.embed(p.text).values for p in paragraphs]
    embedder = http_embedder([
        _FakeResponse(payload={"vectors": [list(v) for v in stub]}),
        _FakeResponse(payload={"vectors": [list(stub_embedder.embed(e.in_sentence).values)
                                           for e in excerpts]}),
    ])
    links = link_excerpts(paragraphs, excerpts, embedder, threshold=0.3)
    assert len(embedder.session.calls) == 2
    assert [call["input"] for call in embedder.session.calls] == [
        PARAGRAPH_TEXTS, [sentence for _, sentence in EXCERPT_SENTENCES]]
    assert [(l.excerpt_id, l.paragraph_id, l.similarity.hex()) for l in links] == \
        reference_links(paragraphs, excerpts, stub_embedder, 0.3)


@pytest.mark.parametrize("threshold", [0.0, 0.3, 0.7])
def test_link_excerpts_matches_per_text_reference(stub_embedder, threshold):
    paragraphs, excerpts = linking_inputs()
    links = link_excerpts(paragraphs, excerpts, stub_embedder, threshold=threshold)
    assert [(l.excerpt_id, l.paragraph_id, l.similarity.hex()) for l in links] == \
        reference_links(paragraphs, excerpts, stub_embedder, threshold)


def test_stub_embed_many_is_embed_per_text(stub_embedder):
    texts = ["alpha beta", "gamma", "alpha beta"]
    assert stub_embedder.embed_many(texts) == [stub_embedder.embed(t) for t in texts]
    assert stub_embedder.embed_many([]) == []
