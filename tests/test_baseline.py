import math

import pytest

from scholarkg.baseline import (
    Chunk,
    RetrievedChunk,
    chunk_corpus,
    chunk_document,
    retrieve_top_k,
)
from scholarkg.embedding import BackendConfig, HashedBagOfWordsEmbedder, HttpEmbedder, \
    cosine_similarities


def words(n: int, prefix: str = "w") -> str:
    return " ".join(f"{prefix}{i}" for i in range(n))


def expected_count(total: int, max_tokens: int = 100, stride: int = 95) -> int:
    if total <= max_tokens:
        return 1
    return 1 + math.ceil((total - max_tokens) / stride)


def test_single_chunk_when_text_fits():
    chunks = chunk_document("doc", words(100))
    assert len(chunks) == 1
    assert len(chunks[0].text.split()) == 100
    assert chunks[0].chunk_id == "doc-0000"


def test_second_chunk_starts_at_stride():
    chunks = chunk_document("doc", words(196))
    assert len(chunks) == 3
    assert chunks[0].text.split()[0] == "w0"
    assert chunks[1].text.split()[0] == "w95"
    assert chunks[2].text.split()[0] == "w190"
    assert len(chunks[2].text.split()) == 6


def test_overlap_tokens_repeat_between_neighbours():
    chunks = chunk_document("doc", words(195))
    assert len(chunks) == 2
    tail = chunks[0].text.split()[-5:]
    head = chunks[1].text.split()[:5]
    assert tail == head == ["w95", "w96", "w97", "w98", "w99"]


@pytest.mark.parametrize("total", [1, 99, 100, 101, 195, 196, 290, 291, 1000])
def test_chunk_count_matches_closed_form(total):
    assert len(chunk_document("doc", words(total))) == expected_count(total)


def test_chunk_count_for_corpus_sizes():
    assert len(chunk_document("doc", words(5895))) == 62
    assert len(chunk_document("doc", words(5800))) == 61


def test_custom_overlap_changes_stride():
    # stride = 10 - round(0.2 * 10) = 8; the window at 16 reaches token 25
    chunks = chunk_document("doc", words(26), max_tokens=10, overlap_ratio=0.2)
    assert [c.text.split()[0] for c in chunks] == ["w0", "w8", "w16"]
    assert len(chunks[-1].text.split()) == 10


def test_empty_text_yields_no_chunks():
    assert chunk_document("doc", "   \n\t  ") == []


def test_chunk_ids_are_zero_padded_and_ordered():
    chunks = chunk_document("doc", words(1000))
    assert [c.chunk_id for c in chunks][:3] == ["doc-0000", "doc-0001", "doc-0002"]
    assert all(c.document_id == "doc" for c in chunks)


def test_chunk_document_validates_arguments():
    with pytest.raises(ValueError):
        chunk_document("doc", "text", max_tokens=0)
    with pytest.raises(ValueError):
        chunk_document("doc", "text", overlap_ratio=1.0)
    with pytest.raises(ValueError):
        chunk_document("doc", "text", overlap_ratio=-0.1)
    with pytest.raises(ValueError):
        # overlap so large the window never advances
        chunk_document("doc", "text", max_tokens=10, overlap_ratio=0.99)


def test_chunk_corpus_orders_documents_by_id():
    corpus = {"beta": words(150), "alpha": words(50)}
    chunks = chunk_corpus(corpus)
    assert [c.chunk_id for c in chunks] == ["alpha-0000", "beta-0000", "beta-0001"]


def test_retrieve_top_k_ranks_by_similarity():
    embedder = HashedBagOfWordsEmbedder()
    chunks = [
        Chunk("a-0000", "a", "metadata extraction from pdf proposals"),
        Chunk("b-0000", "b", "databases store json documents"),
        Chunk("c-0000", "c", "unrelated poetry about gardens"),
    ]
    hits = retrieve_top_k(chunks, "how is metadata extracted from pdf proposals",
                          2, embedder)
    assert [h.chunk.chunk_id for h in hits] == ["a-0000", "b-0000"]
    assert hits[0].similarity > hits[1].similarity
    assert isinstance(hits[0], RetrievedChunk)


def test_retrieve_top_k_breaks_ties_by_chunk_id():
    embedder = HashedBagOfWordsEmbedder()
    chunks = [
        Chunk("b-0000", "b", "same words here"),
        Chunk("a-0000", "a", "same words here"),
    ]
    hits = retrieve_top_k(chunks, "same words here", 2, embedder)
    assert [h.chunk.chunk_id for h in hits] == ["a-0000", "b-0000"]
    assert hits[0].similarity == pytest.approx(hits[1].similarity)


def test_retrieve_top_k_validates_arguments():
    embedder = HashedBagOfWordsEmbedder()
    chunk = Chunk("a-0000", "a", "text")
    with pytest.raises(ValueError):
        retrieve_top_k([chunk], "q", 0, embedder)
    with pytest.raises(ValueError):
        retrieve_top_k([chunk], "  ", 1, embedder)
    assert retrieve_top_k([], "q", 3, embedder) == []


def test_retrieve_top_k_caps_at_available_chunks():
    embedder = HashedBagOfWordsEmbedder()
    chunks = [Chunk("a-0000", "a", "alpha beta")]
    hits = retrieve_top_k(chunks, "alpha", 10, embedder)
    assert len(hits) == 1


class _VectorResponse:
    status_code = 200
    headers: dict = {}

    def __init__(self, vectors):
        self.vectors = vectors

    def json(self):
        return {"vectors": self.vectors}


class _VectorSession:
    """A fake HTTP session answering every request with stub vectors."""

    def __init__(self):
        self.stub = HashedBagOfWordsEmbedder()
        self.calls: list[list[str]] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(json["input"])
        return _VectorResponse([list(self.stub.embed(text).values) for text in json["input"]])


@pytest.mark.parametrize("n_chunks", [0, 1, 64, 65, 641])
def test_retrieve_top_k_embeds_chunks_64_per_request(n_chunks):
    chunks = chunk_document("doc", words(95 * n_chunks + 5, prefix="t"))[:n_chunks]
    chunks += [Chunk(f"x-{i:04d}", "x", words(3 + i % 7, prefix="t"))
               for i in range(n_chunks - len(chunks))]
    session = _VectorSession()
    embedder = HttpEmbedder(BackendConfig(url="http://embed.test/v1"), session=session)
    question = "which t1 t2 t3 words"
    hits = retrieve_top_k(chunks, question, 10, embedder)
    assert [len(batch) for batch in session.calls] == \
        [1] + [min(64, n_chunks - start) for start in range(0, n_chunks, 64)]
    assert len(session.calls) == 1 + math.ceil(n_chunks / 64)
    # The same ranking and bit-identical similarities as one stub embed per chunk.
    stub = session.stub
    query = stub.embed(question)
    reference = sorted((-cosine_similarities((query,), (stub.embed(c.text),))[0][0], c.chunk_id)
                       for c in chunks)[:10]
    assert [(h.chunk.chunk_id, h.similarity.hex()) for h in hits] == \
        [(chunk_id, (-negated).hex()) for negated, chunk_id in reference]
    assert [(h.chunk.chunk_id, h.similarity.hex()) for h in hits] == [
        (h.chunk.chunk_id, h.similarity.hex()) for h in retrieve_top_k(chunks, question, 10, stub)]
