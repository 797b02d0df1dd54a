"""Sliding-window retrieval baseline.

Documents are cut into fixed-size overlapping token windows and the
question is answered from the windows most similar to it, with no
knowledge graph involved. This is the comparison point for the
graph-backed pipeline.
"""

from __future__ import annotations

from collections import namedtuple

from .embedding import Embedder, cosine_similarities
from .kg.terms import _Value

__all__ = ["Chunk", "chunk_document", "chunk_corpus", "RetrievedChunk",
           "retrieve_top_k"]


# Chunks per embedding request in retrieve_top_k: a request per chunk
# costs a round trip each, and one request for every chunk of a corpus
# holds all their vectors at once.
_EMBED_BATCH = 64


class Chunk(_Value, namedtuple("_ChunkFields", "chunk_id document_id text")):
    """A token window of a document."""

    __slots__ = ()


def chunk_document(doc_id: str, text: str, max_tokens: int = 100,
                   overlap_ratio: float = 0.05) -> list[Chunk]:
    """Split a document into overlapping windows of whitespace tokens.

    Windows hold at most ``max_tokens`` tokens and consecutive windows
    overlap by ``round(overlap_ratio * max_tokens)`` tokens, i.e. the
    window start advances by the difference. A new window opens only
    while the previous one could not reach the end of the document, so
    a document of at most ``max_tokens`` tokens is a single chunk.
    """
    if max_tokens < 1:
        raise ValueError("max_tokens must be positive")
    if not 0.0 <= overlap_ratio < 1.0:
        raise ValueError("overlap_ratio must be in [0, 1)")
    overlap = round(overlap_ratio * max_tokens)
    stride = max_tokens - overlap
    if stride < 1:
        raise ValueError("overlap leaves no room for the window to advance")

    tokens = text.split()
    if not tokens:
        return []
    starts = [0]
    while starts[-1] + max_tokens < len(tokens):
        starts.append(starts[-1] + stride)
    return [
        Chunk(
            chunk_id=f"{doc_id}-{index:04d}",
            document_id=doc_id,
            text=" ".join(tokens[start:start + max_tokens]),
        )
        for index, start in enumerate(starts)
    ]


def chunk_corpus(documents: dict[str, str], max_tokens: int = 100,
                 overlap_ratio: float = 0.05) -> list[Chunk]:
    """Chunk every document of a corpus, ordered by document id."""
    chunks: list[Chunk] = []
    for doc_id in sorted(documents):
        chunks.extend(chunk_document(doc_id, documents[doc_id],
                                     max_tokens=max_tokens,
                                     overlap_ratio=overlap_ratio))
    return chunks


class RetrievedChunk(_Value, namedtuple("_RetrievedChunkFields", "chunk similarity")):
    __slots__ = ()


def retrieve_top_k(chunks: list[Chunk], question: str, k: int,
                   embedder: Embedder) -> list[RetrievedChunk]:
    """The ``k`` chunks most similar to the question.

    Similarity is cosine over the embedder's vectors; ties break on the
    chunk id so retrieval is deterministic. Chunks are embedded 64 texts
    per ``embed_many`` call and each batch is scored against the question
    in one ``cosine_similarities`` call, so only one slice of vectors is
    held at a time.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not question.strip():
        raise ValueError("question must be non-empty")
    query_vector = embedder.embed(question)
    scored = []
    for start in range(0, len(chunks), _EMBED_BATCH):
        batch = chunks[start:start + _EMBED_BATCH]
        similarities = cosine_similarities(
            query_vector, embedder.embed_many([c.text for c in batch]))
        scored += map(RetrievedChunk, batch, similarities)
    scored.sort(key=lambda r: (-r.similarity, r.chunk.chunk_id))
    return scored[:k]
