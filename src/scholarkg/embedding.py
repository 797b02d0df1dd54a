"""Text embedding providers and vector similarity.

Two interchangeable backends: a deterministic hashed bag-of-words stub
for offline runs and tests, and an HTTP client for a real embedding
service.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import re
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Protocol, Sequence

__all__ = [
    "EmbeddingVector",
    "cosine_similarity",
    "Embedder",
    "HashedBagOfWordsEmbedder",
    "HttpEmbedder",
    "EmbeddingError",
    "EmbeddingTransportError",
    "EmbeddingProtocolError",
    "BackendConfig",
]


class EmbeddingError(Exception):
    pass


class EmbeddingTransportError(EmbeddingError):
    """The backend was unreachable or kept failing after retries."""


class EmbeddingProtocolError(EmbeddingError):
    """The backend answered with a payload we cannot interpret."""


@dataclass(frozen=True)
class EmbeddingVector:
    """A fixed-dimension vector of finite floats.

    The L2 norm and the nonzero support are computed on first use and
    kept outside the dataclass fields, so ``==``, ``hash`` and ``repr``
    see only ``values``.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("an embedding vector cannot be empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("embedding components must be finite")

    @property
    def dimension(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values: Iterable[float]) -> "EmbeddingVector":
        return cls(tuple(float(v) for v in values))

    @cached_property
    def _norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.values))

    @cached_property
    def _support(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Ascending indices of the nonzero components, and their values."""
        indices = tuple(i for i, a in enumerate(self.values) if a != 0.0)
        return indices, tuple(map(self.values.__getitem__, indices))


def cosine_similarity(u: EmbeddingVector, v: EmbeddingVector) -> float:
    """Cosine of the angle between two vectors, clamped to [-1, 1]."""
    if u.dimension != v.dimension:
        raise ValueError(f"dimension mismatch: {u.dimension} != {v.dimension}")
    norm_u = u._norm
    norm_v = v._norm
    if norm_u == 0.0 or norm_v == 0.0:
        raise ValueError("cosine similarity is undefined for a zero vector")
    # The dot product runs over the sparser vector's support. It adds the
    # same products in the same index order as the dense sum, minus the
    # ±0.0 terms, which cannot change a float sum that starts at +0.0.
    sparse, dense = (u, v) if len(u._support[0]) <= len(v._support[0]) else (v, u)
    indices, values = sparse._support
    dot = sum(map(operator.mul, values, map(dense.values.__getitem__, indices)))
    return max(-1.0, min(1.0, dot / (norm_u * norm_v)))


class Embedder(Protocol):
    def embed(self, text: str) -> EmbeddingVector: ...

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


_TOKEN = re.compile(r"[a-z0-9]+")


class HashedBagOfWordsEmbedder:
    """Deterministic stub embedder.

    Tokens are the lowercase alphanumeric runs of the text. Each token is
    hashed with BLAKE2s (8-byte digest, little-endian) modulo the
    dimension to pick a component, component values are token counts, and
    the vector is L2-normalized. The construction depends only on the
    bytes of the text, so it is stable across processes, and as a bag of
    words it is invariant under token reordering.
    """

    def __init__(self, dimension: int = 256):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    @staticmethod
    def bucket(token: str, dimension: int) -> int:
        digest = hashlib.blake2s(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little") % dimension

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise ValueError("cannot embed empty text")
        tokens = _TOKEN.findall(text.lower())
        if not tokens:
            raise ValueError("text contains no embeddable tokens")
        counts = [0.0] * self.dimension
        for token in tokens:
            counts[self.bucket(token, self.dimension)] += 1.0
        norm = math.sqrt(sum(c * c for c in counts))
        return EmbeddingVector(tuple(c / norm for c in counts))

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [self.embed(text) for text in texts]


@dataclass(frozen=True)
class BackendConfig:
    """Connection settings for an HTTP backend.

    The auth token is read from the environment variable named by
    ``auth_env`` at request time; it is never stored in config files.
    """

    url: str
    model: str = ""
    auth_env: str = ""
    timeout: float = 30.0
    retries: int = 2
    backoff: float = 0.1


def _auth_headers(config: BackendConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(config.auth_env, "") if config.auth_env else ""
    if token:
        headers["Authorization"] = f"Bearer {token}"
    return headers


# The longest wait a 429's Retry-After can ask for before a retry.
_MAX_RETRY_AFTER_S = 5.0
_DELAY_SECONDS = re.compile(r"[0-9]+")


def _retry_after(response) -> float:
    """The numeric ``Retry-After`` of a response in seconds, else 0."""
    value = response.headers.get("Retry-After", "").strip()
    return min(float(value), _MAX_RETRY_AFTER_S) if _DELAY_SECONDS.fullmatch(value) else 0.0


def post_with_retries(session, config: BackendConfig, payload: dict,
                      error_cls: type[Exception]):
    """POST ``payload``, retrying connection failures, 429 and 5xx responses.

    Retry ``n`` waits ``config.backoff * n`` seconds, or longer when a 429
    carries a numeric ``Retry-After`` (up to ``_MAX_RETRY_AFTER_S``). A zero
    ``backoff`` never waits. Any other 4xx fails at once.
    """
    import requests

    last_error: Exception | None = None
    retry_after = 0.0
    for attempt in range(config.retries + 1):
        if attempt and config.backoff:
            time.sleep(max(config.backoff * attempt, retry_after))
        retry_after = 0.0
        try:
            response = session.post(config.url, json=payload,
                                    headers=_auth_headers(config), timeout=config.timeout)
        except requests.RequestException as exc:
            last_error = error_cls(f"request to {config.url} failed: {exc}")
            continue
        if response.status_code == 429 or response.status_code >= 500:
            last_error = error_cls(f"backend returned status {response.status_code}")
            if response.status_code == 429:
                retry_after = _retry_after(response)
            continue
        if response.status_code >= 400:
            raise error_cls(f"backend returned status {response.status_code}")
        return response
    raise last_error if last_error is not None else error_cls("request failed")


class HttpEmbedder:
    """Client for an embedding service.

    Sends ``{"model": ..., "input": [texts]}`` and accepts either an
    OpenAI-style ``{"data": [{"embedding": [...]}]}`` payload or a plain
    ``{"vectors": [[...]]}`` payload. All responses must share one
    dimension.
    """

    def __init__(self, config: BackendConfig, session=None):
        if session is None:
            import requests

            session = requests.Session()
        self.config = config
        self.session = session
        self._dimension: int | None = None

    def _vectors_from_payload(self, payload) -> list[list[float]]:
        if isinstance(payload, dict):
            if "data" in payload:
                try:
                    return [item["embedding"] for item in payload["data"]]
                except (TypeError, KeyError) as exc:
                    raise EmbeddingProtocolError(f"malformed embedding payload: {exc}") from exc
            if "vectors" in payload:
                return payload["vectors"]
        raise EmbeddingProtocolError("embedding payload has neither 'data' nor 'vectors'")

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            return []
        if any(not t for t in texts):
            raise ValueError("cannot embed empty text")
        payload = {"input": list(texts)}
        if self.config.model:
            payload["model"] = self.config.model
        response = post_with_retries(self.session, self.config, payload,
                                     EmbeddingTransportError)
        try:
            raw = self._vectors_from_payload(response.json())
        except ValueError as exc:
            raise EmbeddingProtocolError(f"backend response is not JSON: {exc}") from exc
        if len(raw) != len(texts):
            raise EmbeddingProtocolError(
                f"expected {len(texts)} vectors, got {len(raw)}")
        vectors = [EmbeddingVector.of(v) for v in raw]
        for vector in vectors:
            if self._dimension is None:
                self._dimension = vector.dimension
            elif vector.dimension != self._dimension:
                raise EmbeddingProtocolError(
                    f"backend changed dimension from {self._dimension} to {vector.dimension}")
        return vectors

    def embed(self, text: str) -> EmbeddingVector:
        return self.embed_many([text])[0]
