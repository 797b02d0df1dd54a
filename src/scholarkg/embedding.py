"""Text embedding providers and vector similarity.

Two interchangeable backends: a deterministic hashed bag-of-words stub
for offline runs and tests, and an HTTP client for a real embedding
service.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
import os
import re
import time
from collections import Counter, namedtuple
from typing import Iterable, Protocol, Sequence

from .kg.terms import _Value

__all__ = [
    "EmbeddingVector",
    "cosine_similarities",
    "Embedder",
    "HashedBagOfWordsEmbedder",
    "HttpEmbedder",
    "BackendConfig",
    "BackendError",
    "BackendTransportError",
    "BackendProtocolError",
]


class EmbeddingVector(_Value, namedtuple("_EmbeddingVectorFields", "values")):
    """A fixed-dimension vector of finite floats, ``values``.

    The nonzero support and the L2 norm are computed when the vector is
    made and kept outside the fields, in the instance's ``__dict__``, so
    ``==``, ``hash`` and ``repr`` see only ``values``. The support is the
    ascending indices of the components that are true, that is ``!= 0.0``
    (±0.0 is dropped, and NaN never gets this far), and their values.
    """

    def __new__(cls, values: tuple[float, ...]):
        if not values:
            raise ValueError("an embedding vector cannot be empty")
        return cls._from_support(values, tuple(itertools.compress(range(len(values)), values)),
                                 tuple(itertools.compress(values, values)))

    @classmethod
    def _from_support(cls, values: tuple[float, ...], indices: tuple[int, ...],
                      nonzero: tuple[float, ...]) -> "EmbeddingVector":
        # nonzero are the true components, at the ascending indices; the
        # others are ±0.0, finite and adding nothing to the norm. A sum is
        # finite only when every term is; the per-component check runs
        # only for a bad term or a sum that overflowed.
        if not math.isfinite(sum(nonzero)) and not all(map(math.isfinite, nonzero)):
            raise ValueError("embedding components must be finite")
        self = tuple.__new__(cls, (values,))
        # The squares of the support in ascending order: the dense sum
        # minus its +0.0 terms, which cannot change a sum that starts at +0.0.
        self.__dict__.update(_support=(indices, nonzero),
                             _norm=math.sqrt(sum(map(operator.mul, nonzero, nonzero))))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    @property
    def dimension(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values: Iterable[float]) -> "EmbeddingVector":
        return cls(tuple(float(v) for v in values))


def cosine_similarities(us: Iterable[EmbeddingVector],
                        vectors: Iterable[EmbeddingVector]) -> list[list[float]]:
    """The cosine of each ``u`` with each vector, clamped to [-1, 1]: one
    row per ``u``, in order.

    Each ``u`` is checked against the vectors in order, each for its
    dimension and then for being zero, so the first bad pair in row-major
    order raises ``ValueError``. Without vectors nothing is checked.
    """
    us, vectors = list(us), list(vectors)
    components = [v.values for v in vectors]
    norms = [v._norm for v in vectors]
    dimensions, has_zero = set(map(len, components)), 0.0 in norms
    for u in us:
        dimension, norm_u = len(u.values), u._norm
        if dimensions != {dimension} or norm_u == 0.0 or has_zero:
            # a pair may be bad: raise for the first
            for v_values, norm_v in zip(components, norms):
                if len(v_values) != dimension:
                    raise ValueError(f"dimension mismatch: {dimension} != {len(v_values)}")
                if norm_u == 0.0 or norm_v == 0.0:
                    raise ValueError("cosine similarity is undefined for a zero vector")
    if not (us and vectors):
        return [[] for _ in us]
    # The column of each component index that some u's support holds, built
    # once and shared by every u. One index makes itemgetter return the
    # item itself, so it gets a 1-tuple.
    needed = list(set().union(*(u._support[0] for u in us)))
    gather = operator.itemgetter(*needed) if len(needed) > 1 else lambda c: (c[needed[0]],)
    columns = dict(zip(needed, zip(*map(gather, components))))
    mul, repeat = operator.mul, itertools.repeat
    rows = []
    for u in us:
        # Each dot product is one sum over u's support: it adds the same
        # nonzero products in the same index order as the dense sum, and
        # the ±0.0 terms it adds or drops cannot change a float sum that
        # starts at +0.0.
        indices, values = u._support
        products = [map(mul, repeat(value), columns[i]) for i, value in zip(indices, values)]
        dots = map(sum, zip(*products))
        quotients = map(operator.truediv, dots, map(mul, repeat(u._norm), norms))
        # A quotient inside [-1, 1] is its own clamp, without the calls.
        rows.append([q if -1.0 <= q <= 1.0 else max(-1.0, min(1.0, q)) for q in quotients])
    return rows


class Embedder(Protocol):
    def embed(self, text: str) -> EmbeddingVector: ...

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]: ...


# The stub embedder's vector dimension.
STUB_DIMENSION = 256


# A bytes.translate table that keeps a-z and 0-9 and makes every other
# byte a space.
_SEPARATORS = bytes(c if c in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32
                    for c in range(256))


class _Buckets(dict):
    """Token to stub component, hashed on first lookup."""

    def __missing__(self, token: str) -> int:
        index = self[token] = HashedBagOfWordsEmbedder.bucket(token, STUB_DIMENSION)
        return index


class HashedBagOfWordsEmbedder:
    """Deterministic stub embedder.

    Tokens are the lowercase alphanumeric runs of the text. A non-blank
    text without such a run, such as ``"* * *"`` or a line of Japanese, is
    one token, its stripped text; blank text is refused. Each token is
    hashed with BLAKE2s (8-byte digest, little-endian) modulo
    ``STUB_DIMENSION`` to pick a component, component values are token
    counts, and the vector is L2-normalized. The construction depends
    only on the bytes of the text, so it is stable across processes, and
    as a bag of words it is invariant under token reordering.

    Each instance keeps a memo from token to component, a dict that hashes
    a token on its first lookup, so a token is hashed once per instance
    however often it recurs. The memo grows with the distinct tokens the
    instance has seen and is never trimmed; make a new instance to start
    empty.
    """

    def __init__(self) -> None:
        self._buckets = _Buckets()

    @staticmethod
    def bucket(token: str, dimension: int) -> int:
        digest = hashlib.blake2s(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little") % dimension

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise ValueError("cannot embed empty text")
        # Each non-ASCII character becomes one "?" and then a space, so
        # split() yields exactly the [a-z0-9]+ runs of the lowercased text.
        spaced = text.lower().encode("ascii", "replace").translate(_SEPARATORS).decode()
        tokens = spaced.split() or [text.strip()]
        if not tokens[0]:
            raise ValueError("text contains no embeddable tokens")
        counts = Counter(map(self._buckets.__getitem__, tokens))
        # The counts are integers, so the sum of their squares is exact in
        # any order and equals the dense float sum; so does each quotient.
        norm = math.sqrt(sum(map(operator.mul, counts.values(), counts.values())))
        # The quotients are positive, so the counted indices are the support.
        indices = sorted(counts)
        nonzero = [counts[index] / norm for index in indices]
        values = [0.0] * STUB_DIMENSION
        for index, value in zip(indices, nonzero):
            values[index] = value
        return EmbeddingVector._from_support(tuple(values), tuple(indices), tuple(nonzero))

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [self.embed(text) for text in texts]


class BackendError(Exception):
    """An HTTP backend, the language model or the embedder, failed."""


class BackendTransportError(BackendError):
    """The backend was unreachable, refused the request or kept failing
    after retries."""


class BackendProtocolError(BackendError):
    """The backend answered with a payload we cannot interpret."""


class BackendConfig(_Value, namedtuple("_BackendConfigFields",
                                        "url model auth_env timeout retries")):
    """Connection settings for an HTTP backend.

    The auth token is read from the environment variable named by
    ``auth_env`` at request time; it is never stored in config files.
    ``retries`` must not be negative, and ``timeout`` must be a finite
    positive number of seconds.
    """

    __slots__ = ()

    def __new__(cls, url: str, model: str = "", auth_env: str = "",
                timeout: float = 30.0, retries: int = 2):
        if retries < 0:
            raise ValueError(f"retries must not be negative: {retries}")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ValueError(f"timeout must be a finite positive number of seconds: "
                             f"{timeout}")
        return tuple.__new__(cls, (url, model, auth_env, timeout, retries))


# Retry n waits _BACKOFF_S * n s, or a 429's Retry-After up to the cap.
_BACKOFF_S = 0.1
_MAX_RETRY_AFTER_S = 5.0
_DELAY_SECONDS = re.compile(r"[0-9]+")


class _HttpBackend:
    """The transport both HTTP clients share: one session, one config."""

    def __init__(self, config: BackendConfig, session=None):
        if session is None:
            import requests

            session = requests.Session()
        self.config = config
        self.session = session

    def _post(self, payload: dict):
        """POST ``payload``, with ``model`` added when set, and return the
        decoded JSON body.

        Connection failures, 429 and 5xx responses are retried: retry ``n``
        waits ``_BACKOFF_S * n`` seconds, or longer when a 429 carries a
        numeric ``Retry-After`` (up to ``_MAX_RETRY_AFTER_S``). Any other
        4xx fails at once.
        """
        import requests

        config = self.config
        if config.model:
            payload["model"] = config.model
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(config.auth_env, "") if config.auth_env else ""
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error: BackendError | None = None
        retry_after = 0.0
        for attempt in range(config.retries + 1):
            if attempt:
                time.sleep(max(_BACKOFF_S * attempt, retry_after))
            retry_after = 0.0
            try:
                response = self.session.post(config.url, json=payload, headers=headers,
                                             timeout=config.timeout)
            except requests.RequestException as exc:
                last_error = BackendTransportError(f"request to {config.url} failed: {exc}")
                continue
            status = response.status_code
            if status == 429 or status >= 500:
                last_error = BackendTransportError(f"backend returned status {status}")
                delay = response.headers.get("Retry-After", "").strip()
                if status == 429 and _DELAY_SECONDS.fullmatch(delay):
                    retry_after = min(float(delay), _MAX_RETRY_AFTER_S)
                continue
            if status >= 400:
                raise BackendTransportError(f"backend returned status {status}")
            try:
                return response.json()
            except ValueError as exc:
                raise BackendProtocolError(f"backend response is not JSON: {exc}") from exc
        # retries is never negative, so an attempt ran and set last_error
        raise last_error


def _vector_of(raw) -> EmbeddingVector:
    """A vector from one decoded JSON array of numbers."""
    if not isinstance(raw, list) or not all(type(v) in (int, float) for v in raw):
        raise BackendProtocolError(f"embedding is not a list of numbers: {raw!r:.80}")
    try:
        return EmbeddingVector.of(raw)
    except (ValueError, OverflowError) as exc:
        raise BackendProtocolError(f"malformed embedding: {exc}") from exc


class HttpEmbedder(_HttpBackend):
    """Client for an embedding service.

    Sends ``{"input": [texts], "model": ...}`` and accepts either an
    OpenAI-style ``{"data": [{"embedding": [...]}]}`` payload or a plain
    ``{"vectors": [[...]]}`` payload. All responses must share one
    dimension.
    """

    _dimension: int | None = None

    def _vectors_from_payload(self, payload) -> list[list[float]]:
        if isinstance(payload, dict):
            if "data" in payload:
                try:
                    return [item["embedding"] for item in payload["data"]]
                except (TypeError, KeyError) as exc:
                    raise BackendProtocolError(f"malformed embedding payload: {exc}") from exc
            if "vectors" in payload:
                return payload["vectors"]
        raise BackendProtocolError("embedding payload has neither 'data' nor 'vectors'")

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            return []
        if any(not t for t in texts):
            raise ValueError("cannot embed empty text")
        raw = self._vectors_from_payload(self._post({"input": list(texts)}))
        if not isinstance(raw, list):
            raise BackendProtocolError("embedding payload does not hold a list of vectors")
        if len(raw) != len(texts):
            raise BackendProtocolError(
                f"expected {len(texts)} vectors, got {len(raw)}")
        vectors = [_vector_of(v) for v in raw]
        for vector in vectors:
            if self._dimension is None:
                self._dimension = vector.dimension
            elif vector.dimension != self._dimension:
                raise BackendProtocolError(
                    f"backend changed dimension from {self._dimension} to {vector.dimension}")
        return vectors

    def embed(self, text: str) -> EmbeddingVector:
        return self.embed_many([text])[0]
