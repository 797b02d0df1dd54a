"""The stub embedder as it was before it counted bucket indices with a
``Counter``, with the vector validation it built its vectors with.

``HashedBagOfWordsEmbedder`` and ``EmbeddingVector`` are kept verbatim:
one dict lookup and one float increment per token, the dense sum of
squares over all ``STUB_DIMENSION`` components, a quotient for every
component, a per-component finiteness check, and the support's values
gathered by index. They are the reference that the differential test in
``test_embedding.py`` compares ``scholarkg.embedding`` against, bit for
bit, on every drawn text.
"""

import hashlib
import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class EmbeddingVector:
    """A fixed-dimension vector of finite floats.

    The nonzero support and the L2 norm are computed when the vector is
    made and kept outside the dataclass fields, so ``==``, ``hash`` and
    ``repr`` see only ``values``. The support is the ascending indices of
    the components that are true, that is ``!= 0.0`` (±0.0 is dropped,
    and NaN never gets this far), and their values.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.values
        if not values:
            raise ValueError("an embedding vector cannot be empty")
        if not all(map(math.isfinite, values)):
            raise ValueError("embedding components must be finite")
        indices = tuple(itertools.compress(range(len(values)), values))
        nonzero = tuple(map(values.__getitem__, indices))
        object.__setattr__(self, "_support", (indices, nonzero))
        # The squares of the support in ascending order: the dense sum
        # minus its +0.0 terms, which cannot change a sum that starts at +0.0.
        object.__setattr__(self, "_norm", math.sqrt(sum(map(operator.mul, nonzero, nonzero))))

    @property
    def dimension(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values: Iterable[float]) -> "EmbeddingVector":
        return cls(tuple(float(v) for v in values))


_TOKEN = re.compile(r"[a-z0-9]+")
# The stub embedder's vector dimension.
STUB_DIMENSION = 256


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

    Each instance keeps a plain dict from token to component, so a token
    is hashed once per instance however often it recurs. The dict grows
    with the distinct tokens the instance has seen and is never trimmed;
    make a new instance to start empty.
    """

    def __init__(self) -> None:
        self._buckets: dict[str, int] = {}

    @staticmethod
    def bucket(token: str, dimension: int) -> int:
        digest = hashlib.blake2s(token.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little") % dimension

    def embed(self, text: str) -> EmbeddingVector:
        if not text:
            raise ValueError("cannot embed empty text")
        tokens = _TOKEN.findall(text.lower()) or [text.strip()]
        if not tokens[0]:
            raise ValueError("text contains no embeddable tokens")
        buckets = self._buckets
        counts = [0.0] * STUB_DIMENSION
        for token in tokens:
            index = buckets.get(token)
            if index is None:
                index = buckets[token] = self.bucket(token, STUB_DIMENSION)
            counts[index] += 1.0
        norm = math.sqrt(sum(map(operator.mul, counts, counts)))
        return EmbeddingVector(tuple([c / norm for c in counts]))

    def embed_many(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        return [self.embed(text) for text in texts]
