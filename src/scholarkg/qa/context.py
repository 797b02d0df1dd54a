"""Context selection and answer generation.

Paragraphs containing the query's entity names are scored by keyword
frequency, then a diverse subset is chosen by farthest-point traversal
over their embeddings, and the surviving texts are handed to the gateway
as the grounding context for the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..document import document_id_of
from ..embedding import Embedder, cosine_similarity
from ..gateway import Gateway, GatewayRequest
from ..kg.graph import KnowledgeGraph, keyword_frequency, paragraphs_containing
from ..kg.terms import Iri, entity_phrase
from .engine import load_template

__all__ = ["ScoredParagraph", "select_context", "AnswerResult", "generate_answer"]


@dataclass(frozen=True)
class ScoredParagraph:
    """A context paragraph with its keyword score and source document."""

    node: Iri
    text: str
    keyword_frequency: int

    @property
    def document_id(self) -> str:
        """The paper hash embedded in the paragraph identifier."""
        return document_id_of(self.node.local_name())


def select_context(graph: KnowledgeGraph, query_entities: set[str],
                   top_n: int = 10, diverse_k: int = 5,
                   embedder: Embedder | None = None) -> list[ScoredParagraph]:
    """Pick a small, diverse set of paragraphs naming the query entities.

    Candidates are every paragraph containing at least one entity name.
    The ``top_n`` highest keyword-frequency paragraphs survive; from
    those, ``diverse_k`` are chosen greedily, each new pick maximising
    its minimum embedding distance to the already-picked ones (ties go
    to the higher keyword frequency, then the smaller node IRI). Without
    an embedder the top ``diverse_k`` by frequency are returned.
    """
    if top_n < 1 or diverse_k < 1:
        raise ValueError("top_n and diverse_k must be positive")
    if diverse_k > top_n:
        raise ValueError("diverse_k must not exceed top_n")
    names = [entity_phrase(key) for key in sorted(query_entities)]
    scored = [
        ScoredParagraph(
            node=node,
            text=text,
            keyword_frequency=keyword_frequency(text, names),
        )
        for node, text in paragraphs_containing(graph, names)
    ]
    scored.sort(key=lambda p: (-p.keyword_frequency, p.node.value))
    shortlist = scored[:top_n]
    if len(shortlist) <= diverse_k:
        return shortlist
    if embedder is None:
        return shortlist[:diverse_k]

    vectors = dict(zip((p.node for p in shortlist),
                       embedder.embed_many([p.text for p in shortlist])))
    selected = [shortlist[0]]
    remaining = shortlist[1:]
    while remaining and len(selected) < diverse_k:
        def spread(p: ScoredParagraph) -> float:
            return min(
                1.0 - cosine_similarity(vectors[p.node], vectors[s.node])
                for s in selected
            )
        remaining.sort(key=lambda p: (-spread(p), -p.keyword_frequency, p.node.value))
        selected.append(remaining.pop(0))
    return selected


@dataclass(frozen=True)
class AnswerResult:
    """An answer with the paragraphs that grounded it."""

    answer: str
    context: tuple[ScoredParagraph, ...] = field(default_factory=tuple)
    backend: str = ""
    latency_ms: float = 0.0


def generate_answer(question: str, context: list[ScoredParagraph],
                    gateway: Gateway, max_tokens: int = 512) -> AnswerResult:
    """Answer the question from the selected paragraphs only."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    if not context:
        raise ValueError("context must be non-empty")
    block = "\n\n".join(p.text for p in context)
    request = GatewayRequest(
        system="",
        user=load_template("answer.txt").format(
            question=question.strip(), context=block),
        max_tokens=max_tokens,
    )
    response = gateway.complete(request)
    return AnswerResult(
        answer=response.text.strip(),
        context=tuple(context),
        backend=response.backend,
        latency_ms=response.latency_ms,
    )
