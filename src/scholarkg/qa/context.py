"""Context selection and answer generation.

Paragraphs containing the query's entity names are scored by keyword
frequency, then a diverse subset is chosen by farthest-point traversal
over their embeddings, and the surviving texts are handed to the gateway
as the grounding context for the answer. ``answer_question`` runs the
whole query pipeline, from the question's patterns to that answer.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ..document import document_id_of
from ..embedding import Embedder, cosine_similarities
from ..gateway import Gateway, GatewayRequest, format_triples
from ..kg.graph import KnowledgeGraph, keyword_frequency
from ..kg.terms import NAMESPACES, PARAGRAPH, _Value, entity_phrase
from .engine import (
    default_relaxation_dictionary,
    extract_question_patterns,
    query_entities_of,
    rank_candidates,
    resolve_query,
)

__all__ = ["ScoredParagraph", "select_context", "AnswerResult", "generate_answer",
           "QueryAnswer", "answer_question"]


class ScoredParagraph(_Value, namedtuple("_ScoredParagraphFields",
                                          "node text keyword_frequency")):
    """A context paragraph (its node ``Iri`` and text) with its keyword
    score and source document."""

    __slots__ = ()

    @property
    def document_id(self) -> str:
        """The paper hash embedded in the paragraph identifier."""
        return document_id_of(self.node.local_name())


def _check_selection(top_n: int, diverse_k: int) -> None:
    if top_n < 1 or diverse_k < 1:
        raise ValueError("top_n and diverse_k must be positive")
    if diverse_k > top_n:
        raise ValueError("diverse_k must not exceed top_n")


def select_context(graph: KnowledgeGraph, query_entities: set[str],
                   top_n: int = 10, diverse_k: int = 5, *,
                   embedder: Embedder) -> list[ScoredParagraph]:
    """Pick a small, diverse set of paragraphs naming the query entities.

    Candidates are every labelled paragraph containing at least one
    entity name, case-insensitively; one name at least must be non-empty.
    The ``top_n`` highest keyword-frequency paragraphs survive; from
    those, ``diverse_k`` are chosen greedily, each new pick maximising
    its minimum embedding distance to the already-picked ones (ties go
    to the higher keyword frequency, then the smaller node IRI). A
    shortlist of at most ``diverse_k`` is returned as it is, unembedded.
    """
    _check_selection(top_n, diverse_k)
    names = [entity_phrase(key) for key in sorted(query_entities)]
    if not any(names):
        raise ValueError("at least one non-empty name is required")
    scored = []
    for node in graph.subjects_of_type(PARAGRAPH):
        label = graph.label_of(node)
        if label is not None:
            frequency = keyword_frequency(label.lexical, names)
            if frequency:
                scored.append(ScoredParagraph(node, label.lexical, frequency))
    scored.sort(key=lambda p: (-p.keyword_frequency, p.node.value))
    shortlist = scored[:top_n]
    if len(shortlist) <= diverse_k:
        return shortlist

    vectors = dict(zip((p.node for p in shortlist),
                       embedder.embed_many([p.text for p in shortlist])))
    selected = [shortlist[0]]
    remaining = shortlist[1:]
    # Each candidate's least distance to the picked ones: a round scores
    # the candidates against the newest pick only. The kernel's cosine is
    # symmetric to the bit (either order sums the same nonzero products in
    # index order), so the pick can be the one u.
    spread = dict.fromkeys(vectors, math.inf)
    while remaining and len(selected) < diverse_k:
        (similarities,) = cosine_similarities((vectors[selected[-1].node],),
                                              [vectors[p.node] for p in remaining])
        for p, similarity in zip(remaining, similarities):
            spread[p.node] = min(spread[p.node], 1.0 - similarity)
        remaining.sort(key=lambda p: (-spread[p.node], -p.keyword_frequency, p.node.value))
        selected.append(remaining.pop(0))
    return selected


class AnswerResult(_Value, namedtuple("_AnswerResultFields", "answer context backend",
                                       defaults=((), ""))):
    """An answer with the context items (paragraphs or chunks) that grounded it."""

    __slots__ = ()


def generate_answer(question: str, context: list,
                    gateway: Gateway) -> AnswerResult:
    """Answer the stripped question from the context items' ``.text`` only."""
    if not question.strip():
        raise ValueError("question must be non-empty")
    if not context:
        raise ValueError("context must be non-empty")
    response = gateway.complete(GatewayRequest.answer(question.strip(), [p.text for p in context]))
    return AnswerResult(
        answer=response.text.strip(),
        context=tuple(context),
        backend=response.backend,
    )


class QueryAnswer(_Value, namedtuple("_QueryAnswerFields",
                                      "question query candidates ranking answer sparql")):
    """An answer with what the query pipeline found on the way to it, in
    the same fields for the text and JSON forms: the ``CompoundQuery``,
    its ``CandidateTripleSet``, the ``RankedEntity`` ranking as a tuple,
    the ``AnswerResult`` and the context lookup as SPARQL."""

    __slots__ = ()

    def to_dict(self) -> dict:
        context = self.answer.context
        return {
            "question": self.question,
            "patterns": [format_triples([p]) for p in self.query.patterns],
            "entities": [
                {"entity": r.entity, "frequency": r.frequency,
                 "purity": round(r.purity, 4), "score": round(r.score, 4)}
                for r in self.ranking
            ],
            "depth": self.candidates.depth,
            "exhausted": self.candidates.exhausted,
            "context": [
                {"paragraph": p.node.value, "document": p.document_id,
                 "keyword_frequency": p.keyword_frequency, "text": p.text}
                for p in context
            ],
            "provenance": [p.node.value for p in context],
            "answer": self.answer.answer,
            "sparql": self.sparql,
            "backend": self.answer.backend,
        }

    def to_text(self) -> str:
        lines = [f"Answer: {self.answer.answer}", ""]
        if self.ranking:
            lines.append("Top entities:")
            for r in self.ranking[:10]:
                lines.append(f"  {r.entity}  frequency={r.frequency} purity={r.purity:.4f}")
            lines.append("")
        lines.append("Provenance:")
        for p in self.answer.context:
            lines.append(f"  {p.node.value} (document {p.document_id}, "
                         f"keyword frequency {p.keyword_frequency})")
        return "\n".join(lines) + "\n"


_SPARQL_SELECT = "".join(f"PREFIX {prefix}: <{NAMESPACES[prefix]}>\n"
                         for prefix in ("askg-onto", "askg-data", "rdfs")) + """
SELECT DISTINCT ?paragraph ?text
WHERE {{
  ?paragraph a askg-onto:Paragraph ;
             rdfs:label ?text .
  FILTER({conditions}) .
}}
"""


def _sparql_of(query_entities: set[str]) -> str:
    """The context lookup as SPARQL: paragraphs whose label contains any
    of the phrases that ``select_context`` searches for."""
    conditions = "\n      || ".join(
        f'CONTAINS(LCASE(?text), "{entity_phrase(key)}")' for key in sorted(query_entities))
    return _SPARQL_SELECT.format(conditions=conditions)


def answer_question(graph: KnowledgeGraph, question: str, gateway: Gateway,
                    embedder: Embedder, *, top_n: int = 10, diverse_k: int = 5,
                    max_depth: int = 2) -> QueryAnswer:
    """Answer ``question`` from ``graph``: extract its triple patterns,
    resolve them with relaxation up to ``max_depth``, rank the matched
    entities, select the context paragraphs and generate the answer.

    Raises ``ValueError`` when no paragraph names the question's
    entities, since the answer would have no grounding. The options are
    checked before the gateway is asked anything.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be non-negative")
    _check_selection(top_n, diverse_k)
    query = extract_question_patterns(question, gateway)
    dictionary = default_relaxation_dictionary(query)
    candidates = resolve_query(graph, query, dictionary, max_depth=max_depth)
    entities = query_entities_of(query)
    ranking = rank_candidates(candidates.triples, entities)
    context = select_context(graph, entities, top_n=top_n, diverse_k=diverse_k,
                             embedder=embedder)
    if not context:
        raise ValueError(
            f"no paragraph mentions the question's entities "
            f"({', '.join(sorted(entities))}); cannot ground an answer")
    answer = generate_answer(question, context, gateway)
    return QueryAnswer(question=question, query=query, candidates=candidates,
                       ranking=tuple(ranking), answer=answer, sparql=_sparql_of(entities))
