"""Question answering over the scholarly knowledge graph."""

from .context import AnswerResult, ScoredParagraph, generate_answer, select_context
from .engine import (
    CandidateTripleSet,
    QuestionParseError,
    RankedEntity,
    default_relaxation_dictionary,
    extract_question_patterns,
    load_template,
    match_candidates,
    query_entities_of,
    rank_candidates,
    resolve_query,
    select_triples,
    triple_entities,
)
from .relaxation import (
    Edit,
    RelaxationDictionary,
    RelaxedQuery,
    relax,
    relax_set,
)

__all__ = [
    "AnswerResult",
    "CandidateTripleSet",
    "Edit",
    "QuestionParseError",
    "RankedEntity",
    "RelaxationDictionary",
    "RelaxedQuery",
    "ScoredParagraph",
    "default_relaxation_dictionary",
    "extract_question_patterns",
    "generate_answer",
    "load_template",
    "match_candidates",
    "query_entities_of",
    "rank_candidates",
    "relax",
    "relax_set",
    "resolve_query",
    "select_context",
    "select_triples",
    "triple_entities",
]
