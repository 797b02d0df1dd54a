"""Language-model gateway: request/response types, HTTP backend, stub.

The stub backend is a pure function of the request text, so pipelines
wired to it are reproducible byte for byte. Its behavior is documented
to the letter here because tests and downstream fixtures rely on it.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterable, Protocol

from .document import segment_sentences
from .embedding import BackendProtocolError, _HttpBackend
from .kg.terms import TriplePattern, Variable, WILDCARD, _Value

__all__ = [
    "GatewayRequest",
    "GatewayResponse",
    "TripleResponseError",
    "Gateway",
    "StubGateway",
    "HttpGateway",
    "parse_triples_response",
    "format_triples",
]


class TripleResponseError(BackendProtocolError):
    """A triples response line did not have exactly three fields."""

    def __init__(self, line_index: int, line: str):
        super().__init__(f"line {line_index} is not 'subject | predicate | object': {line!r}")
        self.line_index = line_index
        self.line = line


class GatewayRequest(_Value, namedtuple("_GatewayRequestFields", "system user")):
    __slots__ = ()

    def __new__(cls, system: str, user: str):
        if not user.strip():
            raise ValueError("request user text must be non-empty")
        return tuple.__new__(cls, (system, user))

    @classmethod
    def extraction(cls, question: str) -> GatewayRequest:
        """The request for ``question``'s triple patterns."""
        return cls(system="", user=_EXTRACT_PROMPT.format(question=question))

    @classmethod
    def answer(cls, question: str, texts: Iterable[str]) -> GatewayRequest:
        """The request to answer ``question`` from ``texts``, joined by blank lines."""
        return cls(system="", user=_ANSWER_PROMPT.format(
            question=question, context="\n\n".join(texts) or "(no context)"))


class GatewayResponse(_Value, namedtuple("_GatewayResponseFields", "text backend")):
    __slots__ = ()


class Gateway(Protocol):
    def complete(self, request: GatewayRequest) -> GatewayResponse: ...


# ---------------------------------------------------------------------------
# Wire format for triple patterns
# ---------------------------------------------------------------------------

def parse_triples_response(text: str) -> list[TriplePattern]:
    """Parse ``subject | predicate | object`` lines into patterns.

    Blank lines are skipped. A ``?name`` field is a :class:`Variable`
    (a bare ``?`` is the anonymous :data:`WILDCARD`); anything else is
    kept as a plain-text phrase. Lines with a field count other than
    three raise :class:`TripleResponseError` carrying the 1-based line
    index.
    """
    patterns: list[TriplePattern] = []
    for index, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 3:
            raise TripleResponseError(index, raw)
        patterns.append(TriplePattern(
            *(Variable(f[1:]) if f.startswith("?") else f for f in fields)))
    return patterns


def _format_term(term) -> str:
    return f"?{term.name}" if isinstance(term, Variable) else term


def format_triples(patterns: list[TriplePattern]) -> str:
    """One ``subject | predicate | object`` line per pattern."""
    return "\n".join(
        " | ".join(_format_term(t) for t in p) for p in patterns
    )


# ---------------------------------------------------------------------------
# Stub backend
# ---------------------------------------------------------------------------

# Markers the prompts embed so the stub can tell tasks apart. They are
# searched for in the whole prompt (system and user text), so a prompt
# works whether it is sent as a system prompt or in the user message.
EXTRACT_MARKER = "subject | predicate | object"
ANSWER_MARKER = "only the provided context"

_EXTRACT_PROMPT = f"""You decompose a natural-language question about scholarly documents into
knowledge-graph triple patterns.

Write one pattern per line in the form: {EXTRACT_MARKER}

Use the words of the question for grounded components. Use ? for a
component the question leaves open, and ?name for a component that must
take the same value across several patterns. Output only the patterns,
with no commentary.

Question: {{question}}
"""

_ANSWER_PROMPT = f"""You answer questions about scholarly documents.
Use {ANSWER_MARKER}: it consists of paragraphs taken verbatim
from the documents. Quote or paraphrase the context; if the context does
not contain the answer, say that it does not. Do not use outside
knowledge.

Question: {{question}}

Context:
{{context}}
"""

_WH_WORDS = {"which", "what", "who", "whom", "whose", "where", "when", "why", "how"}
_AUXILIARIES = {
    "is", "are", "was", "were", "am", "be", "been", "being",
    "do", "does", "did", "can", "could", "may", "might", "must",
    "shall", "should", "will", "would", "has", "have", "had",
}
_PREPOSITIONS = {
    "from", "in", "on", "at", "by", "with", "for", "of", "into", "onto",
    "over", "under", "between", "among", "about", "within", "through",
}
_STOPWORDS = _WH_WORDS | _AUXILIARIES | _PREPOSITIONS | {
    "a", "an", "the", "and", "or", "to", "not", "it", "its", "this",
    "that", "these", "those", "they", "them",
}

_CLAUSE_SPLIT = re.compile(
    r";\s*|,?\s+and\s+(?=(?:which|what|who|whom|whose|where|when|why|how)\b)",
    re.IGNORECASE,
)


def _verb_group(tokens: list[str]) -> tuple[list[str], int]:
    group: list[str] = []
    i = 0
    expect_verb = False
    while i < len(tokens):
        low = tokens[i].lower()
        if low in _AUXILIARIES or low == "not":
            group.append(tokens[i])
            expect_verb = True
        elif low == "to" and group:
            group.append(tokens[i])
            expect_verb = True
        elif expect_verb:
            group.append(tokens[i])
            expect_verb = False
        else:
            break
        i += 1
    return group, i


def _clause_to_pattern(clause: str) -> TriplePattern | None:
    """Subject-verb-object split of one interrogative clause.

    Rules, applied in order:

    1. Read ``|`` as a space, strip trailing sentence punctuation and
       split on whitespace.
    2. Drop a leading wh-word.
    3. The subject is every token before the first auxiliary verb
       (capitalized on output); with no auxiliary the first token alone
       is the subject. An empty subject becomes a wildcard.
    4. The predicate is the verb group (auxiliaries, ``to``/``not``
       particles, and the verbs they introduce) plus the first
       preposition that follows it; tokens between the two (the direct
       object) are dropped.
    5. Whatever follows that preposition is the object; with no
       preposition the remainder after the verb group is the object, or
       a wildcard when nothing remains.
    """
    tokens = clause.replace("|", " ").strip().rstrip("?.!").split()
    if tokens and tokens[0].lower() in _WH_WORDS:
        tokens = tokens[1:]
    if not tokens:
        return None

    aux_index = next((i for i, t in enumerate(tokens) if t.lower() in _AUXILIARIES), None)
    if aux_index is None:
        subject_tokens, rest = tokens[:1], tokens[1:]
    else:
        subject_tokens, rest = tokens[:aux_index], tokens[aux_index:]

    group, consumed = _verb_group(rest)
    remainder = rest[consumed:]
    if not group and remainder:
        group, remainder = remainder[:1], remainder[1:]

    prep_index = next((i for i, t in enumerate(remainder) if t.lower() in _PREPOSITIONS), None)
    if prep_index is not None:
        predicate_tokens = group + [remainder[prep_index]]
        object_tokens = remainder[prep_index + 1:]
    else:
        predicate_tokens = group
        object_tokens = remainder

    subject = " ".join(subject_tokens)
    subject_term = subject[0].upper() + subject[1:] if subject else WILDCARD
    predicate_term = " ".join(predicate_tokens) if predicate_tokens else WILDCARD
    object_term = " ".join(object_tokens) if object_tokens else WILDCARD
    pattern = TriplePattern(subject_term, predicate_term, object_term)
    return pattern if pattern.has_ground_term else None


def _question_from_prompt(user_text: str) -> str:
    for line in user_text.splitlines():
        if line.startswith("Question:"):
            return line[len("Question:"):].strip()
    return user_text.strip()


def _context_from_prompt(user_text: str) -> str:
    _, marker, rest = f"\n{user_text}".partition("\nContext:\n")
    return rest.strip() if marker else ""


class StubGateway:
    """Deterministic offline backend.

    The first marker in the prompt names the task, so a question quoting
    the other cannot reroute it. The question is the rest of the first
    user line starting with ``Question:``, else the whole user text.

    * Triple extraction prompts get one ``s | p | o`` line per clause of
      the question, produced by the documented subject-verb-object rules.
      Clauses are separated by ``;`` or by ``and`` followed by a wh-word.
    * Answer prompts get the sentence of the context (the user text after
      its first ``Context:`` line) containing the most distinct question
      keywords (ties go to the earlier sentence). Keywords are the
      question's lowercase alphanumeric tokens minus a stopword list.
    * Anything else echoes the user text.
    """

    backend_name = "stub"

    def complete(self, request: GatewayRequest) -> GatewayResponse:
        prompt = f"{request.system}\n{request.user}"
        extract_at, answer_at = prompt.find(EXTRACT_MARKER), prompt.find(ANSWER_MARKER)
        if extract_at >= 0 and not 0 <= answer_at < extract_at:
            text = self._extract(request.user)
        elif answer_at >= 0:
            text = self._answer(request.user)
        else:
            text = request.user.strip()
        return GatewayResponse(text=text, backend=self.backend_name)

    def _extract(self, user_text: str) -> str:
        question = _question_from_prompt(user_text)
        lines = []
        for clause in _CLAUSE_SPLIT.split(question):
            # a split on ";" can leave the conjunction behind
            clause = re.sub(r"^\s*(?:and|or)\s+", "", clause, flags=re.IGNORECASE)
            pattern = _clause_to_pattern(clause)
            if pattern is not None:
                lines.append(format_triples([pattern]))
        return "\n".join(lines)

    def _answer(self, user_text: str) -> str:
        question = _question_from_prompt(user_text)
        context = _context_from_prompt(user_text)
        if not context:
            return ""
        keywords = {
            t for t in re.findall(r"[a-z0-9]+", question.lower())
            if t not in _STOPWORDS
        }
        # max keeps the first of equal scores
        return max(segment_sentences(context), default="",
                   key=lambda sentence: sum(map(sentence.lower().__contains__, keywords)))


# ---------------------------------------------------------------------------
# HTTP backend
# ---------------------------------------------------------------------------

class HttpGateway(_HttpBackend):
    """Client for a chat-completion service.

    Sends ``{"messages", "max_tokens", "temperature", "model"}``, the
    token limit always 512 and the temperature always 0.0, and reads the
    completion text from ``choices[0].message.content`` or, when that is
    not a non-empty string, a top-level ``"text"`` field.
    """

    def complete(self, request: GatewayRequest) -> GatewayResponse:
        messages = []
        if request.system:
            messages.append({"role": "system", "content": request.system})
        messages.append({"role": "user", "content": request.user})
        body = self._post({"messages": messages, "max_tokens": 512, "temperature": 0.0})
        text = None
        if isinstance(body, dict):
            choices = body.get("choices")
            if isinstance(choices, list) and choices and isinstance(choices[0], dict):
                message = choices[0].get("message")
                text = message.get("content") if isinstance(message, dict) else None
            if not isinstance(text, str) or not text:
                text = body.get("text")
        if not isinstance(text, str) or not text:
            raise BackendProtocolError("backend response carries no completion text")
        return GatewayResponse(text=text, backend=self.config.model or "http")
