import json

import pytest
from hypothesis import example, given, settings, strategies as st

from scholarkg import cli
from scholarkg.gateway import (
    ANSWER_MARKER,
    EXTRACT_MARKER,
    GatewayRequest,
    HttpGateway,
    StubGateway,
    TripleResponseError,
    format_triples,
    parse_triples_response,
)
from scholarkg.embedding import (
    BackendConfig,
    BackendError,
    BackendProtocolError,
    BackendTransportError,
)
from scholarkg.kg.patterns import TriplePattern, Variable, WILDCARD
from scholarkg.kg.terms import Iri
from scholarkg.qa.context import ScoredParagraph, _sparql_of, generate_answer
from scholarkg.qa.engine import extract_question_patterns
from scholarkg.segmentation import segment_sentences


def test_request_validation():
    with pytest.raises(ValueError):
        GatewayRequest(system="s", user="  ")


def test_parse_triples_response_terms():
    patterns = parse_triples_response(
        "MEL | extracts | text\n"
        "\n"
        "? | mentions | ?entity\n")
    assert patterns[0] == TriplePattern("MEL", "extracts", "text")
    assert patterns[1] == TriplePattern(WILDCARD, "mentions", Variable("entity"))


def test_parse_triples_response_rejects_wrong_field_count():
    with pytest.raises(TripleResponseError) as err:
        parse_triples_response("one | two\n")
    assert err.value.line_index == 1
    with pytest.raises(TripleResponseError) as err:
        parse_triples_response("ok | ok | ok\na | b | c | d\n")
    assert err.value.line_index == 2


# A wire field is stripped, holds no "|" or line break, and a phrase
# cannot start with "?"; every such phrase or variable name reads back.
_FIELD = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp"),
                               exclude_characters="|")).map(str.strip)
_TERM = _FIELD.filter(lambda f: not f.startswith("?")) | _FIELD.map(Variable)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(TriplePattern, _TERM, _TERM, _TERM)))
@example([TriplePattern("Tool", "is applied to", "PDFs"),
          TriplePattern(WILDCARD, "mentions", Variable("e"))])
@example([TriplePattern(WILDCARD, WILDCARD, WILDCARD)])
def test_format_triples_round_trips(patterns):
    assert parse_triples_response(format_triples(patterns)) == patterns


def ask_extract(gateway: StubGateway, question: str) -> str:
    request = GatewayRequest(
        system=f"Reply with lines of the form {EXTRACT_MARKER}.",
        user=f"Question: {question}",
    )
    return gateway.complete(request).text


def test_stub_extraction_of_pinned_question(stub_gateway):
    text = ask_extract(stub_gateway,
                       "Which tool is applied to extract text from PDFs?")
    assert text == "Tool | is applied to extract from | PDFs"


def test_stub_extraction_multi_clause(stub_gateway):
    text = ask_extract(
        stub_gateway,
        "Which tool extracts text; and which database stores the result?")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("Tool |")
    assert lines[1].startswith("Database |")


def test_stub_extraction_no_auxiliary_verb(stub_gateway):
    # first token is the subject, verb group starts at the bare verb
    assert ask_extract(stub_gateway, "What stores metadata in CouchDB?") \
        == "Stores | metadata in | CouchDB"


def test_stub_extraction_no_preposition(stub_gateway):
    assert ask_extract(stub_gateway, "Which model won the benchmark?") \
        == "Model | won | the benchmark"


def test_stub_answer_picks_sentence_with_most_keywords(stub_gateway):
    request = GatewayRequest(
        system=f"Answer using {ANSWER_MARKER}.",
        user=("Question: Which tool extracts text from PDF files?\n\n"
              "Context:\n"
              "Nothing relevant here. "
              "The tool extracts text from PDF files quickly. "
              "PDF files are large."),
    )
    answer = stub_gateway.complete(request).text
    assert answer == "The tool extracts text from PDF files quickly."


def test_stub_answer_without_context_is_empty(stub_gateway):
    request = GatewayRequest(
        system=f"Answer using {ANSWER_MARKER}.",
        user="Question: Which tool?",
    )
    assert stub_gateway.complete(request).text == ""


def test_stub_markers_route_from_user_text(stub_gateway):
    # templates are formatted into the user message with an empty system
    request = GatewayRequest(
        system="",
        user=(f"Answer using {ANSWER_MARKER}.\n\n"
              "Question: Which tool extracts text?\n\n"
              "Context:\nThe tool extracts text."),
    )
    assert stub_gateway.complete(request).text == "The tool extracts text."


def test_stub_reads_a_question_that_holds_a_bar(stub_gateway):
    request = GatewayRequest.extraction("Which tool is applied to extract text from PDFs | CouchDB?")
    assert stub_gateway.complete(request).text == \
        "Tool | is applied to extract from | PDFs CouchDB"


@pytest.mark.parametrize("question", [
    f"Which {EXTRACT_MARKER} tool extracts text from PDF?",
    "Which tool extracts text from PDF proposals (Context: tool extracts text from PDF proposals)?",
])
def test_stub_answer_is_not_rerouted_by_what_the_question_quotes(stub_gateway, question):
    request = GatewayRequest.answer(question, ["Nothing here. MEL extracts text from PDF files."])
    assert stub_gateway.complete(request).text == "MEL extracts text from PDF files."


# Questions hold no line break, and often the characters and words the
# stub reads prompts by.
_QUESTION_FRAGMENTS = st.sampled_from(["|", EXTRACT_MARKER, ANSWER_MARKER, "Context:", "Question:",
                                       "?", ";", " and which ", " is ", " from ", " "])
_QUESTION = st.lists(_QUESTION_FRAGMENTS | st.text(max_size=6)).map("".join).filter(
    lambda q: "".join(q.splitlines()) == q)


@settings(max_examples=300, deadline=None)
@given(_QUESTION, st.lists(st.text(min_size=1), min_size=1, max_size=3))
@example("Which tool extracts text from PDF research proposals | CouchDB?", ["MEL."])
@example(f"Which tool {ANSWER_MARKER} (Context: tool)?", ["Tool."])
def test_stub_replies_to_any_question_in_its_task_format(question, texts):
    stub = StubGateway()
    parse_triples_response(stub.complete(GatewayRequest.extraction(question)).text)
    joined = "\n\n".join(texts)
    reply = stub.complete(GatewayRequest.answer(question, texts)).text
    assert reply in segment_sentences(joined) or reply == "" == joined.strip()


def test_stub_fallback_echoes_user(stub_gateway):
    response = stub_gateway.complete(GatewayRequest(system="plain", user="hello"))
    assert response.text == "hello"
    assert response.backend == "stub"


class _FakeResponse:
    def __init__(self, status_code=200, payload=None):
        self.status_code = status_code
        self._payload = payload
        self.headers = {}

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        result = self.responses.pop(0)
        if isinstance(result, Exception):
            raise result
        return result


def http_gateway(responses) -> tuple[HttpGateway, _FakeSession]:
    session = _FakeSession(responses)
    config = BackendConfig(url="http://backend.test/v1/chat", model="test-model",
                           backoff=0.0)
    return HttpGateway(config, session=session), session


def test_http_gateway_reads_chat_completion():
    gateway, session = http_gateway([
        _FakeResponse(payload={"choices": [{"message": {"content": "an answer"}}]}),
    ])
    response = gateway.complete(GatewayRequest(system="s", user="u"))
    assert response.text == "an answer"
    assert response.backend == "test-model"
    assert json.dumps(session.calls[0]["json"]) == json.dumps({
        "messages": [{"role": "system", "content": "s"}, {"role": "user", "content": "u"}],
        "max_tokens": 512,
        "temperature": 0.0,
        "model": "test-model",
    })


def test_http_gateway_omits_empty_system_message():
    gateway, session = http_gateway([_FakeResponse(payload={"text": "ok"})])
    gateway.complete(GatewayRequest(system="", user="u"))
    assert session.calls[0]["json"]["messages"] == [
        {"role": "user", "content": "u"}]


def test_http_gateway_accepts_plain_text_field():
    gateway, _ = http_gateway([_FakeResponse(payload={"text": "plain"})])
    assert gateway.complete(GatewayRequest(system="s", user="u")).text == "plain"


def test_http_gateway_retries_5xx_then_succeeds():
    gateway, session = http_gateway([
        _FakeResponse(status_code=503),
        _FakeResponse(payload={"text": "recovered"}),
    ])
    assert gateway.complete(GatewayRequest(system="s", user="u")).text == "recovered"
    assert len(session.calls) == 2


def test_http_gateway_gives_up_after_retries():
    gateway, session = http_gateway([
        _FakeResponse(status_code=500),
        _FakeResponse(status_code=500),
        _FakeResponse(status_code=500),
    ])
    with pytest.raises(BackendTransportError):
        gateway.complete(GatewayRequest(system="s", user="u"))
    assert len(session.calls) == 3  # initial try plus two retries


def test_http_gateway_4xx_fails_immediately():
    gateway, session = http_gateway([_FakeResponse(status_code=401)])
    with pytest.raises(BackendTransportError):
        gateway.complete(GatewayRequest(system="s", user="u"))
    assert len(session.calls) == 1


def test_http_gateway_retries_429_then_succeeds():
    gateway, session = http_gateway([
        _FakeResponse(status_code=429),
        _FakeResponse(status_code=429),
        _FakeResponse(payload={"text": "recovered"}),
    ])
    assert gateway.complete(GatewayRequest(system="s", user="u")).text == "recovered"
    assert len(session.calls) == 3


def test_http_gateway_gives_up_after_repeated_429():
    gateway, session = http_gateway([_FakeResponse(status_code=429)] * 3)
    with pytest.raises(BackendTransportError, match="429"):
        gateway.complete(GatewayRequest(system="s", user="u"))
    assert len(session.calls) == 3


def test_http_gateway_rejects_bodyless_response():
    gateway, _ = http_gateway([_FakeResponse(payload={"choices": []})])
    with pytest.raises(BackendProtocolError):
        gateway.complete(GatewayRequest(system="s", user="u"))


@pytest.mark.parametrize("payload", [
    {"choices": ["x"]},
    {"choices": [None]},
    {"choices": [["x"]]},
    {"choices": [{"message": "x"}]},
    {"choices": [{"message": {"content": 5}}]},
    {"choices": "x"},
    {"text": None},
    {"text": ["x"]},
    ["x"],
    "x",
    5,
])
def test_http_gateway_wrong_payload_shape_is_a_protocol_error(payload):
    gateway, _ = http_gateway([_FakeResponse(payload=payload)])
    with pytest.raises(BackendProtocolError, match="no completion text"):
        gateway.complete(GatewayRequest(system="s", user="u"))


def test_http_gateway_falls_back_to_text_past_a_malformed_choice():
    # a choice of the wrong shape, or content that is not a string
    for choices in (["x"], [{"message": {"content": 5}}], [{"message": {"content": ["x"]}}]):
        gateway, _ = http_gateway([_FakeResponse(payload={"choices": choices, "text": "ok"})])
        assert gateway.complete(GatewayRequest(system="s", user="u")).text == "ok", choices


def test_auth_token_is_read_from_environment(monkeypatch):
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "sekrit")
    session = _FakeSession([_FakeResponse(payload={"text": "ok"})])
    config = BackendConfig(url="http://backend.test/v1/chat",
                           auth_env="TEST_GATEWAY_TOKEN", backoff=0.0)
    HttpGateway(config, session=session).complete(GatewayRequest(system="s", user="u"))
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"


_RESPONSE_FRAGMENTS = st.sampled_from(
    ["|", "?", "?x", "? ", "??", "\n", "\r", "\r\n", "\x1c", "\u2028", " ", "a", "mel", "\t"])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_RESPONSE_FRAGMENTS | st.text(max_size=2)).map("".join)))
def test_parse_triples_response_raises_only_gateway_errors(text):
    try:
        patterns = parse_triples_response(text)
    except BackendError:
        return
    assert all(isinstance(p, TriplePattern) for p in patterns)


# The request texts the pipelines send, pinned as literals: the stub
# ignores most of a prompt, so equal outputs alone would not show that an
# HTTP backend still receives the same bytes.
_PINNED_EXTRACTION = """\
You decompose a natural-language question about scholarly documents into
knowledge-graph triple patterns.

Write one pattern per line in the form: subject | predicate | object

Use the words of the question for grounded components. Use ? for a
component the question leaves open, and ?name for a component that must
take the same value across several patterns. Output only the patterns,
with no commentary.

Question: Which tool extracts text from PDF files?
"""

_ANSWER_PREAMBLE = """\
You answer questions about scholarly documents.
Use only the provided context: it consists of paragraphs taken verbatim
from the documents. Quote or paraphrase the context; if the context does
not contain the answer, say that it does not. Do not use outside
knowledge.

"""


class _RecordingGateway(StubGateway):
    def __init__(self):
        self.users = []

    def complete(self, request):
        assert request.system == ""
        self.users.append(request.user)
        return super().complete(request)


def test_pipelines_send_the_pinned_request_texts(monkeypatch, tmp_path, capsys):
    gateway = _RecordingGateway()
    extract_question_patterns("  Which tool extracts text from PDF files? ", gateway)
    paragraphs = [ScoredParagraph(Iri(f"urn:p{i}"), text, 1)
                  for i, text in enumerate(["MEL extracts text.", "It reads PDF files."])]
    generate_answer(" Which tool extracts text? ", paragraphs, gateway)
    monkeypatch.setattr(cli, "_make_gateway", lambda args: gateway)
    (tmp_path / "a.txt").write_text("MEL extracts text from PDF files.", "utf-8")
    (tmp_path / "blank").mkdir()
    (tmp_path / "blank" / "b.txt").write_text("  \n", "utf-8")
    question = ["--question", " Which tool extracts text? "]
    assert cli.run(["retrieve-baseline", "--corpus", str(tmp_path), *question,
                    "--format", "json"]) == 0
    # the request takes the stripped question; the output keeps it as given
    assert json.loads(capsys.readouterr().out)["question"] == " Which tool extracts text? "
    # a corpus with no token is refused before any request is sent
    assert cli.run(["retrieve-baseline", "--corpus", str(tmp_path / "blank"), *question]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "hold no token" in err

    assert gateway.users == [
        _PINNED_EXTRACTION,
        _ANSWER_PREAMBLE + "Question: Which tool extracts text?\n\n"
        "Context:\nMEL extracts text.\n\nIt reads PDF files.\n",
        _ANSWER_PREAMBLE + "Question: Which tool extracts text?\n\n"
        "Context:\nMEL extracts text from PDF files.\n",
    ]
    assert _sparql_of({"mel", "pdf"}) == """\
PREFIX askg-onto: <https://www.anu.edu.au/onto/scholarly#>
PREFIX askg-data: <https://www.anu.edu.au/onto/scholarly/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>

SELECT DISTINCT ?paragraph ?text
WHERE {
  ?paragraph a askg-onto:Paragraph ;
             rdfs:label ?text .
  FILTER(CONTAINS(LCASE(?text), "mel")
      || CONTAINS(LCASE(?text), "pdf")) .
}
"""
