import pytest

from scholarkg.gateway import (
    ANSWER_MARKER,
    CANDIDATES_MARKER,
    EXTRACT_MARKER,
    GatewayProtocolError,
    GatewayRequest,
    GatewayTransportError,
    HttpGateway,
    StubGateway,
    TripleResponseError,
    format_triples,
    parse_triples_response,
)
from scholarkg.embedding import BackendConfig
from scholarkg.kg.patterns import TriplePattern, Variable, WILDCARD


def test_request_validation():
    with pytest.raises(ValueError):
        GatewayRequest(system="s", user="  ")
    with pytest.raises(ValueError):
        GatewayRequest(system="s", user="u", max_tokens=0)


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


def test_format_triples_round_trips():
    patterns = [
        TriplePattern("Tool", "is applied to", "PDFs"),
        TriplePattern(WILDCARD, "mentions", Variable("e")),
    ]
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


def test_stub_candidate_selection_echoes_block(stub_gateway):
    request = GatewayRequest(
        system=f"Choose among the {CANDIDATES_MARKER}.",
        user="Question: q\n\nCandidates:\na | b | c\nd | e | f",
    )
    assert stub_gateway.complete(request).text == "a | b | c\nd | e | f"


def test_stub_markers_route_from_user_text(stub_gateway):
    # templates are formatted into the user message with an empty system
    request = GatewayRequest(
        system="",
        user=(f"Answer using {ANSWER_MARKER}.\n\n"
              "Question: Which tool extracts text?\n\n"
              "Context:\nThe tool extracts text."),
    )
    assert stub_gateway.complete(request).text == "The tool extracts text."


def test_stub_fallback_echoes_user(stub_gateway):
    response = stub_gateway.complete(GatewayRequest(system="plain", user="hello"))
    assert response.text == "hello"
    assert response.backend == "stub"
    assert response.latency_ms == 0.0


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
    sent = session.calls[0]["json"]
    assert sent["model"] == "test-model"
    assert sent["messages"][1] == {"role": "user", "content": "u"}


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
    with pytest.raises(GatewayTransportError):
        gateway.complete(GatewayRequest(system="s", user="u"))
    assert len(session.calls) == 3  # initial try plus two retries


def test_http_gateway_4xx_fails_immediately():
    gateway, session = http_gateway([_FakeResponse(status_code=401)])
    with pytest.raises(GatewayTransportError):
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
    with pytest.raises(GatewayTransportError, match="429"):
        gateway.complete(GatewayRequest(system="s", user="u"))
    assert len(session.calls) == 3


def test_http_gateway_rejects_bodyless_response():
    gateway, _ = http_gateway([_FakeResponse(payload={"choices": []})])
    with pytest.raises(GatewayProtocolError):
        gateway.complete(GatewayRequest(system="s", user="u"))


def test_auth_token_is_read_from_environment(monkeypatch):
    monkeypatch.setenv("TEST_GATEWAY_TOKEN", "sekrit")
    session = _FakeSession([_FakeResponse(payload={"text": "ok"})])
    config = BackendConfig(url="http://backend.test/v1/chat",
                           auth_env="TEST_GATEWAY_TOKEN", backoff=0.0)
    HttpGateway(config, session=session).complete(GatewayRequest(system="s", user="u"))
    assert session.calls[0]["headers"]["Authorization"] == "Bearer sekrit"
