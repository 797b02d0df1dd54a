"""`query`, `retrieve-baseline`, `eval` and `link` end to end over real HTTP.

A stdlib server on 127.0.0.1 plays both services: its chat endpoint
answers with the stub gateway's completion and its embeddings endpoint
with the stub embedder's vectors, so an HTTP run must print what the stub
run prints. Two more endpoints always fail, one with 503 and one with a
body that is not JSON.
"""

import http.server
import json
import threading

import pytest

from scholarkg.cli import run
from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.gateway import GatewayRequest, StubGateway

QUESTION = "Which tool is applied to extract text from PDF research proposals?"


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.paths.append(self.path)
        self.server.bodies.append(body)
        if self.path == "/chat":
            messages = {m["role"]: m["content"] for m in body["messages"]}
            request = GatewayRequest(system=messages.get("system", ""), user=messages["user"])
            text = StubGateway().complete(request).text
            self._reply(200, json.dumps({"choices": [{"message": {"content": text}}]}))
        elif self.path == "/embeddings":
            embedder = HashedBagOfWordsEmbedder()
            self._reply(200, json.dumps({"data": [{"embedding": list(embedder.embed(t).values)}
                                                  for t in body["input"]]}))
        elif self.path == "/unavailable":
            self._reply(503, "")
        else:
            self._reply(200, "<html>not json</html>")

    def _reply(self, status: int, text: str) -> None:
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args) -> None:
        pass


@pytest.fixture(scope="module")
def server():
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    httpd.paths, httpd.bodies = [], []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def backends(server, tmp_path, monkeypatch):
    """Write a config file whose endpoints are the server's given paths;
    returns its name and clears the server's request log."""
    for role in ("GATEWAY", "EMBEDDER"):
        monkeypatch.delenv(f"SCHOLARKG_{role}_TOKEN", raising=False)

    def write(gateway="/chat", embedder="/embeddings", extra=""):
        server.paths.clear()
        server.bodies.clear()
        base = f"http://127.0.0.1:{server.server_port}"
        config = tmp_path / "backends.conf"
        config.write_text(f"gateway-url = {base}{gateway}\ngateway-model = chat-model\n"
                          f"embedder-url = {base}{embedder}\n{extra}", "utf-8")
        return str(config)

    return write


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def commands(fixtures_dir) -> dict[str, list[str]]:
    graph = str(fixtures_dir / "scholarly_sample.ttl")
    # one diverse paragraph out of more makes the query embed its shortlist
    return {"query": ["query", "--graph", graph, "--question", QUESTION, "--diverse-k", "1",
                      "--format", "json"],
            "retrieve-baseline": ["retrieve-baseline", "--corpus", str(fixtures_dir),
                                  "--question", QUESTION, "--format", "json"]}


@pytest.mark.parametrize("command", ["query", "retrieve-baseline"])
def test_http_run_prints_the_stub_run(capsys, backends, server, fixtures_dir, command):
    argv = commands(fixtures_dir)[command]
    stub = invoke(capsys, *argv)
    http = invoke(capsys, *argv, "--backend", "http", "--embedder", "http",
                  "--config", backends())
    assert {"/chat", "/embeddings"} <= set(server.paths)
    assert stub[0] == 0, stub[2]
    assert (http[0], http[2]) == (stub[0], stub[2])
    stub_payload, http_payload = json.loads(stub[1]), json.loads(http[1])
    if command == "query":
        assert (stub_payload.pop("backend"), http_payload.pop("backend")) == ("stub", "chat-model")
    assert http_payload == stub_payload


@pytest.mark.parametrize("role", ["gateway", "embedder"])
def test_an_unavailable_backend_fails_after_its_retries(capsys, backends, server, fixtures_dir,
                                                        role):
    config = backends(**{role: "/unavailable"})
    code, out, err = invoke(capsys, *commands(fixtures_dir)["query"],
                            "--backend", "http", "--embedder", "http", "--config", config)
    assert (code, out, err) == (1, "", "error: backend returned status 503\n")
    assert server.paths.count("/unavailable") == 3  # the first try and two retries


@pytest.mark.parametrize("role", ["gateway", "embedder"])
def test_a_backend_answering_other_than_json_fails_at_once(capsys, backends, server,
                                                           fixtures_dir, role):
    config = backends(**{role: "/garbled"})
    code, out, err = invoke(capsys, *commands(fixtures_dir)["retrieve-baseline"],
                            "--backend", "http", "--embedder", "http", "--config", config)
    assert (code, out) == (1, "")
    assert err.startswith("error: backend response is not JSON: ") and err.count("\n") == 1, err
    assert server.paths.count("/garbled") == 1


@pytest.mark.parametrize("line, message", [
    ("retries = -1", "retries must not be negative: -1"),
    ("timeout = 0", "timeout must be a finite positive number of seconds: 0.0"),
    ("timeout = -1", "timeout must be a finite positive number of seconds: -1.0"),
    ("timeout = nan", "timeout must be a finite positive number of seconds: nan"),
    ("timeout = inf", "timeout must be a finite positive number of seconds: inf"),
])
def test_bad_retries_or_timeout_is_refused_before_any_request(capsys, backends, server,
                                                              fixtures_dir, line, message):
    config = backends(extra=f"embedder = http\n{line}\n")
    code, out, err = invoke(capsys, *commands(fixtures_dir)["retrieve-baseline"],
                            "--config", config)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert server.paths == []


def test_http_eval_embeds_both_answers_of_a_question_in_one_request(capsys, backends, server,
                                                                    fixtures_dir):
    answers = fixtures_dir / "answers.json"
    records = json.loads(answers.read_text("utf-8"))
    argv = ["eval", "--answers", str(answers), "--format", "json"]
    stub = invoke(capsys, *argv)
    http = invoke(capsys, *argv, "--embedder", "http", "--config", backends())
    assert stub[0] == 0, stub[2]
    assert http == stub
    assert [body["input"] for body in server.bodies] == [
        [record["graph_answer"], record["baseline_answer"]] for record in records]


def test_link_of_no_excerpts_sends_no_request(capsys, backends, server, fixtures_dir,
                                              tmp_path):
    bare, linked, excerpts = tmp_path / "bare.ttl", tmp_path / "linked.ttl", tmp_path / "e.jsonl"
    assert invoke(capsys, "ingest", "--outline", str(fixtures_dir / "outline_doc1.json"),
                  "--text", str(fixtures_dir / "doc1.txt"), "--out", str(bare))[0] == 0
    excerpts.write_text("", "utf-8")
    code, out, err = invoke(capsys, "link", "--graph", str(bare), "--excerpts", str(excerpts),
                            "--out", str(linked), "--embedder", "http", "--config", backends())
    assert (code, out, err) == (0, "", "linked 0 of 0 excerpts\n")
    assert linked.read_bytes() == bare.read_bytes()
    assert server.paths == []


@pytest.mark.parametrize("sentence", ["", "   "])
def test_a_blank_excerpt_sentence_is_refused_before_any_request(capsys, backends, server,
                                                                fixtures_dir, tmp_path, sentence):
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8"))
    excerpts = tmp_path / "e.jsonl"
    excerpts.write_text(json.dumps({**record, "in_sentence": sentence}) + "\n", "utf-8")
    refusal = (1, "", "error: bad excerpt record on line 1: 'in_sentence' is blank\n")
    http = ["--excerpts", str(excerpts), "--embedder", "http", "--config", backends()]
    assert invoke(capsys, "link", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                  *http) == refusal
    assert invoke(capsys, "ingest", "--outline", str(fixtures_dir / "outline_doc1.json"),
                  "--text", str(fixtures_dir / "doc1.txt"), *http) == refusal
    assert server.paths == []


@pytest.mark.parametrize("options, message", [
    (["--max-depth", "-1"], "max_depth must be non-negative"),
    (["--diverse-k", "0"], "top_n and diverse_k must be positive"),
    (["--top-n", "3"], "diverse_k must not exceed top_n"),
])
def test_a_bad_query_option_is_refused_before_any_request(capsys, backends, server,
                                                          fixtures_dir, options, message):
    code, out, err = invoke(capsys, "query", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                            "--question", QUESTION, *options, "--backend", "http",
                            "--embedder", "http", "--config", backends())
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert server.paths == []
