"""Benchmark worker: one process that runs one workload's closed loop.

``run.py`` starts it after writing the inputs, so this process holds
none of the generator's data and its peak RSS is the program's. Two
modes:

* ``setup``: time a fresh interpreter's set-up (import the CLI and its
  backends, plus the graph load on ``qa-warm``) and print it as JSON,
  with the calibration time (``speed``) measured just before it.
* ``loop``: run the workload's operations one after another for the
  given time, check each result, and write the records to ``--result``.
  With ``--trace 1`` the first half of the time runs untraced and the
  second half runs the same operations with every layer wrapped.

scholarkg is imported inside functions, so that ``setup`` times the
import itself.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import speed  # noqa: E402

MIN_OPS = 21          # the tail needs ten operations beyond it
MAX_DEPTH = 2         # the CLI's default relaxation budget
TOP_N = 10            # the CLI's default count of retrieved chunks
DIGEST_OPS = 5        # every run, traced or not, does at least this many


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cli_call(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    from scholarkg import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def require_ok(code: int, stderr: str, what: str) -> None:
    require(code == 0, f"{what} exited {code}: {stderr.strip()[-300:]}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class IngestCorpus:
    """One op ingests one paper through ``cli.run``; a fixed share of the
    papers goes ingest-then-``link``."""

    def __init__(self, manifest: dict, workdir: Path):
        self.out = workdir / "out.ttl"
        self.mid = workdir / "unlinked.ttl"

    def execute(self, op: dict) -> None:
        source = (["--xml", op["xml"]] if "xml" in op
                  else ["--outline", op["outline"], "--text", op["text"]])
        if op["path"].endswith("+link"):
            code, _, err = cli_call(["ingest", *source, "--out", str(self.mid)])
            require_ok(code, err, "ingest")
            code, _, err = cli_call(["link", "--graph", str(self.mid), "--excerpts",
                                     op["excerpt_file"], "--out", str(self.out)])
            require_ok(code, err, "link")
        else:
            code, _, err = cli_call(["ingest", *source, "--excerpts",
                                     op["excerpt_file"], "--out", str(self.out)])
            require_ok(code, err, "ingest")

    def check(self, op: dict, _) -> bytes:
        from scholarkg.kg.terms import EXCERPT, HAS_EXCERPT, PARAGRAPH
        from scholarkg.kg.turtle import load_turtle, save_turtle

        output = self.out.read_bytes()
        graph = load_turtle(output)
        require(save_turtle(graph) == output, "output Turtle does not load back equal")
        paragraphs = set(graph.subjects_of_type(PARAGRAPH))
        excerpts = set(graph.subjects_of_type(EXCERPT))
        require(len(paragraphs) == op["paragraphs"],
                f"{len(paragraphs)} paragraphs, expected {op['paragraphs']}")
        require(len(excerpts) == op["excerpts"],
                f"{len(excerpts)} excerpts, expected {op['excerpts']}")
        for link in graph.match(predicate=HAS_EXCERPT):
            require(link.subject in paragraphs and link.object in excerpts,
                    f"dangling hasExcerpt link {link}")
        return output


def answer_question(graph, question: str, gateway, embedder) -> str:
    """Answer with the public functions, in the order ``cli._cmd_query``
    calls them, and render the fields of its JSON payload."""
    from scholarkg.qa import context, engine

    query = engine.extract_question_patterns(question, gateway)
    dictionary = engine.default_relaxation_dictionary(query)
    result = engine.resolve_query(graph, query, dictionary, max_depth=MAX_DEPTH)
    entities = engine.query_entities_of(query)
    ranking = engine.rank_candidates(result.triples, entities)
    chosen = context.select_context(graph, entities, embedder=embedder)
    answer = context.generate_answer(question, chosen, gateway)
    return json.dumps({
        "question": question,
        "entities": [{"entity": r.entity, "frequency": r.frequency,
                      "purity": round(r.purity, 4), "score": round(r.score, 4)}
                     for r in ranking],
        "depth": result.depth,
        "exhausted": result.exhausted,
        "context": [{"paragraph": p.node.value, "document": p.document_id,
                     "keyword_frequency": p.keyword_frequency, "text": p.text}
                    for p in chosen],
        "provenance": [p.node.value for p in chosen],
        "answer": answer.answer,
    }, indent=2)


def check_answer(op: dict, rendered: str, paragraphs: set[str]) -> None:
    payload = json.loads(rendered)
    require(all(iri in paragraphs for iri in payload["provenance"]),
            "a provenance IRI is not a paragraph of the graph")
    texts = [c["text"] for c in payload["context"]]
    require(bool(payload["answer"]) and any(payload["answer"] in t for t in texts),
            "the answer does not occur in the context")
    require(payload["depth"] == op["depth"] and payload["exhausted"] == (op["depth"] > MAX_DEPTH),
            f"depth {payload['depth']}, designed {op['depth']}")


class QaWarm:
    """The graph is loaded once (set-up); one op answers one question."""

    def __init__(self, manifest: dict, workdir: Path):
        from scholarkg.embedding import HashedBagOfWordsEmbedder
        from scholarkg.gateway import StubGateway
        from scholarkg.kg.turtle import load_turtle

        self.graph = load_turtle(Path(manifest["graph"]).read_bytes())
        self.gateway, self.embedder = StubGateway(), HashedBagOfWordsEmbedder()
        self.paragraphs = set(manifest["paragraphs"])

    def execute(self, op: dict) -> str:
        return answer_question(self.graph, op["question"], self.gateway, self.embedder)

    def check(self, op: dict, output: str) -> bytes:
        check_answer(op, output, self.paragraphs)
        return output.encode("utf-8")


class CliCompare:
    """One op answers one question cold, with ``query`` and with
    ``retrieve-baseline``."""

    def __init__(self, manifest: dict, workdir: Path):
        self.graph = manifest["graph"]
        self.corpus = manifest["corpus"]
        self.chunks = manifest["chunks"]
        self.paragraphs = set(manifest["paragraphs"])

    def execute(self, op: dict) -> tuple:
        query = cli_call(["query", "--graph", self.graph, "--question", op["question"],
                          "--format", "json"])
        baseline = cli_call(["retrieve-baseline", "--corpus", self.corpus,
                             "--question", op["question"], "--format", "json"])
        return query, baseline

    def check(self, op: dict, output: tuple) -> bytes:
        (q_code, q_out, q_err), (b_code, b_out, b_err) = output
        require_ok(q_code, q_err, "query")
        require_ok(b_code, b_err, "retrieve-baseline")
        check_answer(op, q_out, self.paragraphs)
        similarities = [c["similarity"] for c in json.loads(b_out)["chunks"]]
        require(len(similarities) == min(TOP_N, self.chunks),
                f"{len(similarities)} chunks retrieved of {self.chunks}")
        require(all(a >= b for a, b in zip(similarities, similarities[1:])),
                "baseline similarities increase")
        return (q_out + b_out).encode("utf-8")


WORKLOADS = {"ingest-corpus": IngestCorpus, "qa-warm": QaWarm, "cli-compare": CliCompare}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Records:
    """One latency, calibration time (see ``speed``; the mean of one taken
    before and one after the op), pass/fail flag and output digest per
    attempted op.

    ``outputs`` maps an input (its position in the op list) to the digest
    of its first output; records that share it check that the program
    gives the same bytes every time it sees the same input.
    """

    def __init__(self, outputs: dict[int, str] | None = None):
        self.latencies: list[float] = []
        self.calibrations: list[float] = []
        self.oks: list[bool] = []
        self.digests: list[str] = []
        self.errors: list[str] = []
        self.outputs = {} if outputs is None else outputs

    def attempt(self, index: int, ops: list, workload, tracer=None) -> None:
        """Run and check op ``index`` (wrapping round ``ops``). A failed op
        is recorded, never retried or dropped. The machine's speed is
        calibrated just before and just after the op, and the check runs
        after that, all outside the timed region. The op's calibration is
        the mean of the two, so an op during which the machine changed
        speed is scaled by neither extreme."""
        key = index % len(ops)
        op = ops[key]
        error = digest = None
        before = speed.calibrate()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                output = workload.execute(op)
            else:
                with tracer.operation(index):
                    output = workload.execute(op)
        except Exception:
            error = traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        calibration = (before + speed.calibrate()) / 2
        if error is None:
            try:
                digest = hashlib.sha256(workload.check(op, output)).hexdigest()
                require(self.outputs.setdefault(key, digest) == digest,
                        "output differs from an earlier run of the same input")
            except Exception:
                error = traceback.format_exc(limit=3)
        self.latencies.append(latency)
        self.calibrations.append(calibration)
        self.oks.append(error is None)
        self.digests.append(digest if error is None else "failed")
        if error is not None:
            self.errors.append(f"op {index}: {error}")


def closed_loop(ops: list, workload, seconds: float, block: int = 1,
                min_ops: int = MIN_OPS) -> Records:
    """Run ops back to back, one at a time, until ``seconds`` have passed,
    at least ``min_ops`` ran and the last block of ``block`` ops is whole."""
    records = Records()
    start = time.perf_counter()
    index = 0
    while index < min_ops or index % block or time.perf_counter() - start < seconds:
        records.attempt(index, ops, workload)
        index += 1
    return records


def paired_loop(ops: list, workload, seconds: float, tracer: spans.Tracer,
                min_pairs: int = DIGEST_OPS) -> tuple[Records, Records]:
    """Run each op untraced and then traced, so that the two runs of an op
    are close in time and the tracing overhead is not confounded with
    drift in the machine's speed."""
    plain = Records()
    traced = Records(plain.outputs)
    start = time.perf_counter()
    index = 0
    while index < min_pairs or time.perf_counter() - start < seconds:
        plain.attempt(index, ops, workload)
        uninstall = spans.instrument(tracer)
        try:
            traced.attempt(index, ops, workload, tracer)
        finally:
            uninstall()
        index += 1
    return plain, traced


def run_loop(args) -> dict:
    manifest = json.loads(Path(args.manifest).read_text("utf-8"))
    workdir = Path(args.manifest).parent
    workload = WORKLOADS[manifest["workload"]](manifest, workdir)
    if not args.trace:
        runs = [closed_loop(manifest["ops"], workload, args.seconds, manifest["block"])]
        record = {}
    else:
        tracer = spans.Tracer()
        runs = paired_loop(manifest["ops"], workload, args.seconds, tracer)
        layers = spans.layer_metrics(tracer)
        layers["trace.overhead_ms"] = 1000.0 * (
            statistics.median(runs[1].latencies) - statistics.median(runs[0].latencies))
        record = {"layers": layers}
        with open(workdir / "spans.jsonl", "w", encoding="utf-8") as f:
            for span in tracer.spans:
                f.write(json.dumps(span) + "\n")
    record.update(
        latencies=[lat for r in runs for lat in r.latencies],
        calibrations=[c for r in runs for c in r.calibrations],
        oks=[ok for r in runs for ok in r.oks],
        digest={"ops": DIGEST_OPS, "sha256": hashlib.sha256(
            " ".join(runs[0].digests[:DIGEST_OPS]).encode()).hexdigest()},
        errors=[e for r in runs for e in r.errors][:5],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return record


def run_setup(args) -> dict:
    manifest = json.loads(Path(args.manifest).read_text("utf-8"))
    calibration = speed.calibrate()
    t0 = time.perf_counter()
    from scholarkg import cli  # noqa: F401
    from scholarkg.embedding import HashedBagOfWordsEmbedder
    from scholarkg.gateway import StubGateway
    from scholarkg.kg.turtle import load_turtle

    StubGateway(), HashedBagOfWordsEmbedder()
    if manifest["workload"] == "qa-warm":
        load_turtle(Path(manifest["graph"]).read_bytes())
    return {"setup_s": time.perf_counter() - t0, "calibration": calibration}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "loop"))
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        print(json.dumps(run_setup(args)))
    else:
        Path(args.result).write_text(json.dumps(run_loop(args)), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
