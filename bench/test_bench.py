"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

from scholarkg import cli  # noqa: E402
from scholarkg.chunked_xml import parse_chunked_xml  # noqa: E402
from scholarkg.document import collect_paragraphs, validate_model  # noqa: E402
from scholarkg.embedding import HashedBagOfWordsEmbedder  # noqa: E402
from scholarkg.gateway import StubGateway  # noqa: E402
from scholarkg.ingest import build_document_model, read_outline_json  # noqa: E402
from scholarkg.kg.terms import PARAGRAPH  # noqa: E402
from scholarkg.kg.turtle import load_turtle  # noqa: E402
from scholarkg.qa.engine import (  # noqa: E402
    default_relaxation_dictionary,
    extract_question_patterns,
    resolve_query,
)

SEED = 7
_SETUP = {"setup_s": 0.5, "calibration": speed.REFERENCE_S}


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Every workload's inputs for SEED, written once, with manifests."""
    root = tmp_path_factory.mktemp("inputs")
    return root, {w: gen.write_workload(w, SEED, root / w) for w in gen.WORKLOADS}


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path, monkeypatch):
    written = []
    for attempt in ("a", "b"):
        (tmp_path / attempt).mkdir()
        monkeypatch.chdir(tmp_path / attempt)
        manifest = gen.write_workload(workload, SEED, Path("inputs"))
        written.append((json.dumps(manifest), _files(tmp_path / attempt)))
    assert written[0] == written[1]
    gen.write_workload(workload, SEED + 1, tmp_path / "other")
    assert _files(tmp_path / "other") != _files(tmp_path / "a" / "inputs")


def test_ingest_documents_are_valid_and_sized_as_declared(inputs):
    _, manifests = inputs
    for op in manifests["ingest-corpus"]["ops"]:
        if "xml" in op:
            model = parse_chunked_xml(Path(op["xml"]).read_bytes())
        else:
            model = build_document_model(read_outline_json(Path(op["outline"]).read_text()),
                                         Path(op["text"]).read_text())
        assert validate_model(model) == []
        assert len(collect_paragraphs(model)) == op["paragraphs"]
        excerpts = Path(op["excerpt_file"]).read_text().splitlines()
        assert len(excerpts) == op["excerpts"]
    assert {op["path"] for op in manifests["ingest-corpus"]["ops"]} == set(gen.PATHS)


def test_corpus_documents_are_valid():
    corpus = gen.corpus(SEED, "qa", 2, gen.QA_PARAGRAPHS, gen.QA_BLOCK, 1, gen.QA_RANKS)
    for paper in corpus.papers:
        text, outline = paper.plain_text()
        model = build_document_model(read_outline_json(json.dumps(outline)), text)
        assert validate_model(model) == []
        assert len(collect_paragraphs(model)) == len(paper.paragraphs())


def test_spread_order_samples_evenly():
    order = gen._spread_order(list(range(48)), key=lambda x: x)
    assert sorted(order) == list(range(48))
    for prefix in (8, 16, 24):
        mean = sum(order[:prefix]) / prefix
        assert abs(mean - 23.5) < 3


@pytest.mark.parametrize("workload", ["qa-warm", "cli-compare"])
def test_questions_resolve_at_their_designed_depth(inputs, workload):
    """One block of questions (every class) against the full graph."""
    _, manifests = inputs
    manifest = manifests[workload]
    graph = load_turtle(Path(manifest["graph"]).read_bytes())
    assert len(graph.subjects_of_type(PARAGRAPH)) == len(manifest["paragraphs"])
    gateway = StubGateway()
    block = manifest["ops"][:manifest["block"]]
    assert {op["kind"] for op in block} == set(
        gen.QA_BLOCK if workload == "qa-warm" else gen.CLI_BLOCK)
    for op in block:
        query = extract_question_patterns(op["question"], gateway)
        result = resolve_query(graph, query, default_relaxation_dictionary(query))
        assert result.depth == op["depth"], op


# ---------------------------------------------------------------------------
# Checks, failures and the drift guard
# ---------------------------------------------------------------------------

class _Flaky:
    """Op 1 raises, op 2 fails its check, the others pass."""

    def __init__(self):
        self.executed = []

    def execute(self, op):
        self.executed.append(op)
        if op == 1:
            raise RuntimeError("boom")
        return op

    def check(self, op, output):
        worker.require(op != 2, "bad output")
        return str(output).encode()


def test_failing_op_is_counted_not_dropped_or_retried():
    flaky = _Flaky()
    records = worker.closed_loop([0, 1, 2, 3, 4], flaky, seconds=0, min_ops=5)
    assert flaky.executed == [0, 1, 2, 3, 4]
    assert records.oks == [True, False, False, True, True]
    assert len(records.latencies) == 5
    assert "boom" in records.errors[0] and "bad output" in records.errors[1]

    record = {"latencies": [0.1, 0.001, 0.002] + [0.2] * 20,
              "calibrations": [speed.REFERENCE_S] * 23,
              "oks": [True, False, False] + [True] * 20, "peak_rss_mb": 10.0}
    metrics, notes = run.end_to_end(record, [_SETUP])
    assert "2 of 23 ops failed" in notes[0]
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(200.0)


def test_changing_output_for_the_same_input_fails():
    class Drifting(_Flaky):
        def check(self, op, output):
            return str(len(self.executed)).encode()

    records = worker.closed_loop([0], Drifting(), seconds=0, min_ops=3)
    assert records.oks == [True, False, False]
    assert "differs from an earlier run" in records.errors[0]


def test_loop_ends_on_a_whole_block():
    flaky = _Flaky()
    records = worker.closed_loop([0, 3, 4], flaky, seconds=0, block=4, min_ops=5)
    assert len(records.oks) == 8


def test_checks_reject_wrong_output(inputs):
    _, manifests = inputs
    manifest = manifests["qa-warm"]
    qa = worker.QaWarm(manifest, Path(manifest["graph"]).parent)
    op = manifest["ops"][1]
    rendered = qa.execute(op)
    qa.check(op, rendered)
    payload = json.loads(rendered)
    for broken in (dict(payload, depth=payload["depth"] + 1),
                   dict(payload, answer="not in the context"),
                   dict(payload, provenance=["https://example.org/nowhere"])):
        with pytest.raises(worker.CheckFailed):
            qa.check(op, json.dumps(broken))


def test_qa_warm_answers_match_the_cli(inputs):
    """A qa-warm op calls the public functions in _cmd_query's order; it
    must give what ``query --format json`` gives on the same graph."""
    _, manifests = inputs
    manifest = manifests["qa-warm"]
    graph = load_turtle(Path(manifest["graph"]).read_bytes())
    sample = {op["kind"]: op for op in manifest["ops"][:manifest["block"]]}
    assert set(sample) == {"d0", "d1", "d2", "ex"}
    for op in sample.values():
        mine = json.loads(worker.answer_question(
            graph, op["question"], StubGateway(), HashedBagOfWordsEmbedder()))
        code, out, err = worker.cli_call(["query", "--graph", manifest["graph"],
                                          "--question", op["question"], "--format", "json"])
        assert code == 0, err
        theirs = json.loads(out)
        for key in ("answer", "provenance", "depth", "exhausted", "entities", "context"):
            assert mine[key] == theirs[key], key


# ---------------------------------------------------------------------------
# Spans and self time
# ---------------------------------------------------------------------------

def test_self_time_of_nested_spans():
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.operation(0):                 # op: 0 .. 10
        a = tracer.begin("a")                 # a: 1 .. 4
        b = tracer.begin("b")                 # b: 2 .. 3
        tracer.end(b)
        tracer.end(a)
        c = tracer.begin("c")                 # c: 5 .. 9
        tracer.end(c)
    assert spans.self_times(tracer.spans) == [3, 2, 1, 4]
    assert sum(spans.self_times(tracer.spans)) == 10


def test_self_time_clips_overlapping_children():
    spans_ = [["p", 0.0, 10.0, None, 0], ["x", 2.0, 6.0, 0, 0],
              ["y", 4.0, 12.0, 0, 0]]
    assert spans.self_times(spans_)[0] == pytest.approx(2.0)


def test_traced_op_self_times_fit_in_its_wall_time(inputs):
    _, manifests = inputs
    manifest = manifests["ingest-corpus"]
    op = next(op for op in manifest["ops"] if op["path"] == "outline+link")
    workload = worker.IngestCorpus(manifest, Path(op["excerpt_file"]).parent)
    tracer = spans.Tracer()
    uninstall = spans.instrument(tracer)
    try:
        records = worker.Records()
        records.attempt(0, [op], workload, tracer)
    finally:
        uninstall()
    assert records.oks == [True], records.errors
    assert cli.run.__name__ == "run" and not hasattr(cli.run, "__wrapped__")
    names = {span[0] for span in tracer.spans}
    assert {"op", "cli.run", "ingest.build_document_model", "ingest.link_excerpts",
            "kg.turtle.load_turtle", "kg.turtle.save_turtle", "embedding.embed"} <= names
    own = spans.self_times(tracer.spans)
    assert all(t >= 0 for t in own)
    assert sum(own) <= records.latencies[0]
    metrics = spans.layer_metrics(tracer)
    assert metrics["ingest.link_excerpts.pairs"] == (
        op["paragraphs"] * op["excerpts"])


# ---------------------------------------------------------------------------
# Output contract
# ---------------------------------------------------------------------------

def test_times_are_scaled_by_the_calibration_next_to_them():
    """An op timed while the machine ran at half speed counts as half
    its wall time; the set-up likewise."""
    ref = speed.REFERENCE_S
    record = {"latencies": [0.2] * 15 + [0.4] * 15,
              "calibrations": [ref] * 15 + [2 * ref] * 15,
              "oks": [True] * 30, "peak_rss_mb": 1.0}
    metrics, notes = run.end_to_end(record, [{"setup_s": 0.3, "calibration": 3 * ref}])
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(200.0)
    assert metrics["latency_tail_ms"]["value"] == pytest.approx(200.0)
    assert metrics["ops_per_s"]["value"] == pytest.approx(5.0)
    assert metrics["setup_s"]["value"] == pytest.approx(0.1)
    assert any("wall time: 3.3333 ops/s" in note for note in notes)


def test_calibration_does_not_change_the_gc_state():
    import gc
    assert gc.isenabled()
    assert speed.calibrate() > 0
    assert gc.isenabled()


def test_tail_is_the_highest_percentile_with_ten_beyond():
    value, percentile = run.tail([float(x) for x in range(1, 101)])
    assert (value, percentile) == (90.0, 90.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_metric_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    record = {"latencies": [0.1] * 30, "calibrations": [0.005] * 30,
              "oks": [True] * 30, "peak_rss_mb": 1.0}
    e2e, _ = run.end_to_end(record, [_SETUP])
    assert {(m["name"], m["unit"]) for m in declared["end_to_end"]} == {
        (name, m["unit"]) for name, m in e2e.items()}
    layers = dict(spans.layer_metrics(spans.Tracer()), **{"trace.overhead_ms": 0.0})
    assert {(m["name"], m["unit"]) for m in declared["per_layer"]} == {
        (name, spans.unit_of(name)) for name in layers}
    assert {w["name"] for w in declared["workloads"]} == set(gen.WORKLOADS) - {"qa-warm"}


def test_refuses_to_run_outside_a_checkout(tmp_path):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "qa-warm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
