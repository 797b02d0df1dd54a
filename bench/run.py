#!/usr/bin/env python3
"""scholarkg benchmark.

Run from the root of a scholarkg checkout:

    python3 bench/run.py --workload cli-compare --seed 1 --seconds 50 --trace 0

It writes the workload's inputs for ``--seed`` under ``.bench_work/``,
times the program's set-up in fresh interpreters, then runs one closed
loop client (one process, one op at a time) for ``--seconds`` and checks
every op's output. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end ones, or with ``--trace 1`` the per-layer ones. The lines
before it show the same figures for people, with error_rate, the
percentile behind ``latency_tail_ms`` and the raw wall times. Every time
metric is in reference units: wall time scaled by a calibration of the
machine's speed taken just before it (see ``bench/speed.py``).

Workloads: ``ingest-corpus``, ``qa-warm``, ``cli-compare``; see
``bench/README.md`` for why each exists and what it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

SETUP_REPEATS = 8
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with at least ``TAIL_BEYOND``
    operations beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} successful operations leave none with "
                         f"{TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(record: dict, setup: list[dict]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of a loop record, and lines describing them.

    Times are in reference seconds (``speed.scaled``): each op's and each
    set-up's wall time scaled by the calibration measured around it.
    """
    pairs = list(zip(record["latencies"], record["calibrations"]))
    every = [speed.scaled(lat, cal) for lat, cal in pairs]
    latencies = [t for t, ok in zip(every, record["oks"]) if ok]
    wall = [lat for (lat, _), ok in zip(pairs, record["oks"]) if ok]
    attempted = len(record["oks"])
    tail_s, percentile = tail(latencies)
    metrics = {
        "ops_per_s": (len(latencies) / sum(every), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000.0 * tail_s, "ms"),
        "setup_s": (statistics.median(
            speed.scaled(s["setup_s"], s["calibration"]) for s in setup), "s"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
    }
    notes = [
        f"error_rate {(attempted - len(latencies)) / attempted:.4f} "
        f"({attempted - len(latencies)} of {attempted} ops failed)",
        f"latency_tail_ms is p{percentile:.1f} of {len(latencies)} ops "
        f"({TAIL_BEYOND} beyond it)",
        f"setup_s is the median of {len(setup)} fresh set-ups",
        f"times are scaled to a {1000 * speed.REFERENCE_S:g} ms calibration; it took "
        f"{1000 * statistics.median(record['calibrations']):.3f} ms (median) in this run",
        f"wall time: {len(wall) / sum(record['latencies']):.4f} ops/s, "
        f"p50 {1000 * statistics.median(wall):.2f} ms, "
        f"setup {statistics.median(s['setup_s'] for s in setup):.4f} s",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="scholarkg benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "scholarkg" / "cli.py").is_file():
        print("error: run from the root of a scholarkg checkout "
              "(src/scholarkg is missing)", file=sys.stderr)
        return 2

    work = Path(".bench_work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    manifest = gen.write_workload(args.workload, args.seed, work / "inputs")
    manifest_path = work / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=1), "utf-8")

    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    worker = [sys.executable, str(HERE / "worker.py")]

    def call(*extra: str) -> str:
        done = subprocess.run([*worker, *extra, "--manifest", str(manifest_path)],
                              env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"worker {extra[0]} failed:\n{done.stderr[-2000:]}")
        return done.stdout

    def set_ups(count: int) -> list[dict]:
        return [] if args.trace else [
            json.loads(call("setup").splitlines()[-1]) for _ in range(count)]

    try:
        # Half the set-ups run before the loop and half after it, so that
        # setup_s spans the drift in machine speed during the run.
        setup = set_ups(SETUP_REPEATS // 2)
        result_path = work / "result.json"
        call("loop", "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--result", str(result_path))
        setup += set_ups(SETUP_REPEATS - SETUP_REPEATS // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record = json.loads(result_path.read_text("utf-8"))

    attempted, failed = len(record["oks"]), record["oks"].count(False)
    for error in record["errors"]:
        print(error, file=sys.stderr)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}: {attempted} ops, {failed} failed")
    if args.trace:
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in sorted(record["layers"].items())}
        notes = [f"spans written to {work / 'spans.jsonl'}"]
    else:
        try:
            metrics, notes = end_to_end(record, setup)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for name, metric in metrics.items():
        print(f"  {name:45s} {metric['value']:14.6f} {metric['unit']}")
    digest = record["digest"]
    notes.append(f"output digest of the first {digest['ops']} ops: {digest['sha256'][:16]}")
    for note in notes:
        print(f"  {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
