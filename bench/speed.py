"""The machine's speed, measured next to every timed operation.

The benchmark runs on shared machines whose speed drifts: a fixed
piece of pure-Python work can take up to 2x longer from one second to
the next, with no steal time reported, so two runs of the same program
minutes apart differ by more than any useful bound. Every time metric
is therefore reported in *reference* units: the wall time of an
operation, scaled by how long a fixed calibration (:func:`calibrate`)
took around it, relative to :data:`REFERENCE_S`.

The calibration uses only the standard library, runs with the garbage
collector off (so the program's heap does not change its cost) and
never touches scholarkg, so a change to the program cannot change it.
The raw wall times are printed beside the reference figures.
"""

from __future__ import annotations

import gc
import random
import time

# What the calibration takes on the reference machine; a scaled time is
# the wall time the operation would take on a machine this fast. On the
# 2-vCPU machine that measured the baseline, the median calibration of a
# run took 1.7-2.7 ms, depending on the load of the host.
REFERENCE_S = 0.002
REPEATS = 3

_rng = random.Random(7)
_TEXT = " ".join(f"w{_rng.randrange(500)}" for _ in range(6000))
_VECTOR = [float(i % 13) for i in range(20000)]


def _work() -> float:
    """A fixed mix of the program's kind of work: splitting text,
    counting words in a dict, and float arithmetic over lists."""
    counts: dict[str, int] = {}
    for word in _TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    total = sum((v * 1.5) ** 0.5 for v in counts.values())
    return total + sum(a * b for a, b in zip(_VECTOR, reversed(_VECTOR)))


def calibrate() -> float:
    """Seconds the calibration takes now: the fastest of ``REPEATS``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` of wall time, taken when the calibration took
    ``calibration``, in reference seconds."""
    return seconds * REFERENCE_S / calibration
