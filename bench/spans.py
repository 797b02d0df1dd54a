"""Spans and counters for the benchmark's traced run.

The traced run wraps the public function of each layer of scholarkg from
the outside: :func:`instrument` replaces the function (or method) in
every ``scholarkg`` module that holds it with a wrapper that records a
span and, where the layer has one, a work count. Nothing is wrapped in
an untraced run, so the end-to-end figures carry no tracing cost.

A span is ``(name, start, end, parent, op)``; spans are kept in memory
and written out when the run ends. A layer's self time is its span time
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterable


class Tracer:
    """Records nested spans and counters, but only inside an operation."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []          # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._distinct: dict[str, set] = defaultdict(set)

    @property
    def active(self) -> bool:
        return self._op is not None

    def begin(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self._op])
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def count_distinct(self, name: str, key) -> None:
        """Count ``key`` under ``name`` once per operation."""
        seen = self._distinct[name]
        if key not in seen:
            seen.add(key)
            self.counts[name] += 1

    @contextmanager
    def operation(self, op_id: int):
        """One benchmark operation: the root span of everything it calls."""
        self._op = op_id
        self._distinct.clear()
        span_id = self.begin("op")
        try:
            yield
        finally:
            self.end(span_id)
            self._op = None
            self.ops += 1


def self_times(spans: Iterable[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (children of one span never overlap in a
    single-threaded run, but the union does not rely on it)."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return dict(totals)


# ---------------------------------------------------------------------------
# The layers and their counters
# ---------------------------------------------------------------------------

def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _link(t: Tracer, args, kwargs, result) -> None:
    paragraphs = _arg(args, kwargs, 0, "paragraphs")
    excerpts = _arg(args, kwargs, 1, "excerpts")
    t.count("ingest.link_excerpts.pairs", len(paragraphs) * len(excerpts))
    t.count("ingest.link_excerpts.excerpts", len(excerpts))
    t.count("ingest.link_excerpts.kept", len(result))


def _resolve(t: Tracer, args, kwargs, result) -> None:
    t.count("qa.engine.resolve_query.calls")
    t.count("qa.engine.resolve_query.producing", len(result.producing_queries))
    t.count("qa.engine.resolve_query.exhausted" if result.exhausted
            else f"qa.engine.resolve_query.depth{result.depth}")


def _rank(t: Tracer, args, kwargs, result) -> None:
    candidates = _arg(args, kwargs, 0, "candidates")
    if hasattr(candidates, "__len__"):
        t.count("qa.engine.rank_candidates.triples", len(candidates))


def _embed(t: Tracer, args, kwargs, result) -> None:
    t.count("embedding.embed.calls")
    t.count_distinct("embedding.embed.distinct", _arg(args, kwargs, 1, "text"))


def _complete(t: Tracer, args, kwargs, result) -> None:
    request = _arg(args, kwargs, 1, "request")
    t.count("gateway.complete.calls")
    t.count("gateway.complete.prompt_bytes",
            len(request.system.encode("utf-8")) + len(request.user.encode("utf-8")))


def _sized(counter: str, of: Callable = lambda args, kwargs, result: result):
    def hook(t: Tracer, args, kwargs, result) -> None:
        t.count(counter, len(of(args, kwargs, result)))
    return hook


# (module, attribute, span name, counter hook)
LAYERS = (
    ("scholarkg.cli", "run", "cli.run", None),
    ("scholarkg.chunked_xml", "parse_chunked_xml", "chunked_xml.parse_chunked_xml", None),
    ("scholarkg.ingest", "build_document_model", "ingest.build_document_model", None),
    ("scholarkg.ingest", "link_excerpts", "ingest.link_excerpts", _link),
    ("scholarkg.ingest", "emit_rdf", "ingest.emit_rdf", _sized("ingest.emit_rdf.triples")),
    ("scholarkg.kg.turtle", "save_turtle", "kg.turtle.save_turtle",
     _sized("kg.turtle.save_turtle.bytes")),
    ("scholarkg.kg.turtle", "load_turtle", "kg.turtle.load_turtle",
     _sized("kg.turtle.load_turtle.bytes", lambda a, k, r: _arg(a, k, 0, "data"))),
    ("scholarkg.kg.graph", "KnowledgeGraph.__init__", "kg.graph.KnowledgeGraph",
     _sized("kg.graph.KnowledgeGraph.triples", lambda a, k, r: a[0])),
    ("scholarkg.qa.engine", "extract_question_patterns",
     "qa.engine.extract_question_patterns", None),
    ("scholarkg.qa.engine", "resolve_query", "qa.engine.resolve_query", _resolve),
    ("scholarkg.qa.engine", "match_candidates", "qa.engine.match_candidates",
     lambda t, a, k, r: t.count("qa.engine.match_candidates.calls")),
    ("scholarkg.qa.relaxation", "relax_set", "qa.relaxation.relax_set",
     _sized("qa.relaxation.relax_set.queries")),
    ("scholarkg.qa.engine", "rank_candidates", "qa.engine.rank_candidates", _rank),
    ("scholarkg.qa.context", "select_context", "qa.context.select_context", None),
    ("scholarkg.qa.context", "generate_answer", "qa.context.generate_answer", None),
    ("scholarkg.baseline", "chunk_corpus", "baseline.chunk_corpus",
     _sized("baseline.chunk_corpus.chunks")),
    ("scholarkg.baseline", "retrieve_top_k", "baseline.retrieve_top_k", None),
    ("scholarkg.embedding", "HashedBagOfWordsEmbedder.embed", "embedding.embed", _embed),
    ("scholarkg.gateway", "StubGateway.complete", "gateway.complete", _complete),
)


# The stub gateway's own time is negligible; its calls and bytes stand in
# for HTTP cost. cli.run is reported as self time under its own name.
UNREPORTED_TIMES = ("cli.run", "gateway.complete")


def _wrap(tracer: Tracer, fn: Callable, name: str, hook) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        span_id = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span_id)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer in :data:`LAYERS`; returns a function that undoes it.

    Modules that imported a function by name (``cli`` imports most of
    them) hold their own reference, so every ``scholarkg`` module whose
    attribute is the original function gets the wrapper.
    """
    import scholarkg.cli  # noqa: F401  (loads every layer module)

    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "scholarkg" or n.startswith("scholarkg."))]
    for module_name, attribute, span_name, hook in LAYERS:
        owner = sys.modules[module_name]
        if "." in attribute:
            class_name, attribute = attribute.split(".")
            owner = getattr(owner, class_name)
            targets = [owner]
        else:
            targets = modules
        original = getattr(owner, attribute)
        wrapper = _wrap(tracer, original, span_name, hook)
        for target in targets:
            if target.__dict__.get(attribute) is original:
                setattr(target, attribute, wrapper)
                undo.append((target, attribute, original))

    def uninstall() -> None:
        for target, attribute, original in reversed(undo):
            setattr(target, attribute, original)
    return uninstall


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith(".s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per op (s), counts per op, and ratios of totals."""
    ops = max(tracer.ops, 1)
    own = self_time_by_name(tracer.spans)
    c = tracer.counts
    metrics = {f"{name}.s": own.get(name, 0.0) / ops
               for _, _, name, _ in LAYERS if name not in UNREPORTED_TIMES}
    metrics["cli.run.self.s"] = own.get("cli.run", 0.0) / ops
    for name in ("ingest.link_excerpts.pairs", "embedding.embed.calls",
                 "ingest.emit_rdf.triples", "kg.turtle.save_turtle.bytes",
                 "kg.turtle.load_turtle.bytes", "kg.graph.KnowledgeGraph.triples",
                 "qa.engine.match_candidates.calls", "qa.relaxation.relax_set.queries",
                 "qa.engine.rank_candidates.triples", "baseline.chunk_corpus.chunks",
                 "gateway.complete.calls", "gateway.complete.prompt_bytes"):
        metrics[name] = c.get(name, 0.0) / ops
    metrics["ingest.link_excerpts.kept_ratio"] = _ratio(
        c.get("ingest.link_excerpts.kept", 0), c.get("ingest.link_excerpts.excerpts", 0))
    metrics["embedding.embed.distinct_ratio"] = _ratio(
        c.get("embedding.embed.distinct", 0), c.get("embedding.embed.calls", 0))
    metrics["qa.engine.resolve_query.productive_ratio"] = _ratio(
        c.get("qa.engine.resolve_query.producing", 0),
        c.get("qa.engine.match_candidates.calls", 0))
    resolved = c.get("qa.engine.resolve_query.calls", 0)
    for share in ("depth0", "depth1", "depth2", "exhausted"):
        metrics[f"qa.engine.resolve_query.{share}_share"] = _ratio(
            c.get(f"qa.engine.resolve_query.{share}", 0), resolved)
    return metrics
