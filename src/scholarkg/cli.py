"""Command-line interface.

Subcommands cover the pipeline end to end: ``ingest`` builds a graph
from a document, ``link`` attaches excerpt records to an existing
graph, ``query`` answers a question from a graph, ``retrieve-baseline``
answers it from sliding-window chunks instead, ``eval`` compares the
two, and ``stats`` summarises a graph.

Results go to stdout; progress and diagnostics go to stderr. Exit codes
are 0 on success, 1 on a domain or I/O error, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from . import __version__
from .baseline import chunk_corpus, retrieve_top_k
from .chunked_xml import parse_chunked_xml
from .document import validate_model
from .embedding import BackendConfig, HashedBagOfWordsEmbedder, HttpEmbedder
from .gateway import HttpGateway, StubGateway
from .ingest import (
    build_document_model,
    emit_rdf,
    link_graph,
    read_excerpts_jsonl,
    read_outline_json,
)
from .kg.graph import graph_stats
from .kg.turtle import load_turtle, save_turtle
from .qa.context import answer_question, generate_answer

__all__ = ["run", "main"]

# Every option: its default, and the help of its flag, or None for a key
# that only the config file sets. A value from a flag or from the file is
# cast to the type of the default, and the keys of _CHOICES take only the
# listed values. The backend keys say where each HTTP service lives; an
# empty url or model is read from the environment instead.
_BACKENDS = ("stub", "http")
_CHOICES = {"format": ("text", "json"), "backend": _BACKENDS, "embedder": _BACKENDS}
_OPTIONS = {
    "top_n": (10, "context paragraphs or chunks to keep"),
    "diverse_k": (5, "diverse context paragraphs to select"),
    "max_depth": (2, "relaxation depth budget"),
    "threshold": (0.7, "minimum link similarity"),
    "max_tokens": (100, "tokens per chunk"),
    "overlap_ratio": (0.05, "chunk overlap fraction"),
    "backend": ("stub", "language-model backend"),
    "embedder": ("stub", "embedding backend"),
    "format": ("text", "output format"),
    "timeout": (30.0, None),
    "retries": (2, None),
    **{f"{role}_{field}": (default, None)
       for role in ("gateway", "embedder")
       for field, default in (("url", ""), ("model", ""),
                              ("auth_env", f"SCHOLARKG_{role.upper()}_TOKEN"))},
}


def read_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment line.

    A key is a key of ``_OPTIONS``, with ``-`` read as ``_``; any other
    key is refused.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"bad config line {lineno}: {raw.strip()!r}")
        name = key.strip().replace("-", "_")
        if name not in _OPTIONS:
            raise ValueError(f"unknown config key on line {lineno}: {key.strip()!r}")
        values[name] = value.strip()
    return values


def _config_value(name: str, raw: str):
    """A config file's value, cast to the type of its default."""
    cast = type(_OPTIONS[name][0])
    try:
        value = cast(raw)
    except ValueError:
        raise ValueError(f"config value for {name!r} is not a valid "
                         f"{cast.__name__}: {raw!r}") from None
    if name in _CHOICES and value not in _CHOICES[name]:
        raise ValueError(f"config value for {name!r} must be one of "
                         f"{', '.join(_CHOICES[name])}: {raw!r}")
    return value


def _resolve_options(args: argparse.Namespace) -> None:
    """Set every option on ``args``: its flag, else the config file's
    value, else its default.

    Every key and value in the config file is checked, whether or not the
    command reads it.
    """
    config = {}
    if args.config:
        text = Path(args.config).read_text("utf-8-sig")
        config = {name: _config_value(name, raw)
                  for name, raw in read_config(text).items()}
    for name, (default, _) in _OPTIONS.items():
        if getattr(args, name, None) is None:
            setattr(args, name, config.get(name, default))


def _backend_config(args: argparse.Namespace, role: str) -> BackendConfig:
    env = f"SCHOLARKG_{role.upper()}_"
    url = getattr(args, f"{role}_url") or os.environ.get(env + "URL", "")
    if not url:
        raise ValueError(
            f"http {role} requires {role}_url in the config file or "
            f"{env}URL in the environment")
    return BackendConfig(
        url=url, model=getattr(args, f"{role}_model") or os.environ.get(env + "MODEL", ""),
        auth_env=getattr(args, f"{role}_auth_env"), timeout=args.timeout, retries=args.retries)


def _make_gateway(args: argparse.Namespace):
    if args.backend == "stub":
        return StubGateway()
    return HttpGateway(_backend_config(args, "gateway"))


def _make_embedder(args: argparse.Namespace):
    if args.embedder == "stub":
        return HashedBagOfWordsEmbedder()
    return HttpEmbedder(_backend_config(args, "embedder"))


def _load_graph(path: str):
    return load_turtle(Path(path).read_bytes())


def _write_output(data: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.write(data.decode("utf-8"))


def _emit(payload, text, args: argparse.Namespace) -> None:
    """Write ``payload()`` as JSON or ``text()``, as ``--format`` asks; only that one is built."""
    sys.stdout.write(json.dumps(payload(), indent=2) + "\n" if args.format == "json" else text())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.xml and not (args.outline or args.text):
        model = parse_chunked_xml(Path(args.xml).read_bytes())
    elif args.outline and args.text and not args.xml:
        outline = read_outline_json(Path(args.outline).read_text("utf-8-sig"))
        model = build_document_model(outline, Path(args.text).read_text("utf-8"))
    else:
        raise ValueError("ingest needs --xml or both --outline and --text, not --xml with either")
    issues = validate_model(model)
    if issues:
        raise ValueError(f"invalid document: {issues[0].path}: {issues[0].message}")

    graph, links = emit_rdf(model), []
    if args.excerpts:
        excerpts = read_excerpts_jsonl(Path(args.excerpts).read_text("utf-8-sig"))
        graph, links = link_graph(graph, excerpts, _make_embedder(args), args.threshold)
    _write_output(save_turtle(graph), args.out)
    print(f"document {model.doc_id}: {len(graph)} triples, "
          f"{len(links)} excerpt links", file=sys.stderr)
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    excerpts = read_excerpts_jsonl(Path(args.excerpts).read_text("utf-8-sig"))
    linked, links = link_graph(graph, excerpts, _make_embedder(args), args.threshold)
    _write_output(save_turtle(linked), args.out)
    for link in links:
        print(f"{link.excerpt_id} -> {link.paragraph_id} "
              f"(similarity {link.similarity:.4f})", file=sys.stderr)
    print(f"linked {len(links)} of {len(excerpts)} excerpts", file=sys.stderr)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    result = answer_question(_load_graph(args.graph), args.question, _make_gateway(args),
                             _make_embedder(args), top_n=args.top_n,
                             diverse_k=args.diverse_k, max_depth=args.max_depth)
    candidates = result.candidates
    if candidates.exhausted:
        print(f"no candidate triples within relaxation depth "
              f"{candidates.max_depth}", file=sys.stderr)
    else:
        print(f"{len(candidates.triples)} candidate triples at relaxation depth "
              f"{candidates.depth}", file=sys.stderr)
    _emit(result.to_dict, result.to_text, args)
    return 0


def _read_corpus(path: str) -> dict[str, str]:
    directory = Path(path)
    if not directory.is_dir():
        raise ValueError(f"corpus path is not a directory: {path}")
    documents = {
        f.stem: f.read_text("utf-8") for f in sorted(directory.glob("*.txt"))
    }
    if not documents:
        raise ValueError(f"no .txt documents found under {path}")
    return documents


def _cmd_retrieve_baseline(args: argparse.Namespace) -> int:
    documents = _read_corpus(args.corpus)
    chunks = chunk_corpus(documents, max_tokens=args.max_tokens,
                          overlap_ratio=args.overlap_ratio)
    if not chunks:
        raise ValueError(f"no text to retrieve from: the documents under {args.corpus} "
                         "hold no token")
    retrieved = retrieve_top_k(chunks, args.question, k=args.top_n,
                               embedder=_make_embedder(args))
    answer = generate_answer(args.question, [r.chunk for r in retrieved], _make_gateway(args))
    print(f"{len(chunks)} chunks from {len(documents)} documents",
          file=sys.stderr)

    def text() -> str:
        return "".join([f"Answer: {answer.answer}\n\nChunks:\n", *(
            f"  {r.chunk.chunk_id} (similarity {r.similarity:.4f})\n" for r in retrieved)])

    _emit(lambda: {
        "question": args.question,
        "chunks": [
            {"chunk_id": r.chunk.chunk_id, "document": r.chunk.document_id,
             "similarity": round(r.similarity, 4), "text": r.chunk.text}
            for r in retrieved
        ],
        "answer": answer.answer,
    }, text, args)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    # imported here, so no other command's start-up loads evaluation, csv and statistics
    from .evaluation import build_report, cronbach_alpha, read_answers_json, read_ratings_csv

    embedder = _make_embedder(args)
    payload: dict = {}
    text_parts: list[str] = []
    if args.answers:
        comparisons = read_answers_json(Path(args.answers).read_text("utf-8-sig"))
        report = build_report(comparisons, embedder)
        payload.update(report.to_dict())
        text_parts.append(report.to_text())
    if args.ratings:
        with open(args.ratings, newline="", encoding="utf-8-sig") as handle:
            alpha = cronbach_alpha(read_ratings_csv(handle))
        payload["cronbach_alpha"] = round(alpha, 4)
        text_parts.append(f"Cronbach alpha: {alpha:.4f}\n")
    if not payload:
        raise ValueError("eval needs --answers and/or --ratings")
    _emit(lambda: payload, lambda: "\n".join(text_parts), args)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = graph_stats(_load_graph(args.graph))
    _emit(stats.to_dict,
          lambda: "\n".join(f"{name}: {value}" for name, value in stats.rows()) + "\n", args)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scholarkg",
        description="Build and query knowledge graphs of scholarly documents.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def options(p: argparse.ArgumentParser, *names: str) -> None:
        for name in names:
            default, help_text = _OPTIONS[name]
            p.add_argument(f"--{name.replace('_', '-')}", dest=name, type=type(default),
                           choices=_CHOICES.get(name),
                           help=f"{help_text} (default {default})")

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("--config", help="key = value settings file")
        options(p, *names)

    p = sub.add_parser("ingest", help="build a graph from a document")
    p.add_argument("--xml", help="chunked XML document")
    p.add_argument("--outline", help="heading outline JSON")
    p.add_argument("--text", help="plain-text document for --outline")
    p.add_argument("--excerpts", help="excerpt records (JSON lines)")
    options(p, "threshold")
    p.add_argument("--out", help="output Turtle file (default stdout)")
    common(p, "embedder")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("link", help="link excerpt records into a graph")
    p.add_argument("--graph", required=True, help="Turtle graph with paragraphs")
    p.add_argument("--excerpts", required=True, help="excerpt records (JSON lines)")
    options(p, "threshold")
    p.add_argument("--out", help="output Turtle file (default stdout)")
    common(p, "embedder")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("query", help="answer a question from a graph")
    p.add_argument("--graph", required=True, help="Turtle graph")
    p.add_argument("--question", required=True)
    options(p, "top_n", "diverse_k", "max_depth")
    common(p, "format", "backend", "embedder")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("retrieve-baseline",
                       help="answer a question from sliding-window chunks")
    p.add_argument("--corpus", required=True, help="directory of .txt documents")
    p.add_argument("--question", required=True)
    options(p, "top_n", "max_tokens", "overlap_ratio")
    common(p, "format", "backend", "embedder")
    p.set_defaults(func=_cmd_retrieve_baseline)

    p = sub.add_parser("eval", help="compare pipeline answers")
    p.add_argument("--answers", help="JSON list of per-question answer records")
    p.add_argument("--ratings", help="CSV of rater scores (rows raters)")
    common(p, "format", "embedder")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="summarise a graph")
    p.add_argument("--graph", required=True, help="Turtle graph")
    common(p, "format")
    p.set_defaults(func=_cmd_stats)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on its first call in the process."""
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising.

    The cyclic garbage collector is paused for the command and restored
    to its prior state afterwards; the command's own objects form no
    cycle. The pause is process-wide: other threads run without it too.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits on --help and usage errors
            code = exc.code
            return code if isinstance(code, int) else 2
        try:
            _resolve_options(args)
            return args.func(args)
        except Exception as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
