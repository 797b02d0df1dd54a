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
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .baseline import chunk_corpus, retrieve_top_k
from .chunked_xml import parse_chunked_xml
from .embedding import BackendConfig, HashedBagOfWordsEmbedder, HttpEmbedder
from .evaluation import (
    QuestionComparison,
    build_report,
    cronbach_alpha,
    extract_entity_set,
)
from .gateway import GatewayRequest, HttpGateway, StubGateway, format_triples
from .ingest import (
    build_document_model,
    emit_rdf,
    excerpt_link_triples,
    link_excerpts,
    read_excerpts_jsonl,
    read_outline_json,
)
from .document import Paragraph, Sentence, collect_paragraphs
from .kg.graph import KnowledgeGraph, graph_stats
from .kg.terms import NAMESPACES, PARAGRAPH
from .kg.turtle import load_turtle, save_turtle
from .qa.context import generate_answer, select_context
from .qa.engine import (
    default_relaxation_dictionary,
    extract_question_patterns,
    load_template,
    query_entities_of,
    rank_candidates,
    resolve_query,
)

__all__ = ["run", "main"]

_DEFAULTS = {
    "top_n": 10,
    "diverse_k": 5,
    "max_depth": 2,
    "threshold": 0.7,
    "max_tokens": 100,
    "overlap_ratio": 0.05,
    "backend": "stub",
    "embedder": "stub",
    "format": "text",
    "timeout": 30.0,
    "retries": 2,
}

_CASTS = {
    "top_n": int, "diverse_k": int, "max_depth": int, "max_tokens": int,
    "retries": int, "threshold": float, "overlap_ratio": float,
    "timeout": float, "backend": str, "embedder": str, "format": str,
}


def read_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment line."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"bad config line {lineno}: {raw.strip()!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


class _Settings:
    """Option resolution: command-line flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config: dict[str, str] = {}
        if getattr(args, "config", None):
            self.config = read_config(Path(args.config).read_text("utf-8"))

    def get(self, name: str):
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        if name in self.config:
            cast = _CASTS.get(name, str)
            try:
                return cast(self.config[name])
            except ValueError:
                raise ValueError(
                    f"config value for {name!r} is not a valid {cast.__name__}: "
                    f"{self.config[name]!r}") from None
        return _DEFAULTS.get(name)

    def raw(self, name: str, default: str = "") -> str:
        flag = getattr(self.args, name, None)
        if flag is not None:
            return flag
        return self.config.get(name, default)


def _backend_config(settings: _Settings, role: str) -> BackendConfig:
    url = settings.raw(f"{role}_url") or os.environ.get(
        f"SCHOLARKG_{role.upper()}_URL", "")
    if not url:
        raise ValueError(
            f"http {role} requires {role}_url in the config file or "
            f"SCHOLARKG_{role.upper()}_URL in the environment")
    return BackendConfig(
        url=url,
        model=settings.raw(f"{role}_model") or os.environ.get(
            f"SCHOLARKG_{role.upper()}_MODEL", ""),
        auth_env=settings.raw(f"{role}_auth_env",
                              f"SCHOLARKG_{role.upper()}_TOKEN"),
        timeout=settings.get("timeout"),
        retries=settings.get("retries"),
    )


def _make_gateway(settings: _Settings):
    if settings.get("backend") == "stub":
        return StubGateway()
    return HttpGateway(_backend_config(settings, "gateway"))


def _make_embedder(settings: _Settings):
    if settings.get("embedder") == "stub":
        return HashedBagOfWordsEmbedder()
    return HttpEmbedder(_backend_config(settings, "embedder"))


def _load_graph(path: str):
    return load_turtle(Path(path).read_bytes())


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)


def _emit(payload: dict, text: str, settings: _Settings, out: str | None = None) -> None:
    if settings.get("format") == "json":
        _write_output(json.dumps(payload, indent=2) + "\n", out)
    else:
        _write_output(text, out)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_ingest(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    if args.xml:
        model = parse_chunked_xml(Path(args.xml).read_bytes())
    elif args.outline and args.text:
        outline = read_outline_json(Path(args.outline).read_text("utf-8"))
        model = build_document_model(outline, Path(args.text).read_text("utf-8"))
    else:
        raise ValueError("ingest needs --xml or both --outline and --text")

    excerpts = []
    links = []
    if args.excerpts:
        excerpts = read_excerpts_jsonl(Path(args.excerpts).read_text("utf-8"))
        links = link_excerpts(collect_paragraphs(model), excerpts,
                              _make_embedder(settings),
                              threshold=settings.get("threshold"))
    graph = emit_rdf(model, links, excerpts)
    _write_output(save_turtle(graph).decode("utf-8"), args.out)
    print(f"document {model.doc_id}: {len(graph)} triples, "
          f"{len(links)} excerpt links", file=sys.stderr)
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    graph = _load_graph(args.graph)
    excerpts = read_excerpts_jsonl(Path(args.excerpts).read_text("utf-8"))

    # Link edges are written as askg-data:<paragraph id>, so the id is the
    # IRI's remainder after that namespace.
    data_ns = NAMESPACES["askg-data"]
    paragraphs = []
    for node in graph.subjects_of_type(PARAGRAPH):
        label = graph.label_of(node)
        if label is None:
            continue
        if not node.value.startswith(data_ns):
            raise ValueError(f"cannot link paragraph node <{node.value}>: "
                             f"it is outside the askg-data namespace <{data_ns}>")
        paragraphs.append(Paragraph(
            paragraph_id=node.value[len(data_ns):],
            sentences=(Sentence(text=label.lexical),),
            word_count=len(label.lexical.split()),
        ))
    links = link_excerpts(paragraphs, excerpts, _make_embedder(settings),
                          threshold=settings.get("threshold"))

    paragraph_ids = {p.paragraph_id for p in paragraphs}
    linked = KnowledgeGraph([*graph, *excerpt_link_triples(excerpts, links, paragraph_ids)])
    _write_output(save_turtle(linked).decode("utf-8"), args.out)
    for link in links:
        print(f"{link.excerpt_id} -> {link.paragraph_id} "
              f"(similarity {link.similarity:.4f})", file=sys.stderr)
    print(f"linked {len(links)} of {len(excerpts)} excerpts", file=sys.stderr)
    return 0


def _sparql_of(query_entities: set[str]) -> str:
    conditions = "\n".join(
        f'  FILTER(CONTAINS(LCASE(?text), "{key.replace("_", " ")}")) .'
        for key in sorted(query_entities)
    )
    return load_template("sparql_select.txt").format(conditions=conditions)


def _cmd_query(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    graph = _load_graph(args.graph)
    gateway = _make_gateway(settings)
    embedder = _make_embedder(settings)

    query = extract_question_patterns(args.question, gateway)
    dictionary = default_relaxation_dictionary(query)
    result = resolve_query(graph, query, dictionary,
                           max_depth=settings.get("max_depth"))
    entities = query_entities_of(query)
    ranking = rank_candidates(result.triples, entities)
    context = select_context(graph, entities, top_n=settings.get("top_n"),
                             diverse_k=settings.get("diverse_k"),
                             embedder=embedder)
    if not context:
        raise ValueError(
            f"no paragraph mentions the question's entities "
            f"({', '.join(sorted(entities))}); cannot ground an answer")
    answer = generate_answer(args.question, context, gateway)

    if result.exhausted:
        print(f"no candidate triples within relaxation depth "
              f"{result.max_depth}", file=sys.stderr)
    else:
        print(f"{len(result.triples)} candidate triples at relaxation depth "
              f"{result.depth}", file=sys.stderr)

    pattern_lines = [format_triples([p]) for p in query.patterns]
    payload = {
        "question": args.question,
        "patterns": pattern_lines,
        "entities": [
            {"entity": r.entity, "frequency": r.frequency,
             "purity": round(r.purity, 4), "score": round(r.score, 4)}
            for r in ranking
        ],
        "depth": result.depth,
        "exhausted": result.exhausted,
        "context": [
            {"paragraph": p.node.value, "document": p.document_id,
             "keyword_frequency": p.keyword_frequency, "text": p.text}
            for p in context
        ],
        "provenance": [p.node.value for p in context],
        "answer": answer.answer,
        "sparql": _sparql_of(entities),
        "backend": answer.backend,
    }

    lines = [f"Answer: {answer.answer}", ""]
    if ranking:
        lines.append("Top entities:")
        for r in ranking[:10]:
            lines.append(f"  {r.entity}  frequency={r.frequency} "
                         f"purity={r.purity:.4f}")
        lines.append("")
    lines.append("Provenance:")
    for p in context:
        lines.append(f"  {p.node.value} (document {p.document_id}, "
                     f"keyword frequency {p.keyword_frequency})")
    _emit(payload, "\n".join(lines) + "\n", settings)
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
    settings = _Settings(args)
    documents = _read_corpus(args.corpus)
    chunks = chunk_corpus(documents, max_tokens=settings.get("max_tokens"),
                          overlap_ratio=settings.get("overlap_ratio"))
    embedder = _make_embedder(settings)
    retrieved = retrieve_top_k(chunks, args.question,
                               k=settings.get("top_n"), embedder=embedder)

    gateway = _make_gateway(settings)
    block = "\n\n".join(r.chunk.text for r in retrieved) or "(no context)"
    response = gateway.complete(GatewayRequest(
        system="",
        user=load_template("answer.txt").format(
            question=args.question, context=block),
    ))
    print(f"{len(chunks)} chunks from {len(documents)} documents",
          file=sys.stderr)

    payload = {
        "question": args.question,
        "chunks": [
            {"chunk_id": r.chunk.chunk_id, "document": r.chunk.document_id,
             "similarity": round(r.similarity, 4), "text": r.chunk.text}
            for r in retrieved
        ],
        "answer": response.text.strip(),
    }
    lines = [f"Answer: {response.text.strip()}", "", "Chunks:"]
    for r in retrieved:
        lines.append(f"  {r.chunk.chunk_id} (similarity {r.similarity:.4f})")
    _emit(payload, "\n".join(lines) + "\n", settings)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    embedder = _make_embedder(settings)

    payload: dict = {}
    text_parts: list[str] = []
    if args.answers:
        records = json.loads(Path(args.answers).read_text("utf-8"))
        comparisons = []
        for r in records:
            # Records may carry the entity sets; otherwise they are
            # extracted from the answer texts.
            known = r.get("known_entities", ())
            graph_entities = (
                r["graph_entities"] if "graph_entities" in r
                else extract_entity_set(r["graph_answer"], known))
            baseline_entities = (
                r["baseline_entities"] if "baseline_entities" in r
                else extract_entity_set(r["baseline_answer"], known))
            comparisons.append(QuestionComparison(
                label=str(r["label"]),
                graph_entities=frozenset(graph_entities),
                baseline_entities=frozenset(baseline_entities),
                graph_answer=r["graph_answer"],
                baseline_answer=r["baseline_answer"],
            ))
        report = build_report(comparisons, embedder)
        payload.update(report.to_dict())
        text_parts.append(report.to_text())
    if args.ratings:
        with open(args.ratings, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        ratings: list[list[float]] = []
        for row in rows:
            if not row:
                continue
            try:
                ratings.append([float(cell) for cell in row])
            except ValueError:
                if ratings:
                    raise ValueError("non-numeric rating row after data rows")
                continue  # header row
        alpha = cronbach_alpha(ratings)
        payload["cronbach_alpha"] = round(alpha, 4)
        text_parts.append(f"Cronbach alpha: {alpha:.4f}\n")
    if not payload:
        raise ValueError("eval needs --answers and/or --ratings")
    _emit(payload, "\n".join(text_parts), settings)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    stats = graph_stats(_load_graph(args.graph))
    text = "\n".join(f"{name}: {value}" for name, value in stats.rows()) + "\n"
    _emit(stats.to_dict(), text, settings)
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key = value settings file")
        p.add_argument("--format", choices=("text", "json"))
        p.add_argument("--backend", choices=("stub", "http"),
                       help="language-model backend")
        p.add_argument("--embedder", choices=("stub", "http"),
                       help="embedding backend")

    p = sub.add_parser("ingest", help="build a graph from a document")
    p.add_argument("--xml", help="chunked XML document")
    p.add_argument("--outline", help="heading outline JSON")
    p.add_argument("--text", help="plain-text document for --outline")
    p.add_argument("--excerpts", help="excerpt records (JSON lines)")
    p.add_argument("--threshold", type=float,
                   help="minimum link similarity (default 0.7)")
    p.add_argument("--out", help="output Turtle file (default stdout)")
    common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("link", help="link excerpt records into a graph")
    p.add_argument("--graph", required=True, help="Turtle graph with paragraphs")
    p.add_argument("--excerpts", required=True, help="excerpt records (JSON lines)")
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="output Turtle file (default stdout)")
    common(p)
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("query", help="answer a question from a graph")
    p.add_argument("--graph", required=True, help="Turtle graph")
    p.add_argument("--question", required=True)
    p.add_argument("--top-n", type=int, dest="top_n",
                   help="context candidates to keep (default 10)")
    p.add_argument("--diverse-k", type=int, dest="diverse_k",
                   help="diverse context paragraphs to select (default 5)")
    p.add_argument("--max-depth", type=int, dest="max_depth",
                   help="relaxation depth budget (default 2)")
    common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("retrieve-baseline",
                       help="answer a question from sliding-window chunks")
    p.add_argument("--corpus", required=True, help="directory of .txt documents")
    p.add_argument("--question", required=True)
    p.add_argument("--top-n", type=int, dest="top_n",
                   help="chunks to retrieve (default 10)")
    p.add_argument("--max-tokens", type=int, dest="max_tokens",
                   help="tokens per chunk (default 100)")
    p.add_argument("--overlap-ratio", type=float, dest="overlap_ratio",
                   help="chunk overlap fraction (default 0.05)")
    common(p)
    p.set_defaults(func=_cmd_retrieve_baseline)

    p = sub.add_parser("eval", help="compare pipeline answers")
    p.add_argument("--answers", help="JSON list of per-question answer records")
    p.add_argument("--ratings", help="CSV of rater scores (rows raters)")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("stats", help="summarise a graph")
    p.add_argument("--graph", required=True, help="Turtle graph")
    common(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Run the CLI; returns the exit code instead of raising."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
