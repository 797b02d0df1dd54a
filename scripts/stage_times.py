#!/usr/bin/env python3
"""Time cold query, baseline retrieval and ingest stages at several sizes.

Builds the benchmark's ``cli-compare`` corpus graph (``bench/gen.py``)
with 20 paragraphs per paper for each ``--papers`` count, then times, in
this process:

* ``load_turtle`` on the graph's bytes, ``KnowledgeGraph()`` included;
* its two parts: ``_parse`` of the decoded text, and ``KnowledgeGraph()``
  alone, on the parsed triples;
* ``first_reads``: the reads that build a graph's lazy indexes the first
  time a query reads them (``subjects_of_type``, which indexes the type
  triples by their object, and ``labels()``, which indexes each node's
  least literal label, read for one node);
* ``save_turtle`` of the graph, as ``link`` rewrites the graph it loaded;
* ``qa.engine._anchor_matcher``: the one walk of the graph's sentence,
  link, mention and label buckets into the joined anchor text and the
  mention-key map;
* ``resolve_query`` of the corpus's first question (its patterns taken
  from the stub gateway beforehand, ``max_depth=2``), each run building a
  fresh matcher, so the walk is counted here too;
* ``embed_many`` of the baseline's chunk texts of the corpus (the
  ``retrieve-baseline`` input), by a fresh stub embedder each run;
* ``retrieve_top_k`` of those chunks for the corpus's first question
  (k = 10), by a fresh stub embedder each run;
* ``select_context`` for the entities of the corpus's first question
  (the default ``top_n`` and ``diverse_k``), by a fresh stub embedder
  each run;
* ``answer_question`` of the corpus's first question (the default
  options), with fresh stub backends each run;
* ``cli_query`` and ``cli_retrieve_baseline``: one in-process
  ``cli.run`` of ``query`` and of ``retrieve-baseline`` of that question
  with ``--format json``, over the graph and the baseline's documents
  written to a temporary directory, its output discarded: the
  end-to-end CLI time of each side, reading the files included.

``first_reads``, ``save_turtle``, ``_anchor_matcher``, ``resolve_query``,
``select_context`` and ``answer_question`` run on a graph built afresh
before each run, outside the timed region, so each pays for the first
reads it makes, as a cold ``query`` does. The library rows run with the
cyclic garbage collector on, as a library caller's code does; the
``cli_`` rows run with it paused, as ``cli.run`` pauses it for a command.

For the ingest side it takes the first ``ingest-corpus`` paper
(``bench/gen.py``'s ``ingest_papers``) of each of 10, 45 and 80
paragraphs and times:

* the two document readers, which ``ingest``'s parse stage runs:
  ``parse_chunked_xml`` of the paper's chunked XML, as UTF-8 bytes as
  ``ingest --xml`` reads them, and ``build_document_model`` of its
  outline, read beforehand, and its text;

and, on the document model built from the outline and text:

* ``link_excerpts`` of its excerpts to its paragraphs (the threshold
  0.7), by a fresh stub embedder each run, so the embedding is counted;
  ``pairs`` is paragraphs x excerpts, and ``distinct_sentences`` the
  number of distinct excerpt sentences, each embedded once and scored
  once against every paragraph;
* its two halves: ``link_embed``, ``embed_many`` of the paragraph texts
  and the distinct sentences by a fresh stub embedder each run, and
  ``link_score``, ``cosine_similarities`` of the sentence vectors
  against the paragraph vectors, both embedded beforehand;
* ``save_turtle`` of the linked graph, which ``link_graph`` builds
  afresh before each run, outside the timed region, so each run writes
  the graph as ``ingest --excerpts`` does;
* ``fresh_ingest_xml``: ``python -m scholarkg.cli ingest --xml`` of the
  paper's chunked XML file in a fresh interpreter, with the bytecode
  cache of ``fresh_query`` (below): the start-up, which does not load
  ElementTree, plus the parse, which does.

For the CLI itself it times ``cli.build_parser()``, which ``cli.run``
calls once per process, on its first command, and a command's start-up
in fresh interpreters (``startup``):

* ``import_cli_no_cache``: ``python -c "import scholarkg.cli"`` with
  ``PYTHONDONTWRITEBYTECODE=1``, on a copy of the package's ``.py`` files
  in a temporary directory, so the package has no bytecode, as in the
  benchmark's set-up on a fresh checkout;
* ``import_cli_cached``: the same import of the package itself with its
  bytecode (and the standard library's) kept under ``-X
  pycache_prefix=<temporary directory>``, written by one run beforehand,
  so nothing is written into the tree;

and, in a fresh interpreter with that bytecode cache, as a user runs it:

* ``fresh_eval``: ``python -m scholarkg.cli eval --format json`` of the
  answers and ratings of ``tests/fixtures``, the one command whose
  start-up loads ``scholarkg.evaluation`` (with ``csv`` and
  ``statistics``), which ``import scholarkg.cli`` leaves out;
* per size, ``fresh_query``: ``python -m scholarkg.cli query --format
  json`` of the question over the graph file.

Each figure is the median and the minimum of ``--repeats`` runs, in
wall-clock milliseconds and in reference milliseconds: each run's wall
time scaled by ``bench/speed.py``'s ``calibrate()``, taken just before
and just after the run, as the benchmark scales its operations. The
machine's speed drifts between processes, so two checkouts are ordered
by their reference figures. Prints one JSON object. Run from a
checkout's root, with the ``scholarkg`` to time on ``PYTHONPATH``
(``src`` of this checkout by default):

    PYTHONPATH=src python3 scripts/stage_times.py --seed 401 --papers 10 25 100
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "bench"))

import gen  # noqa: E402
import speed  # noqa: E402

from scholarkg import cli  # noqa: E402
from scholarkg.baseline import chunk_corpus, retrieve_top_k  # noqa: E402
from scholarkg.chunked_xml import parse_chunked_xml  # noqa: E402
from scholarkg.document import collect_paragraphs  # noqa: E402
from scholarkg.embedding import HashedBagOfWordsEmbedder, cosine_similarities  # noqa: E402
from scholarkg.gateway import StubGateway  # noqa: E402
from scholarkg.ingest import (  # noqa: E402
    build_document_model,
    emit_rdf,
    link_excerpts,
    link_graph,
    read_excerpts_jsonl,
    read_outline_json,
)
from scholarkg.kg.graph import KnowledgeGraph  # noqa: E402
from scholarkg.kg.terms import PARAGRAPH  # noqa: E402
from scholarkg.kg.turtle import _parse, load_turtle, save_turtle  # noqa: E402
from scholarkg.qa.context import answer_question, select_context  # noqa: E402
from scholarkg.qa.engine import (  # noqa: E402
    _anchor_matcher,
    default_relaxation_dictionary,
    extract_question_patterns,
    query_entities_of,
    resolve_query,
)

PACKAGE = Path(cli.__file__).resolve().parent
PARAGRAPHS_PER_PAPER = gen.CLI_PARAGRAPHS
INGEST_PARAGRAPHS = (10, 45, 80)


def timed(fn, repeats: int, make=None) -> dict:
    """Time ``fn()``, or ``fn(make())`` with ``make`` called before the clock starts."""
    seconds, reference = [], []
    for _ in range(repeats):
        args = (make(),) if make else ()
        before = speed.calibrate()
        start = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - start
        seconds.append(wall)
        reference.append(speed.scaled(wall, (before + speed.calibrate()) / 2))
    return {"median_ms": round(1000 * statistics.median(seconds), 2),
            "min_ms": round(1000 * min(seconds), 2),
            "ref_median_ms": round(1000 * statistics.median(reference), 2),
            "ref_min_ms": round(1000 * min(reference), 2)}


def cli_run(argv: list[str]) -> None:
    """``cli.run(argv)`` with its output discarded; a failing command raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    if code:
        raise RuntimeError(f"{argv[0]} exited with {code}")


def fresh(argv: list[str], path: Path, **env: str) -> None:
    """``python argv`` in a fresh interpreter with ``path`` as its
    ``PYTHONPATH``, its output discarded; a failing command raises."""
    environ = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    subprocess.run([sys.executable, *argv], env={**environ, "PYTHONPATH": str(path), **env},
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)


def cached(tmp: str, *argv: str) -> list[str]:
    """``argv`` with its bytecode kept under ``tmp``."""
    return ["-X", f"pycache_prefix={Path(tmp, 'pycache')}", *argv]


def startup_times(repeats: int) -> dict:
    """The ``startup`` rows."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "src")
        for path in PACKAGE.rglob("*.py"):
            target = copy / "scholarkg" / path.relative_to(PACKAGE)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
        load = ["-c", "import scholarkg.cli"]
        fresh(cached(tmp, *load), PACKAGE.parent)
        evaluate = cached(tmp, "-m", "scholarkg.cli", "eval", "--answers",
                          str(FIXTURES / "answers.json"), "--ratings",
                          str(FIXTURES / "ratings.csv"), "--format", "json")
        fresh(evaluate, PACKAGE.parent)
        return {"import_cli_no_cache": timed(lambda: fresh(
                    load, copy, PYTHONDONTWRITEBYTECODE="1"), repeats),
                "import_cli_cached": timed(lambda: fresh(
                    cached(tmp, *load), PACKAGE.parent), repeats),
                "fresh_eval": timed(lambda: fresh(evaluate, PACKAGE.parent), repeats)}


def cli_times(data: bytes, documents: dict[str, str], question: str, repeats: int) -> dict:
    """The ``cli_query``, ``cli_retrieve_baseline`` and ``fresh_query`` rows."""
    with tempfile.TemporaryDirectory() as tmp:
        graph, corpus = Path(tmp, "graph.ttl"), Path(tmp, "corpus")
        graph.write_bytes(data)
        corpus.mkdir()
        for key, text in documents.items():
            (corpus / f"{key}.txt").write_text(text, "utf-8")
        ask = ["--question", question, "--format", "json"]
        query = cached(tmp, "-m", "scholarkg.cli", "query", "--graph", str(graph), *ask)
        fresh(query, PACKAGE.parent)
        return {"cli_query": timed(lambda: cli_run(
                    ["query", "--graph", str(graph), *ask]), repeats),
                "cli_retrieve_baseline": timed(lambda: cli_run(
                    ["retrieve-baseline", "--corpus", str(corpus), *ask]), repeats),
                "fresh_query": timed(lambda: fresh(query, PACKAGE.parent), repeats)}


def stage_times(seed: int, papers: int, repeats: int) -> dict:
    corpus = gen.corpus(seed, "cli", papers, PARAGRAPHS_PER_PAPER, gen.CLI_BLOCK,
                        gen.CLI_BLOCKS, gen.CLI_RANKS)
    data = gen.corpus_turtle(corpus)[0].encode("utf-8")
    text = data.decode("utf-8")
    triples = _parse(text)
    graph = KnowledgeGraph(triples)
    # the documents bench/gen.py writes for retrieve-baseline
    documents = {paper.key: "\n\n".join(" ".join(s) for _, s in paper.paragraphs()) + "\n"
                 for paper in corpus.papers}
    chunks = chunk_corpus(documents)
    texts = [chunk.text for chunk in chunks]
    question = corpus.questions[0].text
    query = extract_question_patterns(question, StubGateway())
    dictionary = default_relaxation_dictionary(query)
    entities = query_entities_of(query)

    def fresh() -> KnowledgeGraph:
        return KnowledgeGraph(triples)

    def first_reads(g: KnowledgeGraph) -> None:
        g.labels().get(g.subjects_of_type(PARAGRAPH)[0])

    return {
        "papers": papers,
        "paragraphs": papers * PARAGRAPHS_PER_PAPER,
        "triples": len(graph),
        "bytes": len(data),
        "chunks": len(chunks),
        "load_turtle": timed(lambda: load_turtle(data), repeats),
        "_parse": timed(lambda: _parse(text), repeats),
        "KnowledgeGraph": timed(lambda: KnowledgeGraph(triples), repeats),
        "first_reads": timed(first_reads, repeats, fresh),
        "save_turtle": timed(save_turtle, repeats, fresh),
        "_anchor_matcher": timed(_anchor_matcher, repeats, fresh),
        "resolve_query": timed(lambda g: resolve_query(g, query, dictionary, max_depth=2),
                               repeats, fresh),
        "embed_many": timed(lambda: HashedBagOfWordsEmbedder().embed_many(texts), repeats),
        "retrieve_top_k": timed(lambda: retrieve_top_k(
            chunks, question, k=10, embedder=HashedBagOfWordsEmbedder()), repeats),
        "select_context": timed(lambda g: select_context(
            g, entities, embedder=HashedBagOfWordsEmbedder()), repeats, fresh),
        "answer_question": timed(lambda g: answer_question(
            g, question, StubGateway(), HashedBagOfWordsEmbedder()), repeats, fresh),
        **cli_times(data, documents, question, repeats),
    }


def fresh_ingest_xml(xml: bytes, repeats: int) -> dict:
    """The ``fresh_ingest_xml`` row of one paper's chunked XML."""
    with tempfile.TemporaryDirectory() as tmp:
        paper = Path(tmp, "paper.xml")
        paper.write_bytes(xml)
        ingest = cached(tmp, "-m", "scholarkg.cli", "ingest", "--xml", str(paper))
        fresh(ingest, PACKAGE.parent)
        return timed(lambda: fresh(ingest, PACKAGE.parent), repeats)


def ingest_stage_times(seed: int, repeats: int) -> list[dict]:
    papers = {}
    for item in gen.ingest_papers(seed):
        papers.setdefault(item["paragraphs"], item["paper"])
    sizes = []
    for n_paragraphs in INGEST_PARAGRAPHS:
        paper = papers[n_paragraphs]
        text, records = paper.plain_text()
        outline = read_outline_json(json.dumps(records))
        xml = paper.chunked_xml().encode("utf-8")
        model = build_document_model(outline, text)
        paragraphs = collect_paragraphs(model)
        excerpts = read_excerpts_jsonl(paper.excerpts_jsonl())

        def linked() -> KnowledgeGraph:
            return link_graph(emit_rdf(model), excerpts, HashedBagOfWordsEmbedder())[0]

        graph, links = link_graph(emit_rdf(model), excerpts, HashedBagOfWordsEmbedder())
        texts = [p.text for p in paragraphs]
        sentences = list(dict.fromkeys(e.in_sentence for e in excerpts))
        vectors = HashedBagOfWordsEmbedder().embed_many(texts + sentences)
        sizes.append({
            "paragraphs": len(paragraphs),
            "excerpts": len(excerpts),
            "distinct_sentences": len(sentences),
            "pairs": len(paragraphs) * len(excerpts),
            "links": len(links),
            "triples": len(graph),
            "bytes": len(save_turtle(graph)),
            "parse_chunked_xml": timed(lambda: parse_chunked_xml(xml), repeats),
            "build_document_model": timed(lambda: build_document_model(outline, text), repeats),
            "link_excerpts": timed(lambda: link_excerpts(
                paragraphs, excerpts, HashedBagOfWordsEmbedder()), repeats),
            "link_embed": timed(lambda: HashedBagOfWordsEmbedder().embed_many(
                texts + sentences), repeats),
            "link_score": timed(lambda: cosine_similarities(
                vectors[len(texts):], vectors[:len(texts)]), repeats),
            "save_turtle": timed(save_turtle, repeats, linked),
            "fresh_ingest_xml": fresh_ingest_xml(xml, repeats),
        })
    return sizes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=401)
    parser.add_argument("--papers", type=int, nargs="+", default=[10, 25, 100])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    print(json.dumps({"seed": args.seed, "repeats": args.repeats,
                      "sizes": [stage_times(args.seed, n, args.repeats) for n in args.papers],
                      "ingest_sizes": ingest_stage_times(args.seed, args.repeats),
                      "build_parser": timed(cli.build_parser, args.repeats),
                      "startup": startup_times(args.repeats)},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
