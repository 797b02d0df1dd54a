import json
import subprocess
import sys

import pytest

from scholarkg import __version__
from scholarkg.cli import read_config, run
from scholarkg.kg.turtle import load_turtle

QUESTION = "Which tool is applied to extract text from PDF research proposals?"
MEL_PARAGRAPH = ("https://www.anu.edu.au/onto/scholarly/"
                 "Paper-b6bab9d7b1722e-Paragraph-03cf549aa6336afc40258179c8831eda")
TIKA_PARAGRAPH = ("https://www.anu.edu.au/onto/scholarly/"
                  "Paper-d172655b012ac6-Paragraph-325352f5b00189f2425711210097e504")


def invoke(capsys, *argv: str) -> tuple[int, str, str]:
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

def test_read_config_parses_keys_and_comments():
    text = (
        "# retrieval settings\n"
        "top_n = 7\n"
        "diverse-k = 3\n"
        "\n"
        "backend = stub\n"
    )
    assert read_config(text) == {"top_n": "7", "diverse_k": "3",
                                 "backend": "stub"}


def test_read_config_rejects_bad_lines():
    with pytest.raises(ValueError, match="line 1"):
        read_config("top_n 7")


def test_flag_overrides_config_overrides_default(capsys, tmp_path, fixtures_dir):
    config = tmp_path / "settings.conf"
    config.write_text("format = json\n", "utf-8")
    graph = str(fixtures_dir / "scholarly_sample.ttl")

    _, default_out, _ = invoke(capsys, "stats", "--graph", graph)
    assert default_out.startswith("Number of scientific papers:")

    _, config_out, _ = invoke(capsys, "stats", "--graph", graph,
                              "--config", str(config))
    assert json.loads(config_out)["triples"] == 31

    _, flag_out, _ = invoke(capsys, "stats", "--graph", graph,
                            "--config", str(config), "--format", "text")
    assert flag_out == default_out


def test_bad_config_value_is_a_domain_error(capsys, tmp_path, fixtures_dir):
    config = tmp_path / "settings.conf"
    config.write_text("max_depth = banana\n", "utf-8")
    code, _, err = invoke(capsys, "query",
                          "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                          "--question", QUESTION, "--config", str(config))
    assert code == 1
    assert "max_depth" in err


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "stats", "--no-such-flag")
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    assert invoke(capsys, )[0] == 2


def test_missing_file_is_domain_error(capsys):
    code, _, err = invoke(capsys, "stats", "--graph", "/no/such/file.ttl")
    assert code == 1
    assert err.startswith("error:")


def test_version_flag(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert __version__ in out


# ---------------------------------------------------------------------------
# ingest / link round trip
# ---------------------------------------------------------------------------

def test_ingest_outline_and_excerpts(capsys, tmp_path, fixtures_dir):
    out = tmp_path / "doc1.ttl"
    code, stdout, err = invoke(
        capsys, "ingest",
        "--outline", str(fixtures_dir / "outline_doc1.json"),
        "--text", str(fixtures_dir / "doc1.txt"),
        "--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl"),
        "--out", str(out))
    assert code == 0
    assert stdout == ""
    assert "document b6bab9d7b1722e:" in err
    assert "1 excerpt links" in err
    graph = load_turtle(out.read_bytes())
    assert any(t.subject.value == MEL_PARAGRAPH for t in graph)


def test_ingest_chunked_xml_to_stdout(capsys, fixtures_dir):
    code, stdout, err = invoke(
        capsys, "ingest", "--xml", str(fixtures_dir / "chunked_paper.xml"))
    assert code == 0
    assert stdout.startswith("@prefix askg-data:")
    assert "0 excerpt links" in err
    assert load_turtle(stdout.encode("utf-8"))


def test_ingest_requires_a_source(capsys):
    code, _, err = invoke(capsys, "ingest")
    assert code == 1
    assert "needs --xml or both --outline and --text" in err


def test_link_attaches_excerpts_to_existing_graph(capsys, tmp_path, fixtures_dir):
    bare = tmp_path / "bare.ttl"
    invoke(capsys, "ingest",
           "--outline", str(fixtures_dir / "outline_doc1.json"),
           "--text", str(fixtures_dir / "doc1.txt"),
           "--out", str(bare))

    linked = tmp_path / "linked.ttl"
    code, _, err = invoke(
        capsys, "link", "--graph", str(bare),
        "--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl"),
        "--out", str(linked))
    assert code == 0
    assert "linked 1 of 1 excerpts" in err
    assert "(similarity 1.0000)" in err
    graph = load_turtle(linked.read_bytes())
    assert any(t.predicate.local_name() == "hasExcerpt" for t in graph)

    # Linking afterwards emits exactly what ingesting with excerpts emits.
    for doc in ("doc1", "doc2"):
        source = ("--outline", str(fixtures_dir / f"outline_{doc}.json"),
                  "--text", str(fixtures_dir / f"{doc}.txt"))
        excerpts = str(fixtures_dir / f"excerpts_{doc}.jsonl")
        at_once, bare, linked = (tmp_path / f"{doc}-{name}.ttl"
                                 for name in ("at-once", "bare", "linked"))
        assert invoke(capsys, "ingest", *source, "--excerpts", excerpts,
                      "--out", str(at_once))[0] == 0
        assert invoke(capsys, "ingest", *source, "--out", str(bare))[0] == 0
        assert invoke(capsys, "link", "--graph", str(bare), "--excerpts", excerpts,
                      "--out", str(linked))[0] == 0
        assert linked.read_bytes() == at_once.read_bytes()


def test_ingest_rejects_excerpt_id_that_cannot_be_written(capsys, tmp_path, fixtures_dir):
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8"))
    record["excerpt_id"] = "x>y"
    excerpts = tmp_path / "excerpts.jsonl"
    excerpts.write_text(json.dumps(record) + "\n", "utf-8")
    code, _, err = invoke(capsys, "ingest",
                          "--outline", str(fixtures_dir / "outline_doc1.json"),
                          "--text", str(fixtures_dir / "doc1.txt"),
                          "--excerpts", str(excerpts),
                          "--out", str(tmp_path / "out.ttl"))
    assert code == 1
    assert "'>'" in err


def write_paragraph_graph(path, node: str, fixtures_dir) -> None:
    """A one-paragraph graph whose label is the doc1 excerpt's sentence."""
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8"))
    path.write_text(f'{node} a askg-onto:Paragraph ;\n'
                    f'    rdfs:label "{record["in_sentence"]}"@en .\n', "utf-8")


def test_link_attaches_edge_to_paragraph_with_slash_in_id(capsys, tmp_path, fixtures_dir):
    graph = tmp_path / "graph.ttl"
    write_paragraph_graph(graph, "<https://www.anu.edu.au/onto/scholarly/a/b>", fixtures_dir)
    linked = tmp_path / "linked.ttl"
    code, _, err = invoke(capsys, "link", "--graph", str(graph),
                          "--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl"),
                          "--out", str(linked))
    assert code == 0, err
    edges = [t for t in load_turtle(linked.read_bytes())
             if t.predicate.local_name() == "hasExcerpt"]
    assert [t.subject.value for t in edges] == [
        "https://www.anu.edu.au/onto/scholarly/a/b"]


def test_link_rejects_paragraph_outside_data_namespace(capsys, tmp_path, fixtures_dir):
    graph = tmp_path / "graph.ttl"
    write_paragraph_graph(graph, "<http://x.example/P1>", fixtures_dir)
    linked = tmp_path / "linked.ttl"
    code, _, err = invoke(capsys, "link", "--graph", str(graph),
                          "--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl"),
                          "--out", str(linked))
    assert code == 1
    assert "<http://x.example/P1>" in err
    assert not linked.exists()


def test_link_threshold_can_reject_all(capsys, tmp_path, fixtures_dir):
    bare = tmp_path / "bare.ttl"
    invoke(capsys, "ingest",
           "--outline", str(fixtures_dir / "outline_doc2.json"),
           "--text", str(fixtures_dir / "doc2.txt"),
           "--out", str(bare))
    code, _, err = invoke(
        capsys, "link", "--graph", str(bare),
        "--excerpts", str(fixtures_dir / "excerpts_doc2.jsonl"),
        "--threshold", "0.99",
        "--out", str(tmp_path / "linked.ttl"))
    assert code == 0
    assert "linked 0 of 2 excerpts" in err


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_query_json_payload(capsys, fixtures_dir):
    code, stdout, err = invoke(
        capsys, "query",
        "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
        "--question", QUESTION, "--format", "json")
    assert code == 0
    assert "4 candidate triples at relaxation depth 1" in err
    payload = json.loads(stdout)
    assert payload["patterns"] == [
        "tool | is_applied_to_extract_from | pdf_research_proposals"]
    assert payload["depth"] == 1
    assert payload["exhausted"] is False
    assert payload["answer"].startswith("A Metadata Extractor & Loader (MEL)")
    assert payload["provenance"] == [MEL_PARAGRAPH, TIKA_PARAGRAPH]
    assert [c["keyword_frequency"] for c in payload["context"]] == [2, 1]
    assert [c["document"] for c in payload["context"]] == [
        "b6bab9d7b1722e", "d172655b012ac6"]
    assert payload["entities"][0] == {
        "entity": "excerpt-8b0888e86548a2", "frequency": 3,
        "purity": 0.0, "score": 0.0}
    assert payload["backend"] == "stub"
    assert "SELECT DISTINCT ?paragraph ?text" in payload["sparql"]
    assert 'FILTER(CONTAINS(LCASE(?text), "tool"))' in payload["sparql"]


def test_query_text_output(capsys, fixtures_dir):
    code, stdout, _ = invoke(
        capsys, "query",
        "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
        "--question", QUESTION)
    assert code == 0
    assert stdout.startswith("Answer: A Metadata Extractor & Loader (MEL)")
    assert "Top entities:" in stdout
    assert "  excerpt-8b0888e86548a2  frequency=3 purity=0.0000" in stdout
    assert f"  {MEL_PARAGRAPH} (document b6bab9d7b1722e, keyword frequency 2)" \
        in stdout


def test_query_reports_exhaustion(capsys, fixtures_dir):
    # "couchdb" grounds a context paragraph, but the exact pattern
    # matches nothing and depth 0 forbids relaxing it
    code, _, err = invoke(
        capsys, "query",
        "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
        "--question", "Which couchdb stores reindeer?",
        "--max-depth", "0")
    assert code == 0
    assert "no candidate triples within relaxation depth 0" in err


def test_query_ungroundable_question_is_a_domain_error(capsys, fixtures_dir):
    code, _, err = invoke(
        capsys, "query",
        "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
        "--question", "Which reindeer migrates across the tundra at night?")
    assert code == 1
    assert "cannot ground an answer" in err


def test_query_on_graph_with_literal_mention(capsys, tmp_path):
    graph = tmp_path / "graph.ttl"
    graph.write_text(
        'askg-data:P a askg-onto:Paragraph ;\n'
        '    rdfs:label "The MEL tool extracts text from PDF proposals."@en ;\n'
        '    askg-onto:hasExcerpt askg-data:e .\n'
        'askg-data:e a askg-onto:Excerpt ;\n'
        '    askg-onto:mentions "mel" .\n', "utf-8")
    code, stdout, err = invoke(
        capsys, "query", "--graph", str(graph),
        "--question", "Which tool extracts text from PDF proposals?", "--format", "json")
    assert code == 0, err
    assert json.loads(stdout)["provenance"] == ["https://www.anu.edu.au/onto/scholarly/P"]


def test_query_output_is_stable_across_runs(capsys, fixtures_dir):
    outputs = {
        invoke(capsys, "query",
               "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
               "--question", QUESTION, "--format", "json")[1]
        for _ in range(3)
    }
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# retrieve-baseline
# ---------------------------------------------------------------------------

def test_retrieve_baseline_over_fixture_corpus(capsys, tmp_path, fixtures_dir):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("doc1.txt", "doc2.txt"):
        (corpus / name).write_text(
            (fixtures_dir / name).read_text("utf-8"), "utf-8")

    code, stdout, err = invoke(
        capsys, "retrieve-baseline", "--corpus", str(corpus),
        "--question", QUESTION, "--top-n", "3", "--format", "json")
    assert code == 0
    assert "from 2 documents" in err
    payload = json.loads(stdout)
    assert len(payload["chunks"]) <= 3
    assert payload["chunks"][0]["document"] in {"doc1", "doc2"}
    similarities = [c["similarity"] for c in payload["chunks"]]
    assert similarities == sorted(similarities, reverse=True)
    assert "Metadata Extractor" in payload["answer"]


def test_retrieve_baseline_rejects_empty_corpus(capsys, tmp_path):
    empty = tmp_path / "corpus"
    empty.mkdir()
    code, _, err = invoke(capsys, "retrieve-baseline", "--corpus", str(empty),
                          "--question", QUESTION)
    assert code == 1
    assert "no .txt documents" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_text_report(capsys, fixtures_dir):
    code, stdout, _ = invoke(
        capsys, "eval",
        "--answers", str(fixtures_dir / "answers.json"),
        "--ratings", str(fixtures_dir / "ratings.csv"))
    assert code == 0
    assert "Question | Overlap Entity Ratio | Jaccard Distance" in stdout
    assert "Q1 | 0.0833 | 0.9545" in stdout
    assert "Q2 | 0.3333 | 0.7500" in stdout
    assert "Q1 | 0.0899" in stdout
    assert "Q2 | 0.5957" in stdout
    assert "Cronbach alpha: 0.7320" in stdout


def test_eval_json_report(capsys, fixtures_dir):
    code, stdout, _ = invoke(
        capsys, "eval",
        "--answers", str(fixtures_dir / "answers.json"),
        "--ratings", str(fixtures_dir / "ratings.csv"),
        "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["cronbach_alpha"] == 0.7320
    assert payload["entity_overlap"][0]["overlap_entity_ratio"] == 0.0833


def test_eval_extracts_entities_when_records_omit_them(capsys, tmp_path):
    records = [{
        "label": "Q1",
        "graph_answer": "MEL extracts text from PDF proposals.",
        "baseline_answer": "Apache Tika parses documents; MEL loads them.",
    }]
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps(records), "utf-8")
    code, stdout, _ = invoke(capsys, "eval", "--answers", str(answers))
    assert code == 0
    # {mel, pdf} vs {apache tika, mel}: 1 shared of max 2, union 3
    assert "Q1 | 0.5000 | 0.6667" in stdout


def test_eval_ratings_only(capsys, fixtures_dir):
    code, stdout, _ = invoke(
        capsys, "eval", "--ratings", str(fixtures_dir / "ratings.csv"))
    assert code == 0
    assert stdout == "Cronbach alpha: 0.7320\n"


def test_eval_requires_some_input(capsys):
    code, _, err = invoke(capsys, "eval")
    assert code == 1
    assert "needs --answers and/or --ratings" in err


def test_eval_rejects_corrupt_ratings(capsys, tmp_path):
    bad = tmp_path / "ratings.csv"
    bad.write_text("q1,q2\n3,4\noops,5\n", "utf-8")
    code, _, err = invoke(capsys, "eval", "--ratings", str(bad))
    assert code == 1
    assert "non-numeric rating row" in err


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_text_lines(capsys, fixtures_dir):
    code, stdout, _ = invoke(
        capsys, "stats", "--graph", str(fixtures_dir / "scholarly_sample.ttl"))
    assert code == 0
    assert stdout == (
        "Number of scientific papers: 0\n"
        "Total sections: 0\n"
        "Total paragraphs: 5\n"
        "Average words per paragraph: 32\n"
        "Total excerpts in the KG: 3\n"
        "Excerpts linked to paragraphs: 3\n"
        "Percentage of linked excerpts: 100.0%\n"
        "Paragraph-excerpt links: 3\n"
        "Number of relationship types: 7\n"
        "Number of entity types: 2\n"
        "Number of triples: 31\n"
        "Number of entities: 12\n"
    )


# ---------------------------------------------------------------------------
# Installed entry point
# ---------------------------------------------------------------------------

def test_console_script_smoke(fixtures_dir):
    result = subprocess.run(
        [sys.executable, "-m", "scholarkg.cli", "query",
         "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
         "--question", QUESTION],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("Answer: A Metadata Extractor")
