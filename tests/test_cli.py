import argparse
import gc
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from scholarkg import __version__, cli
from scholarkg.cli import read_config, run
from scholarkg.embedding import BackendConfig, HashedBagOfWordsEmbedder
from scholarkg.gateway import StubGateway
from scholarkg.kg.terms import HAS_EXCERPT, PARAGRAPH
from scholarkg.kg.turtle import load_turtle
from scholarkg.qa import context as qa_context
from scholarkg.qa import engine as qa_engine
from scholarkg.qa.context import generate_answer, select_context
from scholarkg.qa.engine import extract_question_patterns, query_entities_of

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

    # A key whose flag takes choices takes only those from the file too.
    sample = str(fixtures_dir / "scholarly_sample.ttl")
    for line, argv in [
        ("format = xml", ["stats", "--graph", sample]),
        ("backend = stbu", ["query", "--graph", sample, "--question", QUESTION]),
        ("embedder = local", ["query", "--graph", sample, "--question", QUESTION]),
    ]:
        config.write_text(line + "\n", "utf-8")
        code, out, err = invoke(capsys, *argv, "--config", str(config))
        key, _, value = line.partition(" = ")
        assert (code, out) == (1, ""), line
        assert f"{key!r} must be one of" in err and repr(value) in err, err


def test_unknown_config_key_is_refused(capsys, tmp_path, fixtures_dir):
    with pytest.raises(ValueError, match="line 2: 'top-m'"):
        read_config("top-n = 3\ntop-m = 1\n")
    # the backend keys are known, in either spelling
    assert read_config("embedder-url = http://e.test\ngateway_auth_env = T\n") == {
        "embedder_url": "http://e.test", "gateway_auth_env": "T"}

    config = tmp_path / "settings.conf"
    config.write_text("top-m = 1\n", "utf-8")
    sample = str(fixtures_dir / "scholarly_sample.ttl")
    for argv in (["query", "--graph", sample, "--question", QUESTION],
                 ["stats", "--graph", sample]):
        code, out, err = invoke(capsys, *argv, "--config", str(config))
        assert (code, out) == (1, ""), argv
        assert "unknown config key" in err and "'top-m'" in err, err


def test_backend_keys_come_from_the_config_file(tmp_path, monkeypatch):
    monkeypatch.delenv("SCHOLARKG_EMBEDDER_URL", raising=False)
    config = tmp_path / "settings.conf"
    config.write_text("embedder-url = http://e.test/v1\nembedder-model = m\n"
                      "embedder-auth-env = MY_TOKEN\n", "utf-8")
    args = argparse.Namespace(config=str(config))
    cli._resolve_options(args)
    assert cli._backend_config(args, "embedder") == BackendConfig(
        url="http://e.test/v1", model="m", auth_env="MY_TOKEN")
    args = argparse.Namespace(config=None)
    cli._resolve_options(args)
    with pytest.raises(ValueError, match="embedder_url"):
        cli._backend_config(args, "embedder")


# The option flags of each subcommand and the arguments it requires.
# ingest and link write Turtle, so they take no --format; only query and
# retrieve-baseline call the language model, so only they take --backend;
# stats embeds nothing, so it takes no --embedder.
OPTION_FLAGS = {
    "ingest": ((), ("threshold", "embedder")),
    "link": (("--graph", "g", "--excerpts", "e"), ("threshold", "embedder")),
    "query": (("--graph", "g", "--question", "q"),
              ("top_n", "diverse_k", "max_depth", "format", "backend", "embedder")),
    "retrieve-baseline": (("--corpus", "c", "--question", "q"),
                          ("top_n", "max_tokens", "overlap_ratio", "format", "backend",
                           "embedder")),
    "eval": ((), ("format", "embedder")),
    "stats": (("--graph", "g"), ("format",)),
}


def test_option_table_drives_flags_and_config(capsys, tmp_path):
    config_only = {name for name, (_, help_line) in cli._OPTIONS.items() if help_line is None}
    assert config_only == {"timeout", "retries"} | {
        f"{role}_{field}" for role in ("gateway", "embedder")
        for field in ("url", "model", "auth_env")}
    parser = cli.build_parser()
    config = tmp_path / "settings.conf"
    for command, (required, names) in OPTION_FLAGS.items():
        code, help_text, _ = invoke(capsys, command, "--help")
        assert code == 0
        help_text = " ".join(help_text.split())
        for name in config_only | ({"format", "backend", "embedder"} - set(names)):
            assert f"--{name.replace('_', '-')}" not in help_text, (command, name)
        for name in names:
            default, help_line = cli._OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            assert f"{flag} " in help_text, (command, flag)
            assert f"{help_line} (default {default})" in help_text, (command, flag)
            # a config value other than the default, and a flag value other than that
            from_file, from_flag = (cli._CHOICES[name][::-1] if name in cli._CHOICES
                                    else (type(default)(3), type(default)(4)))
            config.write_text(f"{name} = {from_file}\n", "utf-8")
            argv = [command, *required, "--config", str(config)]
            for extra, expected in (([], from_file), ([flag, str(from_flag)], from_flag)):
                args = parser.parse_args(argv + extra)
                cli._resolve_options(args)
                assert getattr(args, name) == expected, (command, name, extra)


def test_ingest_and_link_take_no_format_flag(capsys, tmp_path, fixtures_dir):
    graph = str(fixtures_dir / "scholarly_sample.ttl")
    excerpts = str(fixtures_dir / "excerpts_doc1.jsonl")
    ingest = ["ingest", "--outline", str(fixtures_dir / "outline_doc1.json"),
              "--text", str(fixtures_dir / "doc1.txt")]
    link = ["link", "--graph", graph, "--excerpts", excerpts]
    for argv in (ingest, link):
        code, out, err = invoke(capsys, *argv, "--format", "json")
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --format json" in err, err
    # a config file may still set format; ingest and link ignore it
    config = tmp_path / "settings.conf"
    config.write_text("format = json\n", "utf-8")
    for argv in (ingest, link):
        assert invoke(capsys, *argv, "--config", str(config)) == invoke(capsys, *argv), argv


def test_backend_flags_go_only_to_the_commands_that_use_them(capsys, tmp_path, fixtures_dir):
    graph = str(fixtures_dir / "scholarly_sample.ttl")
    ingest = ["ingest", "--outline", str(fixtures_dir / "outline_doc1.json"),
              "--text", str(fixtures_dir / "doc1.txt")]
    link = ["link", "--graph", graph, "--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl")]
    evaluate = ["eval", "--ratings", str(fixtures_dir / "ratings.csv")]
    stats = ["stats", "--graph", graph]
    for argv, flags in ((ingest, ["--backend"]), (link, ["--backend"]),
                        (evaluate, ["--backend"]), (stats, ["--backend", "--embedder"])):
        for flag in flags:
            code, out, err = invoke(capsys, *argv, flag, "http")
            assert (code, out) == (2, ""), (argv, flag)
            assert f"unrecognized arguments: {flag} http" in err, err
    # a config file may still set both; commands that do not read them ignore them
    config = tmp_path / "settings.conf"
    config.write_text("backend = http\n", "utf-8")
    for argv in (ingest, link, evaluate, stats):
        assert invoke(capsys, *argv, "--config", str(config)) == invoke(capsys, *argv), argv
    config.write_text("backend = http\nembedder = http\n", "utf-8")
    assert invoke(capsys, *stats, "--config", str(config)) == invoke(capsys, *stats)


def test_config_values_are_checked_even_when_unread(capsys, tmp_path, fixtures_dir):
    # stats reads neither max_depth nor threshold, yet a bad value fails it
    config = tmp_path / "settings.conf"
    sample = str(fixtures_dir / "scholarly_sample.ttl")
    for line in ("max_depth = banana", "threshold = high", "embedder = local"):
        config.write_text(line + "\n", "utf-8")
        code, out, err = invoke(capsys, "stats", "--graph", sample, "--config", str(config))
        assert (code, out) == (1, ""), line
        assert repr(line.partition(" = ")[0]) in err, err
    config.write_text("max_depth = 1\nthreshold = 0.5\n", "utf-8")
    assert invoke(capsys, "stats", "--graph", sample, "--config", str(config))[0] == 0


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


def test_run_builds_one_parser_that_outlives_a_usage_error(capsys, monkeypatch, fixtures_dir):
    stats = ["stats", "--graph", str(fixtures_dir / "scholarly_sample.ttl"), "--format", "json"]
    expected = invoke(capsys, *stats)
    assert expected[0] == 0
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(build()) or built[-1])
    cli._parser.cache_clear()
    code, out, err = invoke(capsys, *stats[:-1], "yaml")
    assert (code, out) == (2, "") and "invalid choice: 'yaml'" in err
    assert invoke(capsys, *stats) == expected
    assert len(built) == 1
    assert build() is not build()


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


@pytest.mark.parametrize("body, message", [
    ("<sentence>First one.</sentence><sentence>  </sentence><sentence>Second.</sentence>",
     "sentence has no text"),
    ("<sentence/>", "sentence has no text"),
    ("<heading>H<bogus x='1'>B</bogus></heading><sentence>S.</sentence>",
     "unexpected <bogus> inside <heading>"),
    ("<sentence>S.</sentence><reference>3<b/>4</reference>", "unexpected <b> inside <reference>"),
])
def test_ingest_refuses_chunked_xml_it_cannot_represent(capsys, tmp_path, fixtures_dir,
                                                        body, message):
    (tmp_path / "doc.xml").write_text(f"<section><section ID='1'>{body}</section></section>",
                                      "utf-8")
    for excerpts in ((), ("--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl"))):
        assert invoke(capsys, "ingest", "--xml", str(tmp_path / "doc.xml"), *excerpts) == (
            1, "", f"error: {message}\n")


@pytest.mark.parametrize("sections, issue", [
    ("<section ID='x'><heading></heading><sentence>S.</sentence></section>"
     "<section ID='x'><heading>H</heading><sentence>T.</sentence></section>",
     "section[0]: section id 'x' is not dotted-decimal"),
    ("<section ID='1'><heading>H</heading><sentence>S.</sentence></section>"
     "<section ID='1'><heading>H</heading><sentence>T.</sentence></section>",
     "section[1]: duplicate section id '1' (also at section[0])"),
    ("<section ID='1'><sentence>S.</sentence></section>", "section[0]: section heading is empty"),
    (None, "section[0]: section heading is empty"),
])
def test_ingest_refuses_a_document_model_that_does_not_validate(capsys, tmp_path, fixtures_dir,
                                                                sections, issue):
    if sections is None:  # an outline whose heading is blank
        (tmp_path / "outline.json").write_text('[{"level": 1, "heading": " ", "offset": 0}]',
                                               "utf-8")
        (tmp_path / "doc.txt").write_text(" \n\nSome text here.\n", "utf-8")
        source = ("--outline", str(tmp_path / "outline.json"), "--text", str(tmp_path / "doc.txt"))
    else:
        (tmp_path / "doc.xml").write_text(f"<section>{sections}</section>", "utf-8")
        source = ("--xml", str(tmp_path / "doc.xml"))
    for excerpts in ((), ("--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl"))):
        assert invoke(capsys, "ingest", *source, *excerpts) == (
            1, "", f"error: invalid document: {issue}\n")


def test_ingest_reports_a_bad_outline_record(capsys, tmp_path, fixtures_dir):
    outline = tmp_path / "outline.json"
    outline.write_text('[{"level": 1, "offset": 7}]', "utf-8")
    code, out, err = invoke(capsys, "ingest", "--outline", str(outline),
                            "--text", str(fixtures_dir / "doc1.txt"))
    assert (code, out, err) == (1, "", "error: outline record 0: missing field 'heading'\n")


def test_link_reports_a_non_string_excerpt_field(capsys, tmp_path, fixtures_dir):
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8").splitlines()[0])
    excerpts = tmp_path / "excerpts.jsonl"
    excerpts.write_text(json.dumps({**record, "mentions": None}) + "\n", "utf-8")
    code, out, err = invoke(capsys, "link", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                            "--excerpts", str(excerpts))
    assert (code, out, err) == (
        1, "", "error: bad excerpt record on line 1: 'mentions' must be a string, got None\n")


@pytest.mark.parametrize("sentence", ["\ud800", "tool \ud800"])
def test_ingest_and_link_refuse_a_lone_surrogate_before_embedding(capsys, tmp_path,
                                                                  fixtures_dir, monkeypatch,
                                                                  sentence):
    calls = []
    monkeypatch.setattr(HashedBagOfWordsEmbedder, "embed_many",
                        lambda self, texts: calls.append(texts))
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8"))
    excerpts = tmp_path / "excerpts.jsonl"
    excerpts.write_text(json.dumps({**record, "in_sentence": sentence}) + "\n", "utf-8")
    assert "\\ud800" in excerpts.read_text("utf-8")
    refusal = (1, "", "error: bad excerpt record on line 1: "
                      "'in_sentence' holds a lone surrogate U+D800\n")
    assert invoke(capsys, "link", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                  "--excerpts", str(excerpts)) == refusal
    assert invoke(capsys, "ingest", "--outline", str(fixtures_dir / "outline_doc1.json"),
                  "--text", str(fixtures_dir / "doc1.txt"),
                  "--excerpts", str(excerpts)) == refusal
    assert calls == []


@pytest.mark.parametrize("char", ["\u0085", "\u2028", "\u2029"])
def test_ingest_reads_an_excerpt_label_that_holds_a_unicode_line_break(capsys, tmp_path,
                                                                       fixtures_dir, char):
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8"))
    record["label"] = f"Apache{char}Tika"
    excerpts = tmp_path / "excerpts.jsonl"
    excerpts.write_text(json.dumps(record, ensure_ascii=False) + "\n", "utf-8")
    assert char in excerpts.read_text("utf-8")
    out = tmp_path / "out.ttl"
    code, _, err = invoke(capsys, "ingest",
                          "--outline", str(fixtures_dir / "outline_doc1.json"),
                          "--text", str(fixtures_dir / "doc1.txt"),
                          "--excerpts", str(excerpts), "--out", str(out))
    assert (code, "1 excerpt links" in err) == (0, True), err
    assert f"Apache{char}Tika" in {t.object[0] for t in load_turtle(out.read_bytes())}


def test_ingest_requires_a_source(capsys):
    code, _, err = invoke(capsys, "ingest")
    assert code == 1
    assert "needs --xml or both --outline and --text" in err


@pytest.mark.parametrize("sources", [["--outline", "outline_doc1.json", "--text", "doc1.txt"],
                                     ["--outline", "outline_doc1.json"], ["--text", "doc1.txt"]])
def test_ingest_refuses_xml_with_an_outline_or_text(capsys, monkeypatch, fixtures_dir, sources):
    monkeypatch.chdir(fixtures_dir)
    code, out, err = invoke(capsys, "ingest", "--xml", "chunked_paper.xml", *sources)
    assert (code, out) == (1, "")
    assert err == ("error: ingest needs --xml or both --outline and --text, "
                   "not --xml with either\n")


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


@pytest.mark.parametrize("command", ["ingest", "link"])
def test_out_file_holds_the_bytes_written_to_stdout(capsys, tmp_path, fixtures_dir, command):
    source = (["--outline", str(fixtures_dir / "outline_doc1.json"),
               "--text", str(fixtures_dir / "doc1.txt")] if command == "ingest"
              else ["--graph", str(fixtures_dir / "scholarly_sample.ttl")])
    argv = [command, *source, "--excerpts", str(fixtures_dir / "excerpts_doc1.jsonl")]
    code, stdout, _ = invoke(capsys, *argv)
    assert code == 0 and stdout
    out = tmp_path / "out.ttl"
    assert invoke(capsys, *argv, "--out", str(out))[:2] == (0, "")
    assert out.read_bytes() == stdout.encode("utf-8")


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


def test_ingest_names_the_first_unwritable_excerpt_id_in_record_order(capsys, tmp_path,
                                                                     fixtures_dir):
    record = json.loads((fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8"))
    excerpts = tmp_path / "excerpts.jsonl"
    excerpts.write_text("".join(json.dumps(dict(record, excerpt_id=excerpt_id)) + "\n"
                                for excerpt_id in ("Excerpt b 2", "Excerpt a 1")), "utf-8")
    code, _, err = invoke(capsys, "ingest",
                          "--outline", str(fixtures_dir / "outline_doc1.json"),
                          "--text", str(fixtures_dir / "doc1.txt"),
                          "--excerpts", str(excerpts),
                          "--out", str(tmp_path / "out.ttl"))
    assert code == 1
    assert err == ("error: cannot write IRI "
                   "'https://www.anu.edu.au/onto/scholarly/Excerpt b 2': it contains ' '\n")


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


def test_ingest_and_link_refuse_a_repeated_excerpt_id(capsys, tmp_path, fixtures_dir):
    record = (fixtures_dir / "excerpts_doc1.jsonl").read_text("utf-8")
    excerpts = tmp_path / "excerpts.jsonl"
    excerpts.write_text(record + record, "utf-8")
    refusal = (1, "", "error: bad excerpt record on line 2: "
                      "excerpt_id 'Excerpt-8b0888e86548a2' is already on line 1\n")
    assert invoke(capsys, "ingest", "--outline", str(fixtures_dir / "outline_doc1.json"),
                  "--text", str(fixtures_dir / "doc1.txt"), "--excerpts", str(excerpts),
                  "--threshold", "0.3") == refusal
    assert invoke(capsys, "link", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                  "--excerpts", str(excerpts), "--threshold", "0.3") == refusal


def test_link_refuses_an_excerpt_id_the_graph_holds_with_other_triples(capsys, tmp_path,
                                                                        fixtures_dir):
    excerpts = fixtures_dir / "excerpts_doc2.jsonl"
    linked, again = tmp_path / "linked.ttl", tmp_path / "again.ttl"
    assert invoke(capsys, "link", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                  "--excerpts", str(excerpts), "--out", str(linked))[0] == 0
    # linking the same records again changes nothing
    assert invoke(capsys, "link", "--graph", str(linked), "--excerpts", str(excerpts),
                  "--out", str(again))[0] == 0
    assert again.read_bytes() == linked.read_bytes()

    record = json.loads(excerpts.read_text("utf-8").splitlines()[0])
    record.update(label="A changed label", in_sentence="A changed sentence about MEL.")
    changed = tmp_path / "changed.jsonl"
    changed.write_text(json.dumps(record) + "\n", "utf-8")
    out = tmp_path / "merged.ttl"
    assert invoke(capsys, "link", "--graph", str(linked), "--excerpts", str(changed),
                  "--out", str(out)) == (
        1, "", f"error: excerpt {record['excerpt_id']!r} is already in the graph "
               "with other triples\n")
    assert not out.exists()


@pytest.mark.parametrize("levels", [100, 101, 1500])
def test_ingest_nests_sections_at_most_100_levels_deep(capsys, tmp_path, levels):
    text = "".join(f"H{i}\n\nBody {i}.\n\n" for i in range(levels))
    outline = [{"level": i + 1, "heading": f"H{i}", "offset": text.index(f"H{i}\n")}
               for i in range(levels)]
    (tmp_path / "outline.json").write_text(json.dumps(outline), "utf-8")
    (tmp_path / "doc.txt").write_text(text, "utf-8")
    (tmp_path / "doc.xml").write_text(
        "<section>" + "".join(f'<section ID="1{".1" * i}"><heading>H{i}</heading>'
                              for i in range(levels))
        + "<sentence>x</sentence>" + "</section>" * (levels + 1), "utf-8")
    outline_source = ("--outline", str(tmp_path / "outline.json"),
                      "--text", str(tmp_path / "doc.txt"))
    for source in (outline_source, ("--xml", str(tmp_path / "doc.xml"))):
        code, out, err = invoke(capsys, "ingest", *source)
        if levels <= 100:
            assert code == 0, err
            assert out.startswith("@prefix askg-data:")
        else:
            assert (code, out, err) == (
                1, "", "error: sections are nested more than 100 levels deep\n")


SEPARATOR = "* * *"


def edges_by_label(graph) -> set[tuple[str, str]]:
    """Each hasExcerpt edge as its paragraph's label and its excerpt node."""
    return {(graph.label_of(t.subject).lexical, t.object.value) for t in graph
            if t.predicate == HAS_EXCERPT}


def test_ingest_and_link_embed_a_separator_paragraph(capsys, tmp_path, fixtures_dir):
    plain = fixtures_dir / "doc1.txt"
    separated = tmp_path / "doc1.txt"
    text = plain.read_text("utf-8")
    assert "content.\n\nBy default" in text
    separated.write_text(
        text.replace("content.\n\nBy default", f"content.\n\n{SEPARATOR}\n\nBy default"), "utf-8")
    outline = str(fixtures_dir / "outline_doc1.json")
    excerpts = str(fixtures_dir / "excerpts_doc1.jsonl")
    graphs = []
    for doc in (plain, separated):
        at_once, bare, linked = (tmp_path / f"{doc.parent.name}-{name}.ttl"
                                 for name in ("at-once", "bare", "linked"))
        source = ("--outline", outline, "--text", str(doc))
        code, _, err = invoke(capsys, "ingest", *source, "--excerpts", excerpts,
                              "--out", str(at_once))
        assert code == 0, err
        assert invoke(capsys, "ingest", *source, "--out", str(bare))[0] == 0
        code, _, err = invoke(capsys, "link", "--graph", str(bare), "--excerpts", excerpts,
                              "--out", str(linked))
        assert code == 0, err
        assert linked.read_bytes() == at_once.read_bytes()
        graphs.append(load_turtle(at_once.read_bytes()))
    assert SEPARATOR in {graphs[1].label_of(node).lexical
                         for node in graphs[1].subjects_of_type(PARAGRAPH)}
    assert len(edges_by_label(graphs[0])) == 1
    assert edges_by_label(graphs[1]) == edges_by_label(graphs[0])


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
    assert ('  FILTER(CONTAINS(LCASE(?text), "pdf research proposals")\n'
            '      || CONTAINS(LCASE(?text), "tool")) .\n') in payload["sparql"]


_FILTER = re.compile(r"^  FILTER\((.*?)\) \.$", re.MULTILINE | re.DOTALL)
_CONTAINS = re.compile(r'CONTAINS\(LCASE\(\?text\), "([^"\\]*)"\)')


def sparql_selects(sparql: str, label: str) -> bool:
    """Whether the rendered query's FILTERs keep a paragraph with ``label``.

    The FILTERs of a group are conjoined; inside one, ``&&`` binds tighter
    than ``||``. Every operand must be a ``CONTAINS(LCASE(?text), "...")``.
    """
    def holds(operand: str) -> bool:
        match = _CONTAINS.fullmatch(operand.strip())
        assert match, f"unexpected FILTER operand {operand!r}"
        return match.group(1) in label.lower()

    filters = _FILTER.findall(sparql)
    assert filters
    return all(
        any(all(holds(term) for term in disjunct.split("&&"))
            for disjunct in body.split("||"))
        for body in filters)


@pytest.mark.parametrize("question", [
    QUESTION,
    "Which tool saves metadata in a JSON file?",
    "Which database stores the extracted content?",
    "Where is the text content stored; which tool parses PDF files?",
])
def test_query_sparql_selects_the_context_candidates(capsys, fixtures_dir, sample_graph,
                                                     question):
    code, stdout, _ = invoke(
        capsys, "query", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
        "--question", question, "--format", "json")
    assert code == 0
    payload = json.loads(stdout)
    selected = sorted(
        (node for node in sample_graph.subjects_of_type(PARAGRAPH)
         if sparql_selects(payload["sparql"], sample_graph.label_of(node).lexical)),
        key=lambda node: node.value)
    entities = query_entities_of(extract_question_patterns(question, StubGateway()))
    # a shortlist as long as the graph's paragraphs keeps every candidate
    everything = len(sample_graph.subjects_of_type(PARAGRAPH))
    candidates = select_context(sample_graph, entities, top_n=everything, diverse_k=everything,
                                embedder=HashedBagOfWordsEmbedder())
    assert selected == sorted((p.node for p in candidates), key=lambda node: node.value)
    assert {node.value for node in selected} >= set(payload["provenance"])


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


@pytest.mark.parametrize("form, unused", [("json", "to_text"), ("text", "to_dict")])
def test_query_builds_only_the_form_it_writes(capsys, monkeypatch, fixtures_dir, form, unused):
    def refuse(self):
        raise AssertionError(f"{unused} was built for --format {form}")

    monkeypatch.setattr(qa_context.QueryAnswer, unused, refuse)
    code, stdout, err = invoke(capsys, "query",
                               "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                               "--question", QUESTION, "--format", form)
    assert code == 0, err
    assert stdout.startswith("{" if form == "json" else "Answer: ")


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


BASELINE_ANSWER = ("Data Extraction A Metadata Extractor & Loader (MEL) tool is applied to "
                   "extract text from PDF research proposals and save it in a JSON file with "
                   "metadata sets and content.")
BASELINE_CHUNKS = [
    {"chunk_id": "doc1-0000", "document": "doc1", "similarity": 0.3399,
     "text": "Introduction Scholarly documents hold detailed findings that are hard to "
             "search directly. We build a knowledge graph of paragraphs, excerpts and "
             "mentioned entities from research documents, and answer questions against it. "
             + BASELINE_ANSWER + " By default, all JSON files are stored in CouchDB database "
             "based on the proposal index."},
    {"chunk_id": "doc2-0000", "document": "doc2", "similarity": 0.2697,
     "text": "Background Our comparison covers packages for text handling in scholarly "
             "settings; the trade-offs shape the extraction stack we adopt. Content Analysis "
             "The most comprehensive and current state-of-the-art tool for content extraction "
             "and analysis is Apache Tika, which is a complete and complex Java-based "
             "general-purpose system. While MEL core goals resemble the ones of Apache Tika, "
             "the main difference and benefit of MEL as compared to Apache Tika is that it is "
             "a lightweight Python-based package for the metadata extraction of common file "
             "formats aimed to be used in a KGCP."},
]


def test_retrieve_baseline_prints_the_pinned_output(capsys, fixtures_dir):
    argv = ["retrieve-baseline", "--corpus", str(fixtures_dir), "--question", QUESTION]
    expected_json = json.dumps({"question": QUESTION, "chunks": BASELINE_CHUNKS,
                                "answer": BASELINE_ANSWER}, indent=2) + "\n"
    expected_text = (f"Answer: {BASELINE_ANSWER}\n\nChunks:\n"
                     "  doc1-0000 (similarity 0.3399)\n  doc2-0000 (similarity 0.2697)\n")
    err = "2 chunks from 2 documents\n"
    assert invoke(capsys, *argv, "--format", "json") == (0, expected_json, err)
    assert invoke(capsys, *argv, "--format", "text") == (0, expected_text, err)


@pytest.mark.parametrize("command", ["query", "retrieve-baseline"])
def test_each_pipeline_run_answers_through_generate_answer_once(capsys, monkeypatch,
                                                                fixtures_dir, command):
    calls = []

    def counted(question, context, gateway):
        calls.append(question)
        return generate_answer(question, context, gateway)

    for module in (cli, qa_context):
        monkeypatch.setattr(module, "generate_answer", counted)
    source = (["--graph", str(fixtures_dir / "scholarly_sample.ttl")] if command == "query"
              else ["--corpus", str(fixtures_dir)])
    for runs, fmt in enumerate(["json", "text"], start=1):
        assert invoke(capsys, command, *source, "--question", QUESTION, "--format", fmt)[0] == 0
        assert calls == [QUESTION] * runs


def test_retrieve_baseline_embeds_a_separator_document(capsys, tmp_path, fixtures_dir):
    payloads = []
    for extra in ({}, {"separator.txt": SEPARATOR}):
        corpus = tmp_path / f"corpus-{len(extra)}"
        corpus.mkdir()
        for name in ("doc1.txt", "doc2.txt"):
            (corpus / name).write_text((fixtures_dir / name).read_text("utf-8"), "utf-8")
        for name, text in extra.items():
            (corpus / name).write_text(text, "utf-8")
        code, stdout, err = invoke(capsys, "retrieve-baseline", "--corpus", str(corpus),
                                   "--question", QUESTION, "--top-n", "3", "--max-tokens", "20",
                                   "--format", "json")
        assert code == 0, err
        payloads.append(json.loads(stdout))
    assert len(payloads[0]["chunks"]) == 3
    assert payloads[1] == payloads[0]


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


GOOD_RECORD = {"label": "Q1", "graph_answer": "MEL.", "baseline_answer": "Tika."}


@pytest.mark.parametrize("records, message", [
    ({"label": "Q1"}, "answers must be a JSON list of records"),
    (["Q1"], "answers record 0 is not a JSON object"),
    ([GOOD_RECORD, {"label": "Q2", "graph_answer": "MEL."}],
     "answers record 1: 'baseline_answer' must be a string"),
    ([{**GOOD_RECORD, "label": 1}], "answers record 0: 'label' must be a string"),
    ([{**GOOD_RECORD, "graph_entities": "tika"}],
     "answers record 0: 'graph_entities' must be a list of strings"),
    ([{**GOOD_RECORD, "baseline_entities": [["tika"]]}],
     "answers record 0: 'baseline_entities' must be a list of strings"),
    ([{**GOOD_RECORD, "known_entities": None}],
     "answers record 0: 'known_entities' must be a list of strings"),
])
def test_eval_rejects_malformed_answer_records(capsys, tmp_path, records, message):
    answers = tmp_path / "answers.json"
    answers.write_text(json.dumps(records), "utf-8")
    code, out, err = invoke(capsys, "eval", "--answers", str(answers))
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


def test_eval_refuses_a_non_numeric_row_after_the_first(capsys, tmp_path):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("rater,a,b\nx,1,2\n3,4,5\n6,7,8\n", "utf-8")
    code, out, err = invoke(capsys, "eval", "--ratings", str(ratings))
    assert (code, out) == (1, "")
    assert err == "error: non-numeric rating row: ['x', '1', '2']\n"


def test_eval_reads_a_byte_order_mark_as_no_rating(capsys, tmp_path):
    # 0.9474 is the alpha of these three rows written without the mark
    ratings = tmp_path / "ratings.csv"
    for header in ("", "q1,q2,q3\n"):
        ratings.write_text(header + "4,5,3\n2,2,1\n5,4,4\n", "utf-8-sig")
        assert invoke(capsys, "eval", "--ratings", str(ratings)) == (
            0, "Cronbach alpha: 0.9474\n", ""), header


def test_eval_refuses_a_first_row_that_holds_a_number(capsys, fixtures_dir, tmp_path):
    # a first row is a header only when none of its cells is a number
    rows = (fixtures_dir / "ratings.csv").read_text("utf-8").splitlines()[1:]
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("4,,3,4\n" + "\n".join(rows) + "\n", "utf-8")
    code, out, err = invoke(capsys, "eval", "--ratings", str(ratings))
    assert (code, out) == (1, "")
    assert err == "error: non-numeric rating row: ['4', '', '3', '4']\n"


@pytest.mark.parametrize("text, expected", [
    # float() reads "1_0" as 10, but a cell holding "_" is no number: a
    # first row of such cells is a header, and such a cell in a later row
    # is refused; 0.9231 is the alpha of the rows after the header alone
    ("1_0,2_0\n3,4\n5,6\n4,4\n", (0, "Cronbach alpha: 0.9231\n", "")),
    ("1_0,2\n3,4\n5,6\n", (1, "", "error: non-numeric rating row: ['1_0', '2']\n")),
    ("3,4\n5,6\n1_0,2\n", (1, "", "error: non-numeric rating row: ['1_0', '2']\n")),
    ("3,4\n5,6\n10,2\n", (0, "Cronbach alpha: -2.8571\n", "")),
    # float() also reads non-ASCII digits (ARABIC-INDIC, FULLWIDTH), but
    # only an ASCII cell is a number
    ("\u0661,2\n3,4\n5,6\n", (1, "", "error: non-numeric rating row: ['\u0661', '2']\n")),
    ("\uff11,\uff12\n3,4\n5,6\n4,4\n", (0, "Cronbach alpha: 0.9231\n", "")),
    ("3,4\n5,6\n\u0663.\u0665,2\n",
     (1, "", "error: non-numeric rating row: ['\u0663.\u0665', '2']\n")),
])
def test_eval_reads_no_underscore_cell_as_a_number(capsys, tmp_path, text, expected):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(text, "utf-8")
    assert invoke(capsys, "eval", "--ratings", str(ratings)) == expected


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_eval_rejects_non_finite_ratings(capsys, tmp_path, cell, fmt):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text(f"q1,q2\n3,4\n2,{cell}\n4,5\n", "utf-8")
    code, out, err = invoke(capsys, "eval", "--ratings", str(ratings), "--format", fmt)
    assert (code, out, err) == (1, "", "error: every rating must be a finite number\n")


def test_eval_refuses_ratings_too_large_for_a_float(capsys, tmp_path):
    ratings = tmp_path / "ratings.csv"
    ratings.write_text("q1,q2,q3\n1e154,1e154,1e154\n0,0,0\n", "utf-8")
    code, out, err = invoke(capsys, "eval", "--ratings", str(ratings))
    assert (code, out) == (1, "")
    assert err == "error: ratings are too large: their variance overflows a float\n"


# Each option that names a UTF-8 file, with a command reading it; FIXTURES/
# is the fixtures directory and TMP/ the test's own directory.
_MARKED_READS = {
    "--outline": ["ingest", "--outline", "FIXTURES/outline_doc1.json",
                  "--text", "FIXTURES/doc1.txt"],
    "--excerpts": ["link", "--graph", "FIXTURES/scholarly_sample.ttl",
                   "--excerpts", "FIXTURES/excerpts_doc2.jsonl"],
    "--answers": ["eval", "--answers", "FIXTURES/answers.json"],
    "--config": ["stats", "--graph", "FIXTURES/scholarly_sample.ttl",
                 "--config", "TMP/settings.conf"],
}


@pytest.mark.parametrize("option", list(_MARKED_READS))
def test_a_byte_order_mark_is_read_as_no_text(capsys, fixtures_dir, tmp_path, option):
    (tmp_path / "settings.conf").write_text("format = json\n", "utf-8")
    argv = [arg.replace("FIXTURES", str(fixtures_dir)).replace("TMP", str(tmp_path))
            for arg in _MARKED_READS[option]]
    plain = invoke(capsys, *argv)
    assert plain[0] == 0
    at = argv.index(option) + 1
    marked = tmp_path / "marked"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(argv[at]).read_bytes())
    argv[at] = str(marked)
    assert invoke(capsys, *argv) == plain


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


def test_stats_json(capsys, fixtures_dir):
    code, stdout, _ = invoke(
        capsys, "stats", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
        "--format", "json")
    assert code == 0
    assert stdout == """{
  "papers": 0,
  "sections": 0,
  "paragraphs": 5,
  "average_words_per_paragraph": 32.0,
  "excerpts": 3,
  "linked_excerpts": 3,
  "linked_excerpt_percentage": 100.0,
  "paragraph_excerpt_links": 3,
  "relationship_types": 7,
  "entity_types": 2,
  "triples": 31,
  "entities": 12
}
"""


# ---------------------------------------------------------------------------
# The cyclic garbage collector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, code", [
    (["query", "--graph", "FIXTURES/scholarly_sample.ttl", "--question", QUESTION], 0),
    (["stats", "--graph", "/no/such/file.ttl"], 1),
    (["stats", "--no-such-flag"], 2),
    (["--version"], 0),
], ids=["success", "domain-error", "usage-error", "version"])
def test_run_restores_the_collector_state_on_every_exit(capsys, fixtures_dir, enabled,
                                                        argv, code):
    argv = [arg.replace("FIXTURES", str(fixtures_dir)) for arg in argv]
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        frozen = gc.get_freeze_count()
        result = invoke(capsys, *argv)[0]
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert result == code


def test_run_pauses_the_collector_from_parse_to_output(capsys, monkeypatch, fixtures_dir):
    seen = []
    parser = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: seen.append(("parse", gc.isenabled())) or parser)
    monkeypatch.setattr(cli, "load_turtle",
                        lambda data: seen.append(("load", gc.isenabled())) or load_turtle(data))
    assert gc.isenabled()
    code, _, _ = invoke(capsys, "query", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                        "--question", QUESTION)
    assert code == 0
    assert seen == [("parse", False), ("load", False)]
    assert gc.isenabled()


def _package_garbage(capsys, argv: list[str]) -> tuple[int, list[str]]:
    """The exit code of ``argv`` and the ``scholarkg`` objects it left in
    reference cycles, by type (a function by its own module).

    Under ``gc.DEBUG_SAVEALL`` a collection keeps every unreachable
    object in ``gc.garbage`` instead of freeing it.
    """
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = invoke(capsys, *argv)[0]
        gc.collect()
        names = set()
        for obj in gc.garbage:
            owner = obj if isinstance(obj, types.FunctionType) else type(obj)
            if (owner.__module__ or "").partition(".")[0] == "scholarkg":
                names.add(f"{owner.__module__}.{owner.__qualname__}")
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    return code, sorted(names)


_COMMANDS = {
    "query": ["query", "--graph", "FIXTURES/scholarly_sample.ttl", "--question", QUESTION,
              "--format", "json"],
    "retrieve-baseline": ["retrieve-baseline", "--corpus", "FIXTURES", "--question", QUESTION,
                          "--format", "json"],
    "ingest": ["ingest", "--xml", "FIXTURES/chunked_paper.xml",
               "--excerpts", "FIXTURES/excerpts_doc1.jsonl", "--out", "OUT"],
    "ingest-outline": ["ingest", "--outline", "FIXTURES/outline_doc1.json",
                       "--text", "FIXTURES/doc1.txt",
                       "--excerpts", "FIXTURES/excerpts_doc1.jsonl", "--out", "OUT"],
    "link": ["link", "--graph", "FIXTURES/scholarly_sample.ttl",
             "--excerpts", "FIXTURES/excerpts_doc2.jsonl", "--out", "OUT"],
    "stats": ["stats", "--graph", "FIXTURES/scholarly_sample.ttl"],
    "eval": ["eval", "--answers", "FIXTURES/answers.json", "--ratings", "FIXTURES/ratings.csv",
             "--format", "json"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_no_command_leaves_a_package_object_in_a_reference_cycle(capsys, tmp_path,
                                                                 fixtures_dir, command):
    # The CLI runs with the collector paused, so only reference counting
    # frees what a command leaves; a cycle would hold it until the next
    # collection. The stdlib json encoder's closures may form one.
    argv = [str(tmp_path / "out.ttl") if arg == "OUT"
            else arg.replace("FIXTURES", str(fixtures_dir)) for arg in _COMMANDS[command]]
    assert _package_garbage(capsys, argv) == (0, [])


def test_the_cycle_check_sees_a_graph_that_a_cycle_holds(capsys, monkeypatch, fixtures_dir):
    matcher = qa_engine._anchor_matcher

    def held(graph):
        box = [graph]
        box.append(box)
        return matcher(graph)

    monkeypatch.setattr(qa_engine, "_anchor_matcher", held)
    argv = [arg.replace("FIXTURES", str(fixtures_dir)) for arg in _COMMANDS["query"]]
    code, names = _package_garbage(capsys, argv)
    assert code == 0
    assert {"scholarkg.kg.graph.KnowledgeGraph", "scholarkg.kg.terms.Triple"} <= set(names)


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
