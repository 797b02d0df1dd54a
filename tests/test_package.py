import ast
import importlib
import importlib.util
import os
import pkgutil
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from scholarkg.cli import run

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("package", ["scholarkg", "scholarkg.kg", "scholarkg.qa"])
def test_subpackages_name_nothing(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "__all__")
    assert all(isinstance(value, types.ModuleType)
               for name, value in vars(module).items() if not name.startswith("_"))


def test_each_module_exports_only_classes_and_functions_it_defines():
    # a name is imported from the module that defines it, so no module
    # re-exports another's classes or functions
    package = importlib.import_module("scholarkg")
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(package.__path__, "scholarkg.")]
    exported = [(module.__name__, name, getattr(module, name))
                for module in modules for name in getattr(module, "__all__", ())]
    assert len({module for module, _, _ in exported}) > 10
    assert [(module, name) for module, name, value in exported
            if isinstance(value, (type, types.FunctionType))
            and value.__module__ != module] == []


def test_readme_library_block_prints_the_readme_answer(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text("utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    answer = next(line for line in readme.splitlines() if line.startswith("Answer: "))
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert capsys.readouterr().out == answer[len("Answer: "):] + "\n"


def test_readme_query_walkthrough_prints_the_readme_output(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text("utf-8")
    walkthrough = readme.split("Ask a question against the richer sample graph", 1)[1]
    command, output = (block.split("\n", 1)[1] for block in walkthrough.split("```")[1:4:2])
    argv = shlex.split(command.replace("\\\n", " "))
    assert argv[:2] == ["scholarkg", "query"]
    monkeypatch.chdir(ROOT)
    assert run(argv[1:]) == 0
    assert capsys.readouterr().out == output


def fresh(*argv: str, **options) -> subprocess.CompletedProcess:
    """``python argv`` run by a fresh interpreter on this tree, its output captured."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, **options)


def python(script: str) -> str:
    """The stdout of ``script`` run by a fresh interpreter on this tree."""
    return fresh("-c", script, text=True, check=True).stdout


def test_the_package_imports_only_the_stdlib_and_requests():
    allowed = sys.stdlib_module_names | {"requests", "scholarkg"}
    imported = set()
    for path in (ROOT / "src" / "scholarkg").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add((path.name, node.module.split(".")[0]))
    assert imported and {(name, module) for name, module in imported
                         if module not in allowed} == set()


def test_stub_runs_do_not_import_requests():
    # requests costs over 100 ms and about 9 MB to import, so only the
    # HTTP backends import it, when they are built
    script = (
        "import sys, scholarkg\n"
        "from scholarkg.cli import run\n"
        "question = 'Which tool is applied to extract text from PDF research proposals?'\n"
        "assert run(['query', '--graph', 'tests/fixtures/scholarly_sample.ttl',\n"
        "            '--question', question]) == 0\n"
        "assert run(['retrieve-baseline', '--corpus', 'tests/fixtures',\n"
        "            '--question', question]) == 0\n"
        "print('requests' in sys.modules)\n")
    assert python(script).splitlines()[-1] == "False"


def test_importing_the_turtle_module_loads_only_the_modules_it_uses():
    # the package root re-exports nothing, so importing one module does
    # not load the whole package
    script = ("import sys, scholarkg.kg.turtle\n"
              "print(*sorted(name for name in sys.modules\n"
              "              if name.split('.')[0] == 'scholarkg'))\n")
    assert python(script).split() == ["scholarkg", "scholarkg.kg", "scholarkg.kg.graph",
                                      "scholarkg.kg.terms", "scholarkg.kg.turtle"]


def modules_added_by_importing_the_cli() -> set[str]:
    """The modules a fresh ``import scholarkg.cli`` adds to a bare interpreter."""
    return set(python("import sys\n"
                      "before = set(sys.modules)\n"
                      "import scholarkg.cli\n"
                      "print(*sorted(set(sys.modules) - before))\n").split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # importing them and building dataclasses took about a third of a fresh
    # command's set-up; the value classes are named tuples instead
    added = modules_added_by_importing_the_cli()
    assert "scholarkg.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_importing_the_cli_loads_nothing_only_eval_or_ingest_xml_uses():
    # every other command would pay for evaluation, csv and statistics
    # (with fractions and decimal) and ElementTree (with pyexpat) at start-up
    added = modules_added_by_importing_the_cli()
    assert "scholarkg.cli" in added
    assert added & {"scholarkg.evaluation", "statistics", "csv", "xml.etree.ElementTree"} == set()


@pytest.mark.parametrize("argv", [
    ["eval", "--answers", "tests/fixtures/answers.json",
     "--ratings", "tests/fixtures/ratings.csv", "--format", "json"],
    ["ingest", "--xml", "tests/fixtures/chunked_paper.xml"],
])
def test_eval_and_ingest_xml_run_first_in_a_fresh_interpreter(argv, monkeypatch, capfdbinary):
    # each imports a module that import scholarkg.cli leaves out
    cold = fresh("-m", "scholarkg.cli", *argv)
    monkeypatch.chdir(ROOT)
    assert run(argv) == 0
    warm = capfdbinary.readouterr()
    assert (cold.returncode, cold.stdout, cold.stderr) == (0, warm.out, warm.err)


def bench_layer_modules() -> set[str]:
    """The modules named in ``bench/spans.py``'s ``LAYERS``, read from its file."""
    spec = importlib.util.spec_from_file_location("scholarkg_bench_spans",
                                                  ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {layer[0] for layer in module.LAYERS}


def test_importing_the_cli_loads_every_module_the_bench_traces():
    # a traced bench run imports scholarkg.cli and then looks each LAYERS
    # module up in sys.modules, so it fails if the CLI defers one
    assert bench_layer_modules() - modules_added_by_importing_the_cli() == set()


def test_the_python_files_are_the_whole_package(tmp_path, capsys):
    # nothing but .py files is installed, so a copy of only those runs
    # the same as the tree
    source = ROOT / "src"
    for path in (source / "scholarkg").rglob("*.py"):
        target = tmp_path / path.relative_to(source)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    question = "Which tool is applied to extract text from PDF research proposals?"
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    for argv in (["query", "--graph", "tests/fixtures/scholarly_sample.ttl"],
                 ["retrieve-baseline", "--corpus", "tests/fixtures"]):
        argv += ["--question", question, "--format", "json"]
        copy = subprocess.run([sys.executable, "-m", "scholarkg.cli", *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        assert run(argv) == 0
        assert copy.stdout == capsys.readouterr().out, copy.stderr
