import importlib
import pkgutil
import shlex
import types
from pathlib import Path

import pytest

import scholarkg
from scholarkg.cli import run

ROOT = Path(__file__).resolve().parent.parent


def public_modules() -> list[types.ModuleType]:
    """Every module of the package except the CLI, in import order."""
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(scholarkg.__path__, "scholarkg.")
            if not info.ispkg and info.name != "scholarkg.cli"]


def test_top_level_exports_each_module_public_name_once():
    expected = ["__version__"] + [name for m in public_modules() for name in m.__all__]
    assert sorted(scholarkg.__all__) == sorted(expected)
    assert len(set(scholarkg.__all__)) == len(scholarkg.__all__)
    for module in public_modules():
        for name in module.__all__:
            assert getattr(scholarkg, name) is getattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("package", ["scholarkg.kg", "scholarkg.qa"])
def test_subpackages_name_nothing(package):
    module = importlib.import_module(package)
    assert not hasattr(module, "__all__")
    assert all(isinstance(value, types.ModuleType)
               for name, value in vars(module).items() if not name.startswith("_"))


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
