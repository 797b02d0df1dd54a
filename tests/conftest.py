from pathlib import Path

import pytest

from scholarkg import embedding
from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.gateway import StubGateway
from scholarkg.kg.turtle import load_turtle

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def sample_graph():
    return load_turtle((FIXTURES / "scholarly_sample.ttl").read_bytes())


@pytest.fixture()
def stub_gateway():
    return StubGateway()


@pytest.fixture(scope="session")
def stub_embedder():
    return HashedBagOfWordsEmbedder()


@pytest.fixture()
def retry_waits(monkeypatch) -> list[float]:
    """The seconds each HTTP backend retry would wait; none is waited."""
    slept: list[float] = []
    monkeypatch.setattr(embedding.time, "sleep", slept.append)
    return slept


def pytest_terminal_summary(terminalreporter):
    """Repeat the ``ACCEPTANCE`` lines that tests printed, which output
    capture would otherwise hide, grouped by test outcome."""
    lines = [line for reports in terminalreporter.stats.values() for report in reports
             if getattr(report, "when", None) == "call"
             for line in report.capstdout.splitlines() if line.startswith("ACCEPTANCE ")]
    if lines:
        terminalreporter.section("acceptance report")
        for line in lines:
            terminalreporter.write_line(line)
