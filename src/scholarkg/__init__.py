"""scholarkg: knowledge graphs for scholarly documents.

The package turns documents into an RDF graph of paragraphs, excerpts
and mentioned entities, then answers natural-language questions against
that graph: questions become triple patterns, unmatched patterns are
relaxed step by step, and the matched subgraph picks the paragraphs
that ground the final answer. A sliding-window retrieval baseline and
answer-comparison metrics round out the pipeline.

Every module's public names (its ``__all__``) are re-exported here, so
``from scholarkg import resolve_query`` and ``from scholarkg.qa.engine
import resolve_query`` name the same object. The command-line interface
lives in :mod:`scholarkg.cli` and is not re-exported.
"""

from . import baseline, chunked_xml, document, embedding, evaluation, gateway, ingest, kg, qa
from .baseline import *  # noqa: F403
from .chunked_xml import *  # noqa: F403
from .document import *  # noqa: F403
from .embedding import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .gateway import *  # noqa: F403
from .ingest import *  # noqa: F403
from .kg.graph import *  # noqa: F403
from .kg.patterns import *  # noqa: F403
from .kg.terms import *  # noqa: F403
from .kg.turtle import *  # noqa: F403
from .qa.context import *  # noqa: F403
from .qa.engine import *  # noqa: F403
from .qa.relaxation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (baseline, chunked_xml, document, embedding, evaluation, gateway, ingest,
                   kg.graph, kg.patterns, kg.terms, kg.turtle, qa.context, qa.engine, qa.relaxation)
    for name in module.__all__
]
