"""scholarkg: knowledge graphs for scholarly documents.

The package turns documents into an RDF graph of paragraphs, excerpts
and mentioned entities, then answers natural-language questions against
that graph: questions become triple patterns, unmatched patterns are
relaxed step by step, and the matched subgraph picks the paragraphs
that ground the final answer. A sliding-window retrieval baseline and
answer-comparison metrics round out the pipeline.

The root re-exports nothing, so an import loads only the modules it
uses: import each name from the module whose ``__all__`` lists it. The
graph is read and written by ``kg.turtle``, built from documents by
``ingest`` and ``chunked_xml`` and queried by ``qa.context``; the
baseline is ``baseline``, the metrics ``evaluation``, the backends
``gateway`` and ``embedding``, and the command line ``cli``.
"""

__version__ = "0.1.0"
