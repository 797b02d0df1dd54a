"""In-memory triple store with a predicate index, label search and graph statistics."""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .terms import (
    EXCERPT,
    HAS_EXCERPT,
    Iri,
    Literal,
    PAPER,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    SECTION,
    Triple,
    _Value,
)

__all__ = [
    "KnowledgeGraph",
    "keyword_frequency",
    "GraphStats",
    "graph_stats",
]


class KnowledgeGraph:
    """An immutable, deduplicated set of triples, bucketed by predicate.

    An RDF graph is a set of triples, and this one keeps no order of its
    own: every read follows the input order. Iterating yields each distinct
    triple once, predicate by predicate in the order the predicates first
    appear in the input, each predicate's triples in input order. A graph
    compares and hashes by identity; compare ``set(g)``. The constructor
    only deduplicates and buckets. ``labels`` and ``subjects_of_type``
    index the ``rdfs:label`` and ``rdf:type`` buckets on their first call,
    each in one pass.
    A lazy value depends on the input alone and is stored in one
    assignment, so threads racing to build it store equal values, never a
    partial one.
    """

    __slots__ = ("_by_predicate", "_types", "_labels")

    def __init__(self, triples: Iterable[Triple] = ()):
        by_predicate = self._by_predicate = defaultdict(list)
        for t in dict.fromkeys(triples):
            by_predicate[t[1]].append(t)
        self._types: dict[Iri, tuple[Iri, ...]] | None = None
        self._labels: Mapping[Iri, Literal] | None = None

    def __len__(self) -> int:
        return sum(map(len, self._by_predicate.values()))

    def __iter__(self) -> Iterator[Triple]:
        return itertools.chain.from_iterable(self._by_predicate.values())

    def match(self, *, predicate: Iri) -> tuple[Triple, ...]:
        """The triples of ``predicate``, in input order."""
        return tuple(self._by_predicate.get(predicate, ()))

    def subjects_of_type(self, type_iri: Iri) -> tuple[Iri, ...]:
        """The subjects typed ``type_iri``, in input order."""
        if self._types is None:
            types: dict[Iri, list[Iri]] = defaultdict(list)
            for t in self._by_predicate.get(RDF_TYPE, ()):
                types[t[2]].append(t[0])
            self._types = {k: tuple(v) for k, v in types.items()}
        return self._types.get(type_iri, ())

    def labels(self) -> Mapping[Iri, Literal]:
        """Each labelled node's literal label with the least lexical form
        (the first in input order among equal forms)."""
        if self._labels is None:
            labels: dict[Iri, Literal] = {}
            for t in self._by_predicate.get(RDFS_LABEL, ()):
                least = labels.get(t[0])
                if isinstance(t[2], Literal) and (least is None or t[2][0] < least[0]):
                    labels[t[0]] = t[2]
            self._labels = MappingProxyType(labels)
        return self._labels


def keyword_frequency(label: str, keywords: Iterable[str]) -> int:
    """Total non-overlapping, case-insensitive occurrences of the keywords."""
    text = label.lower()
    return sum(text.count(k.lower()) for k in keywords if k)


class GraphStats(_Value, namedtuple(
        "_GraphStatsFields",
        "papers sections paragraphs average_words_per_paragraph excerpts linked_excerpts "
        "linked_excerpt_percentage paragraph_excerpt_links relationship_types entity_types "
        "triples entities")):
    """Corpus-level counts of a graph; the average and the percentage are
    floats, every other field an int."""

    __slots__ = ()

    def rows(self) -> list[tuple[str, object]]:
        return [
            ("Number of scientific papers", self.papers),
            ("Total sections", self.sections),
            ("Total paragraphs", self.paragraphs),
            ("Average words per paragraph", round(self.average_words_per_paragraph)),
            ("Total excerpts in the KG", self.excerpts),
            ("Excerpts linked to paragraphs", self.linked_excerpts),
            ("Percentage of linked excerpts", f"{self.linked_excerpt_percentage:.1f}%"),
            ("Paragraph-excerpt links", self.paragraph_excerpt_links),
            ("Number of relationship types", self.relationship_types),
            ("Number of entity types", self.entity_types),
            ("Number of triples", self.triples),
            ("Number of entities", self.entities),
        ]

    def to_dict(self) -> dict:
        return self._asdict()


def graph_stats(graph: KnowledgeGraph) -> GraphStats:
    """Corpus-level statistics of a scholarly graph.

    Entities are distinct IRIs appearing as subject or object; literals
    are not counted. Entity types are the distinct objects of type
    triples, relationship types the distinct predicates.
    """
    entities: set[Iri] = set()
    predicates: set[Iri] = set()
    type_objects: set = set()
    for t in graph:
        entities.add(t.subject)
        predicates.add(t.predicate)
        if isinstance(t.object, Iri):
            entities.add(t.object)
        if t.predicate == RDF_TYPE:
            type_objects.add(t.object)

    paragraph_nodes = graph.subjects_of_type(PARAGRAPH)
    excerpt_nodes = set(graph.subjects_of_type(EXCERPT))
    link_edges = graph.match(predicate=HAS_EXCERPT)
    linked = {t.object for t in link_edges} & excerpt_nodes

    labels = graph.labels()
    counts = [len(labels[node].lexical.split()) for node in paragraph_nodes if node in labels]
    average = sum(counts) / len(counts) if counts else 0.0
    percentage = 100.0 * len(linked) / len(excerpt_nodes) if excerpt_nodes else 0.0

    return GraphStats(
        papers=len(graph.subjects_of_type(PAPER)),
        sections=len(graph.subjects_of_type(SECTION)),
        paragraphs=len(paragraph_nodes),
        average_words_per_paragraph=average,
        excerpts=len(excerpt_nodes),
        linked_excerpts=len(linked),
        linked_excerpt_percentage=percentage,
        paragraph_excerpt_links=len(link_edges),
        relationship_types=len(predicates),
        entity_types=len(type_objects),
        triples=len(graph),
        entities=len(entities),
    )
