"""In-memory triple store with a predicate index, label search and graph statistics."""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import asdict, dataclass
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
    triple_sort_key,
)

__all__ = [
    "KnowledgeGraph",
    "keyword_frequency",
    "GraphStats",
    "graph_stats",
]


class KnowledgeGraph:
    """An immutable, deduplicated set of triples, bucketed by predicate.

    Iterating the graph yields each distinct triple once, predicate by
    predicate in the order the predicates first appear in the input, each
    predicate's triples in input order. An RDF graph has no order to compare
    by, so a graph compares and hashes by identity; compare ``set(g)``.
    The constructor only deduplicates and buckets. The one order a graph
    builds is per predicate, on its first read (``by_subject``, ``match``,
    and ``label_of`` and ``subjects_of_type`` for ``rdfs:label`` and
    ``rdf:type``): the bucket grouped by subject, subjects in IRI order, and
    only a group of more than one triple sorted by ``triple_sort_key``. A
    lazy value depends on the triples alone and is stored in one
    assignment, so threads racing to build it store equal values, never a
    partial one.
    """

    __slots__ = ("_by_predicate", "_groups", "_types")

    def __init__(self, triples: Iterable[Triple] = ()):
        by_predicate = self._by_predicate = defaultdict(list)
        for t in dict.fromkeys(triples):
            by_predicate[t[1]].append(t)
        self._groups: dict[Iri, dict[Iri, tuple[Triple, ...]]] = {}
        self._types: dict[Iri, tuple[Iri, ...]] | None = None

    def __len__(self) -> int:
        return sum(map(len, self._by_predicate.values()))

    def __iter__(self) -> Iterator[Triple]:
        return itertools.chain.from_iterable(self._by_predicate.values())

    def _grouped(self, predicate: Iri) -> dict[Iri, tuple[Triple, ...]]:
        if predicate not in self._groups:
            unordered: dict[Iri, list[Triple]] = defaultdict(list)
            for t in self._by_predicate.get(predicate, ()):
                unordered[t[0]].append(t)
            self._groups[predicate] = {
                subject: tuple(group) if len(group) == 1
                else tuple(sorted(group, key=triple_sort_key))
                for subject, group in sorted(unordered.items(), key=lambda item: item[0].value)}
        return self._groups[predicate]

    def by_subject(self, predicate: Iri) -> Mapping[Iri, tuple[Triple, ...]]:
        """The triples of ``predicate`` grouped by subject: subjects in IRI
        order, each group in ``triple_sort_key`` order."""
        return MappingProxyType(self._grouped(predicate))

    def match(self, *, subject: Iri | None = None, predicate: Iri,
              object: "Iri | Literal | None" = None) -> tuple[Triple, ...]:
        """The triples of ``predicate`` with the given subject and object;
        ``None`` matches any. The result is in the predicate's group order:
        the subject's group, or all groups, filtered on the object."""
        groups = self._grouped(predicate)
        if subject is None:
            candidates = tuple(t for group in groups.values() for t in group)
        else:
            candidates = groups.get(subject, ())
        if object is None:
            return candidates
        return tuple(t for t in candidates if t.object == object)

    def subjects_of_type(self, type_iri: Iri) -> tuple[Iri, ...]:
        """The subjects typed ``type_iri``, in IRI order."""
        if self._types is None:
            types: dict[Iri, list[Iri]] = {}
            for subject, group in self._grouped(RDF_TYPE).items():
                for t in group:
                    types.setdefault(t.object, []).append(subject)
            self._types = {k: tuple(v) for k, v in types.items()}
        return self._types.get(type_iri, ())

    def label_of(self, node: Iri) -> Literal | None:
        """The node's first literal label in ``triple_sort_key`` order."""
        for t in self._grouped(RDFS_LABEL).get(node, ()):
            if isinstance(t.object, Literal):
                return t.object
        return None


def keyword_frequency(label: str, keywords: Iterable[str]) -> int:
    """Total non-overlapping, case-insensitive occurrences of the keywords."""
    text = label.lower()
    return sum(text.count(k.lower()) for k in keywords if k)


@dataclass(frozen=True)
class GraphStats:
    papers: int
    sections: int
    paragraphs: int
    average_words_per_paragraph: float
    excerpts: int
    linked_excerpts: int
    linked_excerpt_percentage: float
    paragraph_excerpt_links: int
    relationship_types: int
    entity_types: int
    triples: int
    entities: int

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
        return asdict(self)


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

    counts = []
    for node in paragraph_nodes:
        label = graph.label_of(node)
        if label is not None:
            counts.append(len(label.lexical.split()))
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
