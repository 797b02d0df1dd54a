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
    "paragraphs_containing",
    "keyword_frequency",
    "GraphStats",
    "graph_stats",
]


class KnowledgeGraph:
    """An immutable, deduplicated set of triples, bucketed by predicate.

    The constructor only deduplicates and buckets; each order is built on
    first use and kept. The first read of a predicate (``by_subject``,
    ``match(predicate=…)``, and ``label_of`` and ``subjects_of_type`` for
    ``rdfs:label`` and ``rdf:type``) groups its bucket by subject: subjects
    in IRI order, and only a group of more than one triple sorted by
    ``triple_sort_key``. Iterating, comparing or hashing the graph sorts it
    whole into that order; a query never does, nor does ``unordered``,
    which saving, statistics and linking read. A lazy value depends on
    the triples alone and is stored in one assignment, so threads racing
    to build it store equal values, never a partial one.
    """

    __slots__ = ("_by_predicate", "_groups", "_triples", "_types")

    def __init__(self, triples: Iterable[Triple] = ()):
        by_predicate = self._by_predicate = defaultdict(list)
        for t in dict.fromkeys(triples):
            by_predicate[t[1]].append(t)
        self._groups: dict[Iri, dict[Iri, tuple[Triple, ...]]] = {}
        self._triples: tuple[Triple, ...] | None = None
        self._types: dict[Iri, tuple[Iri, ...]] | None = None

    @property
    def triples(self) -> tuple[Triple, ...]:
        """Every triple, in ``triple_sort_key`` order."""
        if self._triples is None:
            # each bucket's input-order runs are reused by the sort
            self._triples = tuple(sorted(
                (t for bucket in self._by_predicate.values() for t in bucket),
                key=triple_sort_key))
        return self._triples

    def unordered(self) -> Iterator[Triple]:
        """Every triple, in no promised order, without building the
        whole-graph order: for a reader that orders or counts them itself."""
        return itertools.chain.from_iterable(self._by_predicate.values())

    def __len__(self) -> int:
        return sum(map(len, self._by_predicate.values()))

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

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
        order, each group in the graph's triple order."""
        return MappingProxyType(self._grouped(predicate))

    def match(self, subject: Iri | None = None, predicate: Iri | None = None,
              object: "Iri | Literal | None" = None) -> tuple[Triple, ...]:
        """Triples matching the given concrete terms; ``None`` matches any.

        The result is in the graph's triple order: the subject's group of
        the predicate, the predicate's groups, or all triples, filtered on
        the terms not yet bound.
        """
        if predicate is None:
            candidates = self.triples
        elif subject is None:
            candidates = tuple(t for group in self._grouped(predicate).values() for t in group)
        else:
            candidates, subject = self._grouped(predicate).get(subject, ()), None
        if subject is None and object is None:
            return candidates
        return tuple(
            t for t in candidates
            if (subject is None or t.subject == subject)
            and (object is None or t.object == object)
        )

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
        """The node's first literal label in the graph's triple order."""
        for t in self._grouped(RDFS_LABEL).get(node, ()):
            if isinstance(t.object, Literal):
                return t.object
        return None


def paragraphs_containing(graph: KnowledgeGraph,
                          names: Iterable[str]) -> list[tuple[Iri, str]]:
    """Paragraph nodes whose label contains any of the names, case-insensitively.

    Results are sorted by node IRI.
    """
    lowered = [n.lower() for n in names if n]
    if not lowered:
        raise ValueError("at least one non-empty name is required")
    out: list[tuple[Iri, str]] = []
    for node in graph.subjects_of_type(PARAGRAPH):
        label = graph.label_of(node)
        if label is None:
            continue
        text = label.lexical.lower()
        if any(n in text for n in lowered):
            out.append((node, label.lexical))
    return out


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
    for t in graph.unordered():
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
