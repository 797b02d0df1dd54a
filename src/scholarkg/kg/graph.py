"""In-memory triple store with a predicate index, label search and graph statistics."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

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
    """An immutable, deduplicated set of triples indexed by predicate.

    The constructor sorts the triples into ``triple_sort_key`` order and
    groups them by predicate in one pass. Each bucket keeps the graph
    order, so each node's first label and each type's subjects are read
    off the ``rdfs:label`` and ``rdf:type`` buckets.
    """

    __slots__ = ("_triples", "_by_predicate", "_labels", "_types")

    def __init__(self, triples: Iterable[Triple] = ()):
        # dict.fromkeys deduplicates and keeps the input order, whose
        # sorted runs the sort reuses.
        self._triples: tuple[Triple, ...] = tuple(
            sorted(dict.fromkeys(triples), key=triple_sort_key))
        by_predicate: dict[Iri, list[Triple]] = {}
        for t in self._triples:
            by_predicate.setdefault(t.predicate, []).append(t)
        self._by_predicate = {k: tuple(v) for k, v in by_predicate.items()}
        labels: dict[Iri, Literal] = {}
        for t in self._by_predicate.get(RDFS_LABEL, ()):
            if isinstance(t.object, Literal):
                labels.setdefault(t.subject, t.object)
        types: dict[Iri, list[Iri]] = {}
        for t in self._by_predicate.get(RDF_TYPE, ()):
            types.setdefault(t.object, []).append(t.subject)
        self._labels = labels
        self._types = {k: tuple(v) for k, v in types.items()}

    @property
    def triples(self) -> tuple[Triple, ...]:
        return self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def match(self, subject: Iri | None = None, predicate: Iri | None = None,
              object: "Iri | Literal | None" = None) -> tuple[Triple, ...]:
        """Triples matching the given concrete terms; ``None`` matches any.

        The result is in the graph's triple order: the predicate's bucket,
        or all triples, filtered on subject and object.
        """
        if predicate is not None:
            candidates = self._by_predicate.get(predicate, ())
        else:
            candidates = self._triples
        if subject is None and object is None:
            return candidates
        return tuple(
            t for t in candidates
            if (subject is None or t.subject == subject)
            and (object is None or t.object == object)
        )

    def subjects_of_type(self, type_iri: Iri) -> tuple[Iri, ...]:
        """The subjects typed ``type_iri``, in IRI order: the order of
        their type triples, since ``triple_sort_key`` leads with the
        subject's IRI."""
        return self._types.get(type_iri, ())

    def label_of(self, node: Iri) -> Literal | None:
        return self._labels.get(node)


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
