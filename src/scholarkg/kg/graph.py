"""In-memory triple store with indexed lookup and conjunctive matching."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .patterns import CompoundQuery, TriplePattern, Variable, Wildcard, WILDCARD
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
    term_sort_key,
    triple_sort_key,
)

__all__ = [
    "KnowledgeGraph",
    "MatchResult",
    "match_compound",
    "paragraphs_containing",
    "keyword_frequency",
    "GraphStats",
    "graph_stats",
]


class KnowledgeGraph:
    """An immutable, deduplicated set of triples with lookup indexes.

    Instances never change after construction, so they can be shared
    freely between threads.
    """

    __slots__ = ("_triples", "_by_subject", "_by_predicate", "_by_object", "_labels")

    def __init__(self, triples: Iterable[Triple] = ()):
        ordered = sorted(set(triples), key=triple_sort_key)
        self._triples: tuple[Triple, ...] = tuple(ordered)
        by_subject: dict[Iri, list[Triple]] = {}
        by_predicate: dict[Iri, list[Triple]] = {}
        by_object: dict = {}
        labels: dict[Iri, Literal] = {}
        for t in self._triples:
            by_subject.setdefault(t.subject, []).append(t)
            by_predicate.setdefault(t.predicate, []).append(t)
            by_object.setdefault(t.object, []).append(t)
            if t.predicate == RDFS_LABEL and isinstance(t.object, Literal):
                labels.setdefault(t.subject, t.object)
        self._by_subject = {k: tuple(v) for k, v in by_subject.items()}
        self._by_predicate = {k: tuple(v) for k, v in by_predicate.items()}
        self._by_object = {k: tuple(v) for k, v in by_object.items()}
        self._labels = labels

    @property
    def triples(self) -> tuple[Triple, ...]:
        return self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._by_subject.get(triple.subject, ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def match(self, subject: Iri | None = None, predicate: Iri | None = None,
              object: "Iri | Literal | None" = None) -> tuple[Triple, ...]:
        """Triples matching the given concrete terms; ``None`` matches any."""
        if subject is not None:
            candidates = self._by_subject.get(subject, ())
        elif object is not None:
            candidates = self._by_object.get(object, ())
        elif predicate is not None:
            candidates = self._by_predicate.get(predicate, ())
        else:
            candidates = self._triples
        return tuple(
            t for t in candidates
            if (predicate is None or t.predicate == predicate)
            and (object is None or t.object == object)
            and (subject is None or t.subject == subject)
        )

    def subjects_of_type(self, type_iri: Iri) -> tuple[Iri, ...]:
        return tuple(t.subject for t in self.match(predicate=RDF_TYPE, object=type_iri))

    def label_of(self, node: Iri) -> Literal | None:
        return self._labels.get(node)


@dataclass(frozen=True)
class MatchResult:
    """Solutions of a conjunctive query plus the triples they touch."""

    solutions: tuple[Mapping[str, "Iri | Literal"], ...]
    triples: frozenset[Triple]


def _resolve(term, binding):
    if isinstance(term, Variable):
        return binding.get(term.name)
    if isinstance(term, Wildcard):
        return None
    if isinstance(term, str):
        raise TypeError(
            "compound matching requires Iri or Literal ground terms; "
            f"got the plain string {term!r}"
        )
    return term


def _try_bind(pattern: TriplePattern, triple: Triple, binding: dict) -> dict | None:
    new = binding
    for term, actual in zip(pattern.terms, (triple.subject, triple.predicate, triple.object)):
        if isinstance(term, Variable):
            bound = new.get(term.name)
            if bound is None:
                if new is binding:
                    new = dict(binding)
                new[term.name] = actual
            elif bound != actual:
                return None
    return new if new is not binding else dict(binding)


def match_compound(graph: KnowledgeGraph, query: CompoundQuery) -> MatchResult:
    """Match every pattern of ``query`` against ``graph`` simultaneously.

    A solution binds every named variable consistently across all
    patterns; wildcards match anything without binding. The returned
    triples are the union, over solutions, of the graph triples matching
    each solution-instantiated pattern.
    """
    solutions: list[dict] = []
    seen: set[frozenset] = set()

    def recurse(index: int, binding: dict) -> None:
        if index == len(query.patterns):
            key = frozenset(binding.items())
            if key not in seen:
                seen.add(key)
                solutions.append(dict(binding))
            return
        pattern = query.patterns[index]
        s = _resolve(pattern.subject, binding)
        p = _resolve(pattern.predicate, binding)
        o = _resolve(pattern.object, binding)
        for triple in graph.match(s, p, o):
            extended = _try_bind(pattern, triple, binding)
            if extended is not None:
                recurse(index + 1, extended)

    recurse(0, {})

    matched: set[Triple] = set()
    for solution in solutions:
        for pattern in query.patterns:
            s = _resolve(pattern.subject, solution)
            p = _resolve(pattern.predicate, solution)
            o = _resolve(pattern.object, solution)
            matched.update(graph.match(s, p, o))

    solutions.sort(key=lambda b: tuple(sorted(
        (name, term_sort_key(value)) for name, value in b.items())))
    return MatchResult(solutions=tuple(solutions), triples=frozenset(matched))


def paragraphs_containing(graph: KnowledgeGraph, names: Iterable[str],
                          match_all: bool = False) -> list[tuple[Iri, str]]:
    """Paragraph nodes whose label contains the given names, case-insensitively.

    By default a paragraph qualifies when its label contains any one of
    the names; with ``match_all`` it must contain all of them. Results
    are sorted by node IRI.
    """
    lowered = [n.lower() for n in names if n]
    if not lowered:
        raise ValueError("at least one non-empty name is required")
    out: list[tuple[Iri, str]] = []
    for node in sorted(graph.subjects_of_type(PARAGRAPH), key=lambda n: n.value):
        label = graph.label_of(node)
        if label is None:
            continue
        text = label.lexical.lower()
        hits = (text.__contains__(n) for n in lowered)
        if all(hits) if match_all else any(hits):
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
        return {
            "papers": self.papers,
            "sections": self.sections,
            "paragraphs": self.paragraphs,
            "average_words_per_paragraph": self.average_words_per_paragraph,
            "excerpts": self.excerpts,
            "linked_excerpts": self.linked_excerpts,
            "linked_excerpt_percentage": self.linked_excerpt_percentage,
            "paragraph_excerpt_links": self.paragraph_excerpt_links,
            "relationship_types": self.relationship_types,
            "entity_types": self.entity_types,
            "triples": self.triples,
            "entities": self.entities,
        }


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
