"""Seeded random builders of paragraph/excerpt graphs and phrase
questions, and ``group_by_subject``, which groups one predicate's triples.

The engine's differential tests and the acceptance checks of matching and
relaxation draw their inputs from these builders, so both exercise the
same odd graph shapes.
"""

import random

from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.patterns import CompoundQuery, TriplePattern, Variable, WILDCARD
from scholarkg.kg.terms import (
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    MENTIONS,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    Iri,
    Literal,
    Triple,
    entity_iri,
    iri,
)

# "camel" and "Texts" hold "mel" and "text" inside a longer word, which
# must not match them.
WORDS = ["mel", "tika", "couchdb", "json", "pdf", "text", "tool", "Apache", "camel", "Texts"]
KEYS = ["mel", "tika", "couchdb", "json", "pdf", "text", "tool", "apache",
        "apache_tika", "pdf_text", "text_tool", "mel_json"]
SIDE_PREDICATES = [iri("askg-onto:cites"), iri("askg-onto:partOf")]


def random_phrase(rng: random.Random) -> str:
    words = [rng.choice(WORDS) for _ in range(rng.randint(1, 4))]
    return rng.choice([" ", ", ", " - "]).join(words) + rng.choice(["", ".", "!"])


def random_anchor_graph(rng: random.Random) -> KnowledgeGraph:
    """Paragraph/excerpt graphs with the odd shapes the matcher must handle.

    Nodes may be typed Paragraph, Excerpt, both or neither; ``hasExcerpt``
    may point at a literal, and ``rdfs:label`` and ``inSentence`` at an
    IRI; a ``mentions`` object may be a literal; a node may hold two labels
    of one lexical form with different tags, and a label may start with
    "İ", whose lowercase is two characters; some anchors have text only
    from ``inSentence`` and no witness triple at all.
    """
    nodes = [iri(f"askg-data:N{i}") for i in range(rng.randint(1, 7))]
    entities = [entity_iri(key) for key in rng.sample(KEYS, 4)]
    triples: list[Triple] = []
    for node in nodes:
        for kind in rng.choice([(PARAGRAPH,), (EXCERPT,), (PARAGRAPH, EXCERPT), ()]):
            triples.append(Triple(node, RDF_TYPE, kind))
        if rng.random() < 0.6:
            label = rng.choice(["", "", "İ", "İ "]) + random_phrase(rng)
            for language in rng.choice([[None], ["en"], [None, "en"], ["en", None]]):
                triples.append(Triple(node, RDFS_LABEL, Literal(label, language=language)))
        if rng.random() < 0.1:
            triples.append(Triple(node, RDFS_LABEL, rng.choice(nodes + entities)))
        if rng.random() < 0.4:
            triples.append(Triple(node, IN_SENTENCE, Literal(random_phrase(rng))))
        if rng.random() < 0.1:
            triples.append(Triple(node, IN_SENTENCE, rng.choice(nodes)))
        for _ in range(rng.randint(0, 2)):
            triples.append(Triple(node, MENTIONS, rng.choice(entities)))
        if rng.random() < 0.15:
            triples.append(Triple(node, MENTIONS, Literal(rng.choice(WORDS))))
        for _ in range(rng.randint(0, 2)):
            triples.append(Triple(node, HAS_EXCERPT, rng.choice(nodes)))
        if rng.random() < 0.15:
            triples.append(Triple(node, HAS_EXCERPT, Literal(random_phrase(rng))))
        if rng.random() < 0.3:
            triples.append(Triple(node, rng.choice(SIDE_PREDICATES),
                                  rng.choice(nodes + entities)))
    return KnowledgeGraph(triples)


def random_pattern(rng: random.Random) -> TriplePattern:
    """A pattern of wildcards, variables and entity keys (30% keys)."""
    def term():
        r = rng.random()
        if r < 0.45 or r >= 0.8:
            return WILDCARD
        if r < 0.5:
            return Variable("x")
        return rng.choice(KEYS)

    return TriplePattern(term(), term(), term())


def random_question(rng: random.Random) -> CompoundQuery:
    return CompoundQuery(tuple(random_pattern(rng) for _ in range(rng.randint(1, 3))))


def group_by_subject(graph: KnowledgeGraph, predicate: Iri) -> dict[Iri, tuple[Triple, ...]]:
    """The triples of ``predicate`` grouped by subject, subjects and each
    group in input order, read from ``graph.match`` alone."""
    groups: dict[Iri, list[Triple]] = {}
    for t in graph.match(predicate=predicate):
        groups.setdefault(t.subject, []).append(t)
    return {subject: tuple(group) for subject, group in groups.items()}
