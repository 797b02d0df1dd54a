"""RDF terms and the namespace vocabulary of the scholarly graph."""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Iri",
    "Literal",
    "Triple",
    "NAMESPACES",
    "PREFIX_ALIASES",
    "iri",
    "entity_iri",
    "normalize_entity_key",
    "entity_phrase",
    "phrase_haystack",
    "term_sort_key",
    "triple_sort_key",
    "RDF_TYPE",
    "RDFS_LABEL",
    "XSD_INT",
    "XSD_STRING",
    "PARAGRAPH",
    "EXCERPT",
    "SECTION",
    "PAPER",
    "ACADEMIC_ENTITY",
    "HAS_EXCERPT",
    "MENTIONS",
    "IN_SENTENCE",
    "WORD_INDEX_FROM",
    "WORD_INDEX_TO",
    "ACADEMIC_ENTITY_PREFIX",
]

# Canonical prefix bindings. These are the graph's wire-format vocabulary:
# serialization always renders IRIs in these namespaces as prefixed names.
NAMESPACES = {
    "askg-onto": "https://www.anu.edu.au/onto/scholarly#",
    "askg-data": "https://www.anu.edu.au/onto/scholarly/",
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}

# Accepted on input as a shorthand for the ontology namespace; never emitted.
PREFIX_ALIASES = {"askg": NAMESPACES["askg-onto"]}


@dataclass(frozen=True)
class Iri:
    """An absolute IRI."""

    value: str

    def local_name(self) -> str:
        """The part after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self.value:
                idx = self.value.rindex(sep)
                return self.value[idx + 1:]
        return self.value

    def prefixed(self) -> tuple[str, str] | None:
        """(prefix, local) under the canonical namespaces, if any."""
        for prefix, ns in NAMESPACES.items():
            if self.value.startswith(ns) and len(self.value) > len(ns):
                return prefix, self.value[len(ns):]
        return None

    def entity_key(self) -> str:
        """Lowercase identity used in frequency and purity tallies.

        Academic entity nodes reduce to their bare key (the part after
        ``AcademicEntity-``); other IRIs reduce to their lowercased local
        name.
        """
        local = self.local_name()
        if local.startswith("AcademicEntity-"):
            return local[len("AcademicEntity-"):].lower()
        return local.lower()


@dataclass(frozen=True)
class Literal:
    """A literal with an optional datatype or language tag (never both)."""

    lexical: str
    datatype: Iri | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.datatype is not None and self.language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")

    def entity_key(self) -> str:
        """The normalized key of the lexical form, so that a literal
        ``mentions`` object shares the key space of an entity IRI."""
        return normalize_entity_key(self.lexical)


@dataclass(frozen=True)
class Triple:
    subject: Iri
    predicate: Iri
    object: "Iri | Literal"


def iri(prefixed: str) -> Iri:
    """Expand a prefixed name such as ``askg-onto:Paragraph``."""
    prefix, _, local = prefixed.partition(":")
    ns = NAMESPACES.get(prefix) or PREFIX_ALIASES.get(prefix)
    if ns is None:
        raise ValueError(f"unknown prefix {prefix!r}")
    return Iri(ns + local)


RDF_TYPE = iri("rdf:type")
RDFS_LABEL = iri("rdfs:label")
XSD_INT = iri("xsd:int")
XSD_STRING = iri("xsd:string")
PARAGRAPH = iri("askg-onto:Paragraph")
EXCERPT = iri("askg-onto:Excerpt")
SECTION = iri("askg-onto:Section")
PAPER = iri("askg-onto:Paper")
ACADEMIC_ENTITY = iri("askg-onto:AcademicEntity")
HAS_EXCERPT = iri("askg-onto:hasExcerpt")
MENTIONS = iri("askg-onto:mentions")
IN_SENTENCE = iri("askg-onto:inSentence")
WORD_INDEX_FROM = iri("askg-onto:wordIndexFrom")
WORD_INDEX_TO = iri("askg-onto:wordIndexTo")
ACADEMIC_ENTITY_PREFIX = NAMESPACES["askg-data"] + "AcademicEntity-"

_NON_KEY_CHARS = re.compile(r"[^a-z0-9]+")


def normalize_entity_key(text: str) -> str:
    """Normalize free text to a lowercase underscore-separated entity key.

    ``"Prepared Data"`` becomes ``"prepared_data"``; punctuation collapses
    into the separators, so ``"Metadata Extractor & Loader (MEL)"`` becomes
    ``"metadata_extractor_loader_mel"``.
    """
    return _NON_KEY_CHARS.sub("_", text.lower()).strip("_")


def entity_phrase(key: str) -> str:
    """The words of an entity key: ``"prepared_data"`` reads ``"prepared data"``."""
    return key.replace("_", " ")


def phrase_haystack(text: str) -> str:
    """Lowercase alphanumeric words of ``text``, space-separated and
    space-padded, so ``f" {phrase} " in haystack`` matches whole words."""
    return " " + _NON_KEY_CHARS.sub(" ", text.lower()).strip() + " "


def entity_iri(key: str) -> Iri:
    """IRI of the academic entity node for a normalized key."""
    return Iri(ACADEMIC_ENTITY_PREFIX + key)


def term_sort_key(term: "Iri | Literal") -> tuple:
    if isinstance(term, Iri):
        return (0, term.value, "", "")
    return (1, term.lexical, term.datatype.value if term.datatype else "", term.language or "")


def triple_sort_key(triple: Triple) -> tuple:
    return (triple.subject.value, triple.predicate.value, term_sort_key(triple.object))

