"""RDF terms and the namespace vocabulary of the scholarly graph.

``Iri``, ``Literal`` and ``Triple`` are tuples of their fields (named
tuples under one private base), so they are built and hashed in C, and
keep the contract of a frozen dataclass:

* a term equals only a term of its own type with equal fields, and never
  a plain tuple, in either direction;
* its hash is ``hash(fields)``, and ``pickle`` and ``copy`` rebuild it
  from its fields, so a copy in a process with another hash seed is
  rehashed;
* terms are not ordered, not even against plain tuples;
* its repr is ``Iri(value='…')``, and so on for the others.

Being a tuple, a term is also a sequence of its fields, with ``len``,
iteration and ``in``; ``json.dumps`` would write it as an array; and
assigning an attribute raises ``AttributeError`` (the base class of the
dataclasses' ``FrozenInstanceError``).
"""

from __future__ import annotations

import re
from collections import namedtuple

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
    "triple_sort_key",
    "RDF_TYPE",
    "RDFS_LABEL",
    "XSD_INT",
    "XSD_STRING",
    "PARAGRAPH",
    "EXCERPT",
    "SECTION",
    "PAPER",
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


class _Term(tuple):
    """Equality, hash and ordering of a term, as the module docstring sets
    out. ``==`` answers ``False``, not ``NotImplemented``, for another type,
    and the orderings raise themselves, so that a plain tuple's reflected
    operation never decides; the named-tuple base gives the fields, repr
    and pickling."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} terms are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


class Iri(_Term, namedtuple("_IriFields", "value")):
    """An absolute IRI."""

    __slots__ = ()

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


class Literal(_Term, namedtuple("_LiteralFields", "lexical datatype language")):
    """A literal with an optional datatype or language tag (never both)."""

    __slots__ = ()

    def __new__(cls, lexical: str, datatype: Iri | None = None, language: str | None = None):
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot carry both a datatype and a language tag")
        return tuple.__new__(cls, (lexical, datatype, language))

    def entity_key(self) -> str:
        """The normalized key of the lexical form, so that a literal
        ``mentions`` object shares the key space of an entity IRI."""
        return normalize_entity_key(self.lexical)


class Triple(_Term, namedtuple("_TripleFields", "subject predicate object")):
    __slots__ = ()


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
HAS_EXCERPT = iri("askg-onto:hasExcerpt")
MENTIONS = iri("askg-onto:mentions")
IN_SENTENCE = iri("askg-onto:inSentence")
WORD_INDEX_FROM = iri("askg-onto:wordIndexFrom")
WORD_INDEX_TO = iri("askg-onto:wordIndexTo")
ACADEMIC_ENTITY_PREFIX = NAMESPACES["askg-data"] + "AcademicEntity-"

_NON_KEY_CHARS = re.compile(r"[^a-z0-9]+")
_KEY_CHARS = re.compile(r"[a-z0-9]+")


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
    return " " + " ".join(_KEY_CHARS.findall(text.lower())) + " "


def entity_iri(key: str) -> Iri:
    """IRI of the academic entity node for a normalized key."""
    return Iri(ACADEMIC_ENTITY_PREFIX + key)


def triple_sort_key(triple: Triple) -> tuple:
    """Subject IRI, predicate IRI, then the object: an IRI by its value
    before any literal, a literal by lexical form, datatype IRI and
    language, then whether it has a datatype and whether it has a
    language, so that ``"x"``, ``"x"^^<>`` and ``"x"@""`` get distinct keys
    and a graph's per-subject groups never depend on its input order. One
    flat tuple is built and compared faster than a nested one."""
    o = triple.object
    if isinstance(o, Iri):
        return (triple.subject.value, triple.predicate.value, 0, o.value, "", "")
    return (triple.subject.value, triple.predicate.value, 1, o.lexical,
            o.datatype.value if o.datatype else "", o.language or "",
            o.datatype is not None, o.language is not None)

