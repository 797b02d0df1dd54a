"""RDF terms, the namespace vocabulary of the scholarly graph, the triple
patterns that query it, and the base of every value class in the package.

``Iri``, ``Literal``, ``Triple`` and the pattern classes here, and the
value classes of the other modules (the document model, requests and
responses, results), are named tuples under one private base, ``_Value``:
a value is the tuple of its fields, so it is built and hashed in C, and
it keeps the contract of a frozen dataclass:

* a value equals only a value of its own type with equal fields, and
  never a plain tuple, in either direction;
* its hash is ``hash(fields)``;
* ``pickle`` and ``copy`` rebuild it through its constructor from its
  fields, so its checks run again, and a copy in a process with another
  hash seed is rehashed;
* values are not ordered, not even against plain tuples;
* its repr is ``Iri(value='…')``, and so on for the others;
* assigning a field or a new attribute raises ``AttributeError``.

A class whose constructor checks its arguments does so in ``__new__``.
Being a tuple, a value is also a sequence of its fields, with ``len``,
iteration and ``in``, and ``json.dumps`` would write it as an array.

A pattern term is a phrase or a :class:`Variable`, the gateway's ``?name``
wire form, kept so that a pattern formats back as it was read;
:data:`WILDCARD` is the anonymous variable ``?``. Nothing binds a
variable: the matcher in ``qa.engine`` lets it match anything, so two
patterns that name the same variable are not joined on it.
"""

from __future__ import annotations

import re
from collections import namedtuple

__all__ = [
    "Iri",
    "Literal",
    "Triple",
    "Variable",
    "WILDCARD",
    "TriplePattern",
    "CompoundQuery",
    "NAMESPACES",
    "PREFIX_ALIASES",
    "iri",
    "entity_iri",
    "normalize_entity_key",
    "entity_phrase",
    "phrase_haystack",
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


class _Value(tuple):
    """Equality, hash, ordering and copying of a value class, here or in
    another module, as the module docstring sets out. ``==`` answers
    ``False``, not ``NotImplemented``, for another type, and the orderings
    raise themselves, so that a plain tuple's reflected operation never
    decides; the named-tuple base gives the fields and the repr."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return self.__class__ is other.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        return self.__class__, self[:]


class Iri(_Value, namedtuple("_IriFields", "value")):
    """An absolute IRI."""

    __slots__ = ()

    def local_name(self) -> str:
        """The part after the last ``#`` or ``/``."""
        for sep in ("#", "/"):
            if sep in self.value:
                idx = self.value.rindex(sep)
                return self.value[idx + 1:]
        return self.value

    def entity_key(self) -> str:
        """Lowercase identity used in frequency and purity tallies.

        Academic entity nodes reduce to their bare key (the part after
        ``AcademicEntity-``); other IRIs reduce to their lowercased local
        name.
        """
        return self.local_name().removeprefix("AcademicEntity-").lower()


class Literal(_Value, namedtuple("_LiteralFields", "lexical datatype language")):
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


class Triple(_Value, namedtuple("_TripleFields", "subject predicate object")):
    __slots__ = ()


class Variable(_Value, namedtuple("_VariableFields", "name")):
    """A ``?name`` position; matches any term without binding."""

    __slots__ = ()


WILDCARD = Variable("")

_PatternTerm = Variable | str


class TriplePattern(_Value, namedtuple("_TriplePatternFields", "subject predicate object")):
    """Three pattern terms, each a phrase or a :class:`Variable`."""

    __slots__ = ()

    def __new__(cls, subject: _PatternTerm, predicate: _PatternTerm, object: _PatternTerm):
        terms = (subject, predicate, object)
        for position, term in zip(cls._fields, terms):
            if not isinstance(term, (Variable, str)):
                raise TypeError(
                    f"pattern {position} must be a phrase or a Variable, not {term!r}")
        return tuple.__new__(cls, terms)

    @property
    def has_ground_term(self) -> bool:
        """Whether at least one position is ground.

        A fully wild pattern is legal for matching (it matches every
        triple) but is rejected wherever patterns describe question
        content, e.g. in relaxation dictionaries.
        """
        return any(isinstance(t, str) for t in self)


class CompoundQuery(_Value, namedtuple("_CompoundQueryFields", "patterns")):
    """A conjunction of triple patterns; never empty."""

    __slots__ = ()

    def __new__(cls, patterns: tuple[TriplePattern, ...]):
        if not patterns:
            raise ValueError("a compound query must contain at least one pattern")
        return tuple.__new__(cls, (patterns,))


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
_ACADEMIC_ENTITY_PREFIX = NAMESPACES["askg-data"] + "AcademicEntity-"

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
    return Iri(_ACADEMIC_ENTITY_PREFIX + key)
