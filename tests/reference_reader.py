"""The Turtle reader as it was before it lexed inside the parser.

``_tokens`` and ``_parse`` are kept verbatim, with the lexer's constants,
as the reference that the differential tests in ``test_turtle.py``
compare ``scholarkg.kg.turtle._parse`` against: on every document both
must give equal triples, or the same error type, message and line.
"""

import re
from typing import Iterator

from scholarkg.kg.terms import Iri, Literal, NAMESPACES, PREFIX_ALIASES, RDF_TYPE, Triple
from scholarkg.kg.turtle import TurtleSyntaxError, UnknownPrefixError

_LOCAL_NAME = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_STRING_BODY = r'[^"\\\n]*(?:\\(?:[\\"nrtbf]|u[0-9A-Fa-f]{4})[^"\\\n]*)*'

# Whitespace and comments, then one token. The alternatives are tried in
# order and the last matches any character, so a match never fails and
# never backtracks into the skipped prefix. The common tokens come first,
# so most matches try few alternatives. Reordering cannot change the
# token stream: alternatives that can start with the same character keep
# their relative order (PNAME before WORD before CHAR; STRING before
# OPEN_STRING; IRIREF before OPEN_IRI; PREFIX_DIRECTIVE, LANGTAG, BAD_AT),
# and EOF matches only where nothing else can. BNODE, OPEN_IRI,
# OPEN_STRING, BAD_AT and CHAR match only malformed input and are reported
# as errors.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:"
    rf"(?P<PNAME>[A-Za-z][A-Za-z0-9_-]*:(?:{_LOCAL_NAME})?)"
    r"|(?P<SEMI>;)|(?P<DOT>\.)|(?P<COMMA>,)"
    rf'|"(?P<STRING>{_STRING_BODY})"'
    rf"|(?P<PREFIX_DIRECTIVE>@prefix(?![A-Za-z0-9-]))|@(?P<LANGTAG>{_LANGTAG})|(?P<BAD_AT>@)"
    r"|(?P<DTYPE>\^\^)|<(?P<IRIREF>[^>]*)>"
    r"|(?P<WORD>[A-Za-z]+)"
    r"|(?P<EOF>\Z)"
    r"|(?P<BNODE>[\[\](_])|(?P<OPEN_IRI><)"
    rf'|(?P<OPEN_STRING>"{_STRING_BODY})'
    r"|(?P<CHAR>.))"
)
_ERRORS = {
    "BNODE": "blank nodes and collections are not supported",
    "OPEN_IRI": "unterminated IRI",
    "BAD_AT": "malformed @ token",
}
_SURROGATE = re.compile("[\ud800-\udfff]")
_ESCAPE = re.compile(r'\\(?:u([0-9A-Fa-f]{4})|([\\"nrtbf]))')
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t", "b": "\b", "f": "\f"}
# What W3C IRIREF forbids between ``<`` and ``>``.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _line(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def _unescape(m: re.Match) -> str:
    return chr(int(m[1], 16)) if m[1] else _ESCAPES[m[2]]


def _open_string_error(text: str, end: int) -> str:
    """Why a string literal whose well-formed part ends at ``end`` is malformed."""
    rest = text[end:end + 2]
    if not rest.startswith("\\"):
        return "unterminated string literal"
    if len(rest) == 1:
        return "dangling escape in string literal"
    if rest[1] == "u":
        return "invalid \\u escape"
    return f"unsupported escape \\{rest[1]}"


def _tokens(text: str) -> Iterator[tuple[str, object, int]]:
    """``(kind, value, offset)`` of each token, ending with ``EOF``.

    Lines are not counted here; an error works its line out from the
    offending token's offset.
    """
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m[kind]
        offset = m.start(kind)
        if kind == "STRING":
            if "\\" in value:
                value = _ESCAPE.sub(_unescape, value)
                if _SURROGATE.search(value):
                    raise TurtleSyntaxError("\\u escape of a surrogate code point",
                                            _line(text, offset))
        elif kind == "WORD":
            if value == "a":
                kind = "A"
            elif value.upper() == "PREFIX":
                kind = "SPARQL_PREFIX"
            else:
                raise TurtleSyntaxError(f"unexpected token {value!r}", _line(text, offset))
        elif kind == "OPEN_STRING":
            raise TurtleSyntaxError(_open_string_error(text, m.end()), _line(text, offset))
        elif kind == "CHAR":
            raise TurtleSyntaxError(f"unexpected character {value!r}", _line(text, offset))
        elif kind in _ERRORS:
            raise TurtleSyntaxError(_ERRORS[kind], _line(text, offset))
        yield kind, value, offset


_NODE_KINDS = ("PNAME", "IRIREF")


def _parse(text: str) -> list[Triple]:
    """Recursive descent over the token stream, written out as nested loops
    with one token of lookahead (``kind``, ``value``, ``offset``).

    A node token is checked before the next token is lexed and resolved
    after it, so a syntax error in the next token is reported before an
    unknown prefix. Each distinct IRI becomes one ``Iri``: ``iris`` maps an
    IRI to its term and ``names`` a prefixed name to its term (cleared when
    a prefix is declared). The first IRIREF that holds a character IRIREF
    forbids is kept in ``bad_iri`` and reported once the document has
    parsed.
    """
    advance = _tokens(text).__next__
    prefixes = dict(NAMESPACES)
    prefixes.update(PREFIX_ALIASES)
    iris: dict[str, Iri] = {}
    names: dict[str, Iri] = {}
    bad_iri: list[TurtleSyntaxError] = []
    triples: list[Triple] = []
    append = triples.append

    def error(message: str, at: int) -> TurtleSyntaxError:
        return TurtleSyntaxError(message, _line(text, at))

    # No helper refers to itself: such a closure would be a reference
    # cycle that keeps ``text`` and the maps alive until a collection.
    def iri(value: str, offset: int) -> Iri:
        node = iris.get(value)
        if node is None:
            bad = _IRI_FORBIDDEN.search(value)
            if bad:
                if not bad_iri:
                    bad_iri.append(error(f"character {bad[0]!r} is not allowed in an IRI",
                                         offset + bad.start()))
                return Iri(value)
            node = iris[value] = Iri(value)
        return node

    def resolve(kind: str, value: str, offset: int) -> Iri:
        """The term of a consumed PNAME or IRIREF token."""
        if kind == "IRIREF":
            return iri(value, offset)
        node = names.get(value)
        if node is None:
            prefix, _, local = value.partition(":")
            ns = prefixes.get(prefix)
            if ns is None:
                raise UnknownPrefixError(prefix, _line(text, offset))
            node = names[value] = iri(ns + local, offset)
        return node

    kind, value, offset = advance()
    while kind != "EOF":
        if kind == "PREFIX_DIRECTIVE" or kind == "SPARQL_PREFIX":
            sparql_form = kind == "SPARQL_PREFIX"
            kind, value, offset = advance()
            if kind != "PNAME":
                raise error(f"expected PNAME, got {kind}", offset)
            (name, name_offset), (kind, value, offset) = (value, offset), advance()
            prefix, _, local = name.partition(":")
            if local:
                raise error("prefix declaration must end with a bare colon", name_offset)
            if kind != "IRIREF":
                raise error(f"expected IRIREF, got {kind}", offset)
            (ns, ns_offset), (kind, value, offset) = (value, offset), advance()
            iri(ns, ns_offset)
            prefixes[prefix] = ns
            names.clear()
            if not sparql_form:
                if kind != "DOT":
                    raise error(f"expected DOT, got {kind}", offset)
                kind, value, offset = advance()
            continue

        if kind not in _NODE_KINDS:
            raise error(f"expected an IRI or prefixed name, got {kind}", offset)
        token, (kind, value, offset) = (kind, value, offset), advance()
        subject = resolve(*token)
        while True:  # predicate-object list
            if kind == "A":
                kind, value, offset = advance()
                predicate = RDF_TYPE
            elif kind in _NODE_KINDS:
                token, (kind, value, offset) = (kind, value, offset), advance()
                predicate = resolve(*token)
            else:
                raise error(f"expected an IRI or prefixed name, got {kind}", offset)
            while True:  # object list
                if kind == "STRING":
                    lexical = value
                    kind, value, offset = advance()
                    if kind == "LANGTAG":
                        language = value
                        kind, value, offset = advance()
                        obj = Literal(lexical, language=language)
                    elif kind == "DTYPE":
                        kind, value, offset = advance()
                        if kind not in _NODE_KINDS:
                            raise error(f"expected an IRI or prefixed name, got {kind}", offset)
                        token, (kind, value, offset) = (kind, value, offset), advance()
                        obj = Literal(lexical, datatype=resolve(*token))
                    else:
                        obj = Literal(lexical)
                elif kind in _NODE_KINDS:
                    token, (kind, value, offset) = (kind, value, offset), advance()
                    obj = resolve(*token)
                else:
                    raise error(f"expected an IRI or prefixed name, got {kind}", offset)
                append(Triple(subject, predicate, obj))
                if kind != "COMMA":
                    break
                kind, value, offset = advance()
            if kind != "SEMI":
                break
            kind, value, offset = advance()
            if kind == "DOT":  # trailing semicolon
                break
        if kind != "DOT":
            raise error(f"expected DOT, got {kind}", offset)
        kind, value, offset = advance()
    if bad_iri:
        raise bad_iri[0]
    return triples
