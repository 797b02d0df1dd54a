"""Reader and writer for the Turtle subset used by the scholarly graph.

Supported: ``@prefix``/``PREFIX`` directives, ``a``, predicate lists with
``;``, object lists with ``,``, string literals with ``@lang`` tags or
``^^`` datatypes, IRIs and prefixed names. Blank nodes, collections and
bare numeric or boolean literals are rejected. The five canonical
prefixes are pre-bound, so listing-shaped data loads without a header.
Whitespace is exactly space, tab, CR and LF; ``#`` starts a comment that
runs to the end of the line.

Malformed input raises ``UnknownPrefixError`` for an undeclared prefix
and ``TurtleSyntaxError`` for everything else, each with the line of the
offending byte or token: bytes that are not UTF-8, a surrogate code
point (raw in ``str`` input or as a ``\\u`` escape), ``[``, ``]``, ``(``
or ``_`` (blank nodes and collections), an IRI without ``>``, a string
literal with a bad escape or no closing quote on its line, ``@`` not
starting ``@prefix`` or a language tag, a bare word other than ``a`` or
``PREFIX``, any other character (form feed and vertical tab included),
and a token out of place. An IRI holding a character that W3C
``IRIREF`` forbids (U+0000-U+0020 and ``<>"{}|^`\\``) is reported once
the rest of the document has parsed, at the line of that character.

The writer is canonical: subjects, predicates and objects are emitted in
a fixed order, so saving the same graph always produces identical bytes
and ``load(save(g)) == g``. It raises ``TurtleError`` for what the
reader would refuse: an IRI holding a character ``IRIREF`` forbids, a
language tag that is not a full ``LANGTAG`` (or is ``prefix``, which
reads as the directive), and any term holding a surrogate code point.
"""

from __future__ import annotations

import re
from typing import Iterator

from .graph import KnowledgeGraph
from .terms import Iri, Literal, NAMESPACES, PREFIX_ALIASES, RDF_TYPE, RDFS_LABEL, Triple

__all__ = ["TurtleError", "TurtleSyntaxError", "UnknownPrefixError", "load_turtle", "save_turtle"]


class TurtleError(Exception):
    pass


class TurtleSyntaxError(TurtleError):
    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class UnknownPrefixError(TurtleError):
    def __init__(self, prefix: str, line: int):
        super().__init__(f"unknown prefix {prefix!r} (line {line})")
        self.prefix = prefix
        self.line = line


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

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


def load_turtle(data: bytes | str) -> KnowledgeGraph:
    """Parse Turtle text into a knowledge graph."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TurtleSyntaxError("invalid UTF-8", data.count(b"\n", 0, exc.start) + 1) from None
    else:
        surrogate = _SURROGATE.search(data)
        if surrogate:
            raise TurtleSyntaxError(f"surrogate code point U+{ord(surrogate[0]):04X}",
                                    _line(data, surrogate.start()))
    return KnowledgeGraph(_parse(data))


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

_SAFE_LOCAL = re.compile(_LOCAL_NAME)
_SAFE_LANGTAG = re.compile(_LANGTAG)
_STRING_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def _render_iri(node: Iri) -> str:
    prefixed = node.prefixed()
    if prefixed is not None:
        prefix, local = prefixed
        if _SAFE_LOCAL.fullmatch(local):
            return f"{prefix}:{local}"
    bad = _IRI_FORBIDDEN.search(node.value)
    if bad:
        raise TurtleError(f"cannot write IRI {node.value!r}: it contains {bad[0]!r}")
    return f"<{node.value}>"


def _render_literal(literal: Literal) -> str:
    rendered = f'"{literal.lexical.translate(_STRING_ESCAPES)}"'
    if literal.language is not None:
        if not _SAFE_LANGTAG.fullmatch(literal.language) or literal.language == "prefix":
            raise TurtleError(f"cannot write language tag {literal.language!r}")
        return f"{rendered}@{literal.language}"
    if literal.datatype is not None:
        return f"{rendered}^^{_render_iri(literal.datatype)}"
    return rendered


def _render_term(term) -> str:
    return _render_iri(term) if isinstance(term, Iri) else _render_literal(term)


class _Rendered(dict):
    """Each term's Turtle text, rendered on first lookup."""

    def __missing__(self, term) -> str:
        text = self[term] = _render_term(term)
        return text


# Type first, label second, everything else alphabetically: the order the
# graph's excerpt and paragraph blocks conventionally use.
_PREDICATE_RANK = {RDF_TYPE: 0, RDFS_LABEL: 1}


def save_turtle(graph: KnowledgeGraph) -> bytes:
    """Serialize a graph to canonical Turtle bytes.

    The output starts with the canonical prefix header and groups triples
    by subject with ``;``/``,`` continuation, deterministically ordered.
    Each distinct term is rendered once per call.
    """
    lines = [f"@prefix {prefix}: <{NAMESPACES[prefix]}> ." for prefix in sorted(NAMESPACES)]
    lines.append("")

    by_subject: dict[Iri, dict[Iri, list]] = {}
    for t in graph:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)

    rendered = _Rendered()
    render = rendered.__getitem__

    def predicate_order(predicate: Iri) -> tuple:
        return (_PREDICATE_RANK.get(predicate, 2), render(predicate))

    for subject in sorted(by_subject, key=render):
        predicates = by_subject[subject]
        body = " ;\n    ".join(
            ("a" if predicate == RDF_TYPE else render(predicate)) + " "
            + ",\n        ".join(sorted(map(render, predicates[predicate])))
            for predicate in sorted(predicates, key=predicate_order))
        lines.append(f"{render(subject)} {body} .\n")

    text = "\n".join(lines).rstrip("\n") + "\n"
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # only a surrogate cannot be encoded
        raise TurtleError(
            f"cannot write surrogate code point U+{ord(exc.object[exc.start]):04X}") from None
