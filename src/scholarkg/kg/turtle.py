"""Reader and writer for the Turtle subset used by the scholarly graph.

Supported: ``@prefix``/``PREFIX`` directives, ``a``, predicate lists with
``;``, object lists with ``,``, string literals with ``@lang`` tags or
``^^`` datatypes, IRIs and prefixed names. Blank nodes, collections and
bare numeric or boolean literals are rejected. The five canonical
prefixes are pre-bound, so listing-shaped data loads without a header.
Whitespace is exactly space, tab, CR and LF; ``#`` starts a comment that
runs to the end of the line. A string without escapes is lexed with the
``@lang`` or ``^^`` prefixed name written right after it, as one token.

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
a fixed order, so saving the same graph always produces identical bytes,
and loading them gives a graph with an equal triple set. It raises
``TurtleError`` for what the reader would refuse: an IRI holding a
character ``IRIREF`` forbids, a language tag that is not a full
``LANGTAG`` (or is ``prefix``, which reads as the directive), and any
term holding a surrogate code point.
"""

from __future__ import annotations

import re

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
_PNAME_PATTERN = rf"[A-Za-z][A-Za-z0-9_-]*:(?:{_LOCAL_NAME})?"
_LANGTAG_PATTERN = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_STRING_BODY = r'[^"\\\n]*(?:\\(?:[\\"nrtbf]|u[0-9A-Fa-f]{4})[^"\\\n]*)*'

# Whitespace and comments, then one token. Each alternative has one
# capturing group, so a match's ``lastindex`` (the group closed last) is
# its token kind, but for a string without escapes: group 5 holds its
# lexical form, and an ``@lang`` or ``^^pname`` right after the quote is
# read with it, into group 6 or 7, as the LANGTAG, or DTYPE and PNAME,
# tokens would read it (``@prefix`` is left to PREFIX_DIRECTIVE). The
# alternatives are tried in order and the last matches any character, so
# a match never fails and never backtracks into the skipped prefix. The
# common tokens come first, so most matches try few alternatives.
# Reordering cannot change the token stream: alternatives that can start
# with the same character keep their relative order (PNAME before A,
# SPARQL_PREFIX, WORD and CHAR; STRING before ESCAPED_STRING before
# OPEN_STRING; IRIREF before OPEN_IRI; PREFIX_DIRECTIVE, LANGTAG, BAD_AT),
# and EOF matches only where nothing else can. A STRING holds no escape.
# BAD_AT, WORD, BNODE, OPEN_IRI, OPEN_STRING and CHAR match only malformed
# input and are reported as errors.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:"
    rf"({_PNAME_PATTERN})"
    r"|(;)|(\.)|(,)"
    rf'|"([^"\\\n]*)"(?:@(?!prefix(?![A-Za-z0-9-]))({_LANGTAG_PATTERN})|\^\^({_PNAME_PATTERN}))?'
    rf'|"({_STRING_BODY})"'
    rf"|(@prefix)(?![A-Za-z0-9-])|@({_LANGTAG_PATTERN})|(@)"
    r"|(\^\^)|<([^>]*)>"
    r"|(a)(?![A-Za-z])|([Pp][Rr][Ee][Ff][Ii][Xx])(?![A-Za-z])|([A-Za-z]+)"
    r"|(\Z)"
    r"|([\[\](_])|(<)"
    rf'|("{_STRING_BODY})'
    r"|(.))"
)
# The name of each token kind in error messages, at the number of its
# group in ``_TOKEN`` (group 0 is the whole match). A string read with its
# suffix is one STRING token.
_KIND_NAMES = ("", "PNAME", "SEMI", "DOT", "COMMA", "STRING", "STRING", "STRING", "STRING",
               "PREFIX_DIRECTIVE", "LANGTAG", "BAD_AT", "DTYPE", "IRIREF", "A", "SPARQL_PREFIX",
               "WORD", "EOF", "BNODE", "OPEN_IRI", "OPEN_STRING", "CHAR")
(_PNAME, _SEMI, _DOT, _COMMA, _STRING, _TAGGED_STRING, _TYPED_STRING, _ESCAPED_STRING,
 _PREFIX_DIRECTIVE, _LANGTAG, _BAD_AT, _DTYPE, _IRIREF, _A, _SPARQL_PREFIX, _WORD, _EOF, _BNODE,
 _OPEN_IRI, _OPEN_STRING, _CHAR) = range(1, len(_KIND_NAMES))
_ERRORS = {
    _BNODE: "blank nodes and collections are not supported",
    _OPEN_IRI: "unterminated IRI",
    _BAD_AT: "malformed @ token",
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


def _token_error(text: str, m: re.Match) -> TurtleSyntaxError | None:
    """The error of a token that is malformed in itself, or ``None``."""
    kind = m.lastindex
    value = m[kind]
    if kind == _ESCAPED_STRING:
        if not _SURROGATE.search(_ESCAPE.sub(_unescape, value)):
            return None
        message = "\\u escape of a surrogate code point"
    elif kind == _WORD:
        message = f"unexpected token {value!r}"
    elif kind == _OPEN_STRING:
        message = _open_string_error(text, m.end())
    elif kind == _CHAR:
        message = f"unexpected character {value!r}"
    elif kind in _ERRORS:
        message = _ERRORS[kind]
    else:
        return None
    return TurtleSyntaxError(message, _line(text, m.start(kind)))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parse(text: str) -> list[Triple]:
    """Recursive descent over the matches of ``_TOKEN``, written out as
    nested loops with one token of lookahead: the match ``m`` and its
    ``kind``. Offsets are read off a match only to report an error.

    A node token is checked before the next token is matched and resolved
    after it. A token malformed in itself is reported when the parser
    first looks at it, or in place of an unknown prefix or a bad prefix
    declaration found just before it, so every error is the one a lexer
    running a token ahead of the parser would raise. Each distinct IRI
    becomes one ``Iri``: ``iris`` maps an IRI to its term and ``names`` a
    prefixed name to its term (cleared when a prefix is declared); a node
    token is looked up there in place, and ``resolve`` runs only on a
    miss. Terms are built by ``tuple.__new__``, past their classes' one
    check (not both a datatype and a language), which the grammar keeps.
    The first IRIREF that holds a character IRIREF forbids is kept in
    ``bad_iri`` and reported once the document has parsed.
    """
    advance = _TOKEN.finditer(text).__next__
    prefixes = dict(NAMESPACES)
    prefixes.update(PREFIX_ALIASES)
    iris: dict[str, Iri] = {}
    names: dict[str, Iri] = {}
    bad_iri: list[TurtleSyntaxError] = []
    triples: list[Triple] = []
    append = triples.append
    new = tuple.__new__

    # No helper refers to itself: such a closure would be a reference
    # cycle that keeps ``text`` and the maps alive until a collection.
    def unexpected(expected: str, m: re.Match) -> TurtleSyntaxError:
        kind = m.lastindex
        return _token_error(text, m) or TurtleSyntaxError(
            f"expected {expected}, got {_KIND_NAMES[kind]}", _line(text, m.start(kind)))

    def iri(value: str, token: re.Match) -> Iri:
        node = iris.get(value)
        if node is None:
            bad = _IRI_FORBIDDEN.search(value)
            if bad:
                if not bad_iri:
                    bad_iri.append(TurtleSyntaxError(
                        f"character {bad[0]!r} is not allowed in an IRI",
                        _line(text, token.start(token.lastindex) + bad.start())))
                return Iri(value)
            node = iris[value] = Iri(value)
        return node

    def resolve(token: re.Match, following: re.Match) -> Iri:
        """The term of a PNAME or IRIREF token, given the token after it."""
        kind = token.lastindex
        value = token[kind]
        if kind == _IRIREF:
            return iri(value, token)
        node = names.get(value)
        if node is None:
            prefix, _, local = value.partition(":")
            ns = prefixes.get(prefix)
            if ns is None:
                raise _token_error(text, following) or UnknownPrefixError(
                    prefix, _line(text, token.start(kind)))
            node = names[value] = iri(ns + local, token)
        return node

    m = advance()
    kind = m.lastindex
    while kind != _EOF:
        if kind == _PREFIX_DIRECTIVE or kind == _SPARQL_PREFIX:
            sparql_form = kind == _SPARQL_PREFIX
            m = advance()
            if m.lastindex != _PNAME:
                raise unexpected("PNAME", m)
            name, m = m, advance()
            prefix, _, local = name[_PNAME].partition(":")
            if local:
                raise _token_error(text, m) or TurtleSyntaxError(
                    "prefix declaration must end with a bare colon",
                    _line(text, name.start(_PNAME)))
            if m.lastindex != _IRIREF:
                raise unexpected("IRIREF", m)
            ns = m[_IRIREF]
            token, m = m, advance()
            iri(ns, token)
            prefixes[prefix] = ns
            names.clear()
            kind = m.lastindex
            if not sparql_form:
                if kind != _DOT:
                    raise unexpected("DOT", m)
                m = advance()
                kind = m.lastindex
            continue

        if kind != _PNAME and kind != _IRIREF:
            raise unexpected("an IRI or prefixed name", m)
        node, m = m, advance()
        subject = (names if kind == _PNAME else iris).get(node[kind]) or resolve(node, m)
        kind = m.lastindex
        while True:  # predicate-object list
            if kind == _A:
                m = advance()
                predicate = RDF_TYPE
            elif kind == _PNAME or kind == _IRIREF:
                node, m = m, advance()
                predicate = (names if kind == _PNAME else iris).get(node[kind]) or resolve(node, m)
            else:
                raise unexpected("an IRI or prefixed name", m)
            kind = m.lastindex
            while True:  # object list
                if kind == _PNAME or kind == _IRIREF:
                    node, m = m, advance()
                    obj = (names if kind == _PNAME else iris).get(node[kind]) or resolve(node, m)
                elif kind == _TAGGED_STRING:
                    obj = new(Literal, (m[_STRING], None, m[_TAGGED_STRING]))
                    m = advance()
                elif kind == _TYPED_STRING:
                    node, m = m, advance()
                    obj = new(Literal, (node[_STRING], names.get(node[_TYPED_STRING])
                                        or resolve(node, m), None))
                elif kind == _STRING or kind == _ESCAPED_STRING:
                    lexical = m[kind]
                    if kind == _ESCAPED_STRING:
                        lexical = _ESCAPE.sub(_unescape, lexical)
                        if _SURROGATE.search(lexical):
                            raise _token_error(text, m)
                    m = advance()
                    kind = m.lastindex
                    if kind == _LANGTAG:
                        obj = new(Literal, (lexical, None, m[_LANGTAG]))
                        m = advance()
                    elif kind == _DTYPE:
                        m = advance()
                        if m.lastindex != _PNAME and m.lastindex != _IRIREF:
                            raise unexpected("an IRI or prefixed name", m)
                        node, m = m, advance()
                        obj = new(Literal, (lexical, resolve(node, m), None))
                    else:
                        obj = new(Literal, (lexical, None, None))
                else:
                    raise unexpected("an IRI or prefixed name", m)
                kind = m.lastindex
                append(new(Triple, (subject, predicate, obj)))
                if kind != _COMMA:
                    break
                m = advance()
                kind = m.lastindex
            if kind != _SEMI:
                break
            m = advance()
            kind = m.lastindex
            if kind == _DOT:  # trailing semicolon
                break
        if kind != _DOT:
            raise unexpected("DOT", m)
        m = advance()
        kind = m.lastindex
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
_SAFE_LANGTAG = re.compile(_LANGTAG_PATTERN)
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
    by subject with ``;``/``,`` continuation: subjects and each predicate's
    objects sorted by their rendered text, predicates by rank and then
    text. A term's rendering is unique to it, so the bytes do not depend on
    the order the graph iterates in. Each distinct term is rendered once
    per call, all subjects first, in that order, so which term a
    ``TurtleError`` names depends on the graph's input alone.
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
