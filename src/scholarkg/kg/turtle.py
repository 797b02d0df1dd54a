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
and a token out of place.

The writer is canonical: subjects, predicates and objects are emitted in
a fixed order, so saving the same graph always produces identical bytes
and ``load(save(g)) == g``. It raises ``TurtleError`` for what the
reader could not read back: an IRI that contains ``>``, a language tag
that is not a full ``LANGTAG`` (or is ``prefix``, which reads as the
directive), and any term holding a surrogate code point.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

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
# never backtracks into the skipped prefix. BNODE, OPEN_IRI, OPEN_STRING,
# BAD_AT and CHAR match only malformed input and are reported as errors.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(?:"
    r"(?P<EOF>\Z)"
    r"|(?P<BNODE>[\[\](_])"
    r"|(?P<DOT>\.)|(?P<SEMI>;)|(?P<COMMA>,)|(?P<DTYPE>\^\^)"
    r"|<(?P<IRIREF>[^>]*)>|(?P<OPEN_IRI><)"
    rf'|"(?P<STRING>{_STRING_BODY})"|(?P<OPEN_STRING>"{_STRING_BODY})'
    rf"|(?P<PREFIX_DIRECTIVE>@prefix(?![A-Za-z0-9-]))|@(?P<LANGTAG>{_LANGTAG})|(?P<BAD_AT>@)"
    rf"|(?P<PNAME>(?P<prefix>[A-Za-z][A-Za-z0-9_-]*):(?P<local>{_LOCAL_NAME})?)"
    r"|(?P<WORD>[A-Za-z]+)"
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


class _Token(NamedTuple):
    kind: str
    value: object
    line: int


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


def _tokens(text: str) -> Iterator[_Token]:
    pos = start = 0
    line = 1
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        line += text.count("\n", start, m.start(kind))
        start, pos = m.start(kind), m.end()
        value = m[kind]
        if kind == "STRING" and "\\" in value:
            value = _ESCAPE.sub(_unescape, value)
            if _SURROGATE.search(value):
                raise TurtleSyntaxError("\\u escape of a surrogate code point", line)
        elif kind == "PNAME":
            value = (m["prefix"], m["local"] or "")
        elif kind == "WORD":
            if value == "a":
                kind = "A"
            elif value.upper() == "PREFIX":
                kind = "SPARQL_PREFIX"
            else:
                raise TurtleSyntaxError(f"unexpected token {value!r}", line)
        elif kind == "OPEN_STRING":
            raise TurtleSyntaxError(_open_string_error(text, pos), line)
        elif kind == "CHAR":
            raise TurtleSyntaxError(f"unexpected character {value!r}", line)
        elif kind in _ERRORS:
            raise TurtleSyntaxError(_ERRORS[kind], line)
        yield _Token(kind, value, line)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.token = next(self.tokens)
        self.prefixes = dict(NAMESPACES)
        self.prefixes.update(PREFIX_ALIASES)
        self.triples: list[Triple] = []

    def _next(self) -> None:
        self.token = next(self.tokens)

    def _expect(self, kind: str) -> _Token:
        tok = self.token
        if tok.kind != kind:
            raise TurtleSyntaxError(f"expected {kind}, got {tok.kind}", tok.line)
        self._next()
        return tok

    def _expand(self, tok: _Token) -> Iri:
        prefix, local = tok.value
        ns = self.prefixes.get(prefix)
        if ns is None:
            raise UnknownPrefixError(prefix, tok.line)
        return Iri(ns + local)

    def _directive(self) -> None:
        sparql_form = self.token.kind == "SPARQL_PREFIX"
        self._next()
        name_tok = self._expect("PNAME")
        prefix, local = name_tok.value
        if local:
            raise TurtleSyntaxError("prefix declaration must end with a bare colon", name_tok.line)
        iri_tok = self._expect("IRIREF")
        self.prefixes[prefix] = iri_tok.value
        if not sparql_form:
            self._expect("DOT")

    def _node(self) -> Iri:
        tok = self.token
        if tok.kind == "IRIREF":
            self._next()
            return Iri(tok.value)
        if tok.kind == "PNAME":
            self._next()
            return self._expand(tok)
        raise TurtleSyntaxError(f"expected an IRI or prefixed name, got {tok.kind}", tok.line)

    def _object(self):
        tok = self.token
        if tok.kind == "STRING":
            self._next()
            if self.token.kind == "LANGTAG":
                lang = self.token.value
                self._next()
                return Literal(tok.value, language=lang)
            if self.token.kind == "DTYPE":
                self._next()
                return Literal(tok.value, datatype=self._node())
            return Literal(tok.value)
        return self._node()

    def _predicate(self) -> Iri:
        if self.token.kind == "A":
            self._next()
            return RDF_TYPE
        return self._node()

    def _triples_block(self) -> None:
        subject = self._node()
        while True:
            predicate = self._predicate()
            while True:
                obj = self._object()
                self.triples.append(Triple(subject, predicate, obj))
                if self.token.kind == "COMMA":
                    self._next()
                    continue
                break
            if self.token.kind == "SEMI":
                self._next()
                if self.token.kind == "DOT":  # trailing semicolon
                    break
                continue
            break
        self._expect("DOT")

    def parse(self) -> list[Triple]:
        while self.token.kind != "EOF":
            if self.token.kind in ("PREFIX_DIRECTIVE", "SPARQL_PREFIX"):
                self._directive()
            else:
                self._triples_block()
        return self.triples


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
                                    data.count("\n", 0, surrogate.start()) + 1)
    return KnowledgeGraph(_Parser(data).parse())


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
    if ">" in node.value:
        raise TurtleError(f"cannot write IRI {node.value!r}: it contains '>'")
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


def _predicate_order(predicate: Iri) -> tuple:
    # Type first, label second, everything else alphabetically: the order
    # the graph's excerpt and paragraph blocks conventionally use.
    if predicate == RDF_TYPE:
        rank = 0
    elif predicate == RDFS_LABEL:
        rank = 1
    else:
        rank = 2
    return (rank, _render_iri(predicate))


def save_turtle(graph: KnowledgeGraph) -> bytes:
    """Serialize a graph to canonical Turtle bytes.

    The output starts with the canonical prefix header and groups triples
    by subject with ``;``/``,`` continuation, deterministically ordered.
    """
    lines = [f"@prefix {prefix}: <{NAMESPACES[prefix]}> ." for prefix in sorted(NAMESPACES)]
    lines.append("")

    by_subject: dict[Iri, dict[Iri, list]] = {}
    for t in graph:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)

    for subject in sorted(by_subject, key=_render_iri):
        predicates = sorted(by_subject[subject], key=_predicate_order)
        block: list[str] = []
        for p_index, predicate in enumerate(predicates):
            p_token = "a" if predicate == RDF_TYPE else _render_iri(predicate)
            objects = sorted(by_subject[subject][predicate], key=_render_term)
            for o_index, obj in enumerate(objects):
                lead = f"{_render_iri(subject)} {p_token} " if p_index == 0 and o_index == 0 else (
                    f"    {p_token} " if o_index == 0 else "        ")
                last_object = o_index == len(objects) - 1
                last_predicate = p_index == len(predicates) - 1
                if not last_object:
                    tail = ","
                elif not last_predicate:
                    tail = " ;"
                else:
                    tail = " ."
                block.append(f"{lead}{_render_term(obj)}{tail}")
        lines.extend(block)
        lines.append("")

    text = "\n".join(lines).rstrip("\n") + "\n"
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # only a surrogate cannot be encoded
        raise TurtleError(
            f"cannot write surrogate code point U+{ord(exc.object[exc.start]):04X}") from None
