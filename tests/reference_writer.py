"""The Turtle writer as it was before it rendered each term, tag and
predicate head once per call.

The renderers are kept verbatim, with the constants they read and the
canonical-namespace lookup that ``Iri.prefixed`` did, and
``save_turtle`` renders every term at each use, in the order the writer
uses it. It is the reference that the writer differentials in
``test_turtle.py`` compare ``scholarkg.kg.turtle.save_turtle`` against:
on every graph whose subjects and predicates are IRIs, both must give the
same bytes, or a ``TurtleError`` with the same message.
"""

import re

from scholarkg.kg.terms import Iri, NAMESPACES, RDF_TYPE, RDFS_LABEL
from scholarkg.kg.turtle import TurtleError

_LOCAL_NAME = r"[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?"
_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_SAFE_LOCAL = re.compile(_LOCAL_NAME)
_SAFE_LANGTAG = re.compile(_LANGTAG)
_STRING_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
# What W3C IRIREF forbids between ``<`` and ``>``.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _prefixed(node: Iri) -> tuple[str, str] | None:
    """(prefix, local) under the canonical namespaces, if any."""
    for prefix, ns in NAMESPACES.items():
        if node.value.startswith(ns) and len(node.value) > len(ns):
            return prefix, node.value[len(ns):]
    return None


def _render_iri(node: Iri) -> str:
    prefixed = _prefixed(node)
    if prefixed is not None:
        prefix, local = prefixed
        if _SAFE_LOCAL.fullmatch(local):
            return f"{prefix}:{local}"
    bad = _IRI_FORBIDDEN.search(node.value)
    if bad:
        raise TurtleError(f"cannot write IRI {node.value!r}: it contains {bad[0]!r}")
    return f"<{node.value}>"


def _render_literal(literal) -> str:
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
    rank = 0 if predicate == RDF_TYPE else 1 if predicate == RDFS_LABEL else 2
    return (rank, _render_iri(predicate))


def save_turtle(graph) -> bytes:
    """The canonical bytes, every term rendered at each use."""
    lines = [f"@prefix {prefix}: <{NAMESPACES[prefix]}> ." for prefix in sorted(NAMESPACES)]
    lines.append("")
    by_subject = {}
    for t in graph:
        by_subject.setdefault(t.subject, {}).setdefault(t.predicate, []).append(t.object)
    for subject in sorted(by_subject, key=_render_iri):
        predicates = by_subject[subject]
        body = " ;\n    ".join(
            ("a" if predicate == RDF_TYPE else _render_iri(predicate)) + " "
            + ",\n        ".join(sorted(map(_render_term, predicates[predicate])))
            for predicate in sorted(predicates, key=_predicate_order))
        lines.append(f"{_render_iri(subject)} {body} .\n")
    text = "\n".join(lines).rstrip("\n") + "\n"
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:  # only a surrogate cannot be encoded
        raise TurtleError(
            f"cannot write surrogate code point U+{ord(exc.object[exc.start]):04X}") from None
