import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.terms import (
    Iri,
    Literal,
    NAMESPACES,
    RDFS_LABEL,
    RDF_TYPE,
    Triple,
    XSD_INT,
    iri,
)
from scholarkg.kg.turtle import (
    TurtleError,
    TurtleSyntaxError,
    UnknownPrefixError,
    load_turtle,
    save_turtle,
)

EXCERPT_NODE = iri("askg-data:Excerpt-33387384e82242")


def test_load_excerpt_pair_fixture(fixtures_dir):
    graph = load_turtle((fixtures_dir / "excerpt_pair.ttl").read_bytes())
    assert len(graph) == 12
    assert Triple(EXCERPT_NODE, RDF_TYPE, iri("askg-onto:Excerpt")) in graph
    assert Triple(
        EXCERPT_NODE, iri("askg-onto:wordIndexFrom"),
        Literal("9153", datatype=XSD_INT)) in graph
    label = graph.label_of(EXCERPT_NODE)
    assert label.language == "en"
    assert label.lexical == "Paper-[''] | Section-['Introduction'] | Excerpt-[9153]-[9155]"
    assert Triple(
        EXCERPT_NODE, iri("askg-onto:mentions"),
        iri("askg-data:AcademicEntity-prepared_data")) in graph


def test_save_load_round_trip_on_fixture(fixtures_dir):
    graph = load_turtle((fixtures_dir / "excerpt_pair.ttl").read_bytes())
    data = save_turtle(graph)
    assert load_turtle(data) == graph
    assert save_turtle(load_turtle(data)) == data


def test_canonical_block_bytes():
    graph = load_turtle(
        "askg-data:Excerpt-33387384e82242 a askg-onto:Excerpt ;\n"
        "    askg-onto:wordIndexTo \"9155\"^^xsd:int ;\n"
        "    askg-onto:wordIndexFrom \"9153\"^^xsd:int ;\n"
        "    askg-onto:mentions askg-data:AcademicEntity-prepared_data ;\n"
        "    rdfs:label \"An excerpt\"@en .\n")
    expected = (
        "@prefix askg-data: <https://www.anu.edu.au/onto/scholarly/> .\n"
        "@prefix askg-onto: <https://www.anu.edu.au/onto/scholarly#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        "\n"
        "askg-data:Excerpt-33387384e82242 a askg-onto:Excerpt ;\n"
        "    rdfs:label \"An excerpt\"@en ;\n"
        "    askg-onto:mentions askg-data:AcademicEntity-prepared_data ;\n"
        "    askg-onto:wordIndexFrom \"9153\"^^xsd:int ;\n"
        "    askg-onto:wordIndexTo \"9155\"^^xsd:int .\n"
    )
    assert save_turtle(graph).decode("utf-8") == expected


@pytest.mark.parametrize("lexical, written", [
    ("back\\slash", b'"back\\\\slash"'),
    ('say "hi"', b'"say \\"hi\\""'),
    ("line\nbreak", b'"line\\nbreak"'),
    ("carriage\rreturn", b'"carriage\\rreturn"'),
    ("tab\there", b'"tab\\there"'),
    ("vertical\x0btab", b'"vertical\x0btab"'),
    ("grin \U0001F600", b'"grin \xf0\x9f\x98\x80"'),
    ("\\\"\n\r\t", b'"\\\\\\"\\n\\r\\t"'),
])
def test_save_escapes_literal_characters(lexical, written):
    graph = KnowledgeGraph([Triple(iri("askg-data:X"), RDFS_LABEL, Literal(lexical))])
    data = save_turtle(graph)
    assert data.split(b"\n\n", 1)[1] == b"askg-data:X rdfs:label " + written + b" .\n"
    assert load_turtle(data) == graph


def test_prefixes_are_prebound():
    graph = load_turtle("askg-data:X a askg-onto:Paragraph .")
    assert len(graph) == 1


def test_askg_alias_maps_to_ontology_namespace():
    graph = load_turtle("askg-data:X a askg:Paragraph .")
    ((triple),) = graph.triples
    assert triple.object == iri("askg-onto:Paragraph")


def test_prefix_and_sparql_prefix_directives():
    graph = load_turtle(
        "@prefix ex: <http://example.org/> .\n"
        "PREFIX ex2: <http://example.org/2#>\n"
        "ex:a ex2:b ex:c .\n")
    ((triple),) = graph.triples
    assert triple.subject == Iri("http://example.org/a")
    assert triple.predicate == Iri("http://example.org/2#b")


def test_at_prefix_requires_terminating_dot():
    with pytest.raises(TurtleSyntaxError):
        load_turtle("@prefix ex: <http://example.org/>\nex:a ex:b ex:c .")


def test_object_lists_and_predicate_lists():
    graph = load_turtle(
        "askg-data:P askg-onto:hasExcerpt askg-data:E1, askg-data:E2 ;\n"
        "    rdfs:label \"text\"@en .\n")
    assert len(graph) == 3


def test_string_escapes_round_trip():
    tricky = 'He said "hi"\\there\nnewline\ttab'
    graph = load_turtle(save_turtle(
        load_turtle('askg-data:X rdfs:label "He said \\"hi\\"\\\\there\\nnewline\\ttab" .')))
    ((triple),) = graph.triples
    assert triple.object == Literal(tricky)


def test_unicode_escape():
    graph = load_turtle('askg-data:X rdfs:label "caf\\u00e9" .')
    assert graph.triples[0].object.lexical == "café"


def test_full_iris_in_angle_brackets():
    graph = load_turtle("<http://x.example/s> <http://x.example/p> <http://x.example/o> .")
    assert graph.triples[0].subject == Iri("http://x.example/s")


def test_unknown_prefix_reports_prefix_and_line():
    with pytest.raises(UnknownPrefixError) as err:
        load_turtle("askg-data:a rdfs:label \"x\" .\nnope:a rdfs:label \"y\" .")
    assert err.value.prefix == "nope"
    assert err.value.line == 2


def test_blank_nodes_are_rejected():
    with pytest.raises(TurtleSyntaxError, match="not supported"):
        load_turtle("askg-data:a askg-onto:p [ askg-onto:q askg-data:b ] .")


def test_collections_are_rejected():
    with pytest.raises(TurtleSyntaxError, match="not supported"):
        load_turtle("askg-data:a askg-onto:p (askg-data:b) .")


def test_bare_numeric_literals_are_rejected():
    with pytest.raises(TurtleSyntaxError):
        load_turtle("askg-data:a askg-onto:p 42 .")


def test_comments_are_ignored():
    graph = load_turtle(
        "# leading comment\n"
        "askg-data:a rdfs:label \"x\" . # trailing comment\n")
    assert len(graph) == 1


def test_missing_final_dot_is_an_error():
    with pytest.raises(TurtleSyntaxError):
        load_turtle('askg-data:a rdfs:label "x"')


def test_save_orders_subjects_predicates_and_objects():
    shuffled = load_turtle(
        "askg-data:B rdfs:label \"b\" .\n"
        "askg-data:A askg-onto:hasExcerpt askg-data:E2 .\n"
        "askg-data:A askg-onto:hasExcerpt askg-data:E1 .\n"
        "askg-data:A a askg-onto:Paragraph .\n"
        "askg-data:A rdfs:label \"a\" .\n")
    text = save_turtle(shuffled).decode("utf-8")
    body = text.split("\n\n", 1)[1]
    assert body.index("askg-data:A") < body.index("askg-data:B")
    block = body.split("\n\n")[0]
    lines = block.splitlines()
    assert lines[0] == "askg-data:A a askg-onto:Paragraph ;"
    assert lines[1] == '    rdfs:label "a" ;'
    assert lines[2] == "    askg-onto:hasExcerpt askg-data:E1,"
    assert lines[3] == "        askg-data:E2 ."


def test_iris_outside_canonical_namespaces_render_in_angle_brackets():
    graph = load_turtle("<http://x.example/s> rdfs:label \"x\" .")
    assert "<http://x.example/s>" in save_turtle(graph).decode("utf-8")


def test_load_accepts_bytes_and_str(fixtures_dir):
    raw = (fixtures_dir / "excerpt_pair.ttl").read_bytes()
    assert load_turtle(raw) == load_turtle(raw.decode("utf-8"))


# Every way the reader rejects input: (input, error class, message, line).
READER_ERRORS = [
    ("askg-data:a askg-onto:p [ askg-onto:q askg-data:b ] .",
     TurtleSyntaxError, "blank nodes and collections are not supported", 1),
    ("askg-data:a askg-onto:p\n  ( askg-data:b ) .",
     TurtleSyntaxError, "blank nodes and collections are not supported", 2),
    ("_:b askg-onto:p askg-data:c .",
     TurtleSyntaxError, "blank nodes and collections are not supported", 1),
    ('askg-data:a rdfs:label "x" .\n<http://x.example/s rdfs:label "y" .',
     TurtleSyntaxError, "unterminated IRI", 2),
    ("<http://x.example/\n\ns> rdfs:label [ ] .",
     TurtleSyntaxError, "blank nodes and collections are not supported", 3),
    ('askg-data:a rdfs:label "open',
     TurtleSyntaxError, "unterminated string literal", 1),
    ('# comment\naskg-data:a rdfs:label "open\n" .',
     TurtleSyntaxError, "unterminated string literal", 2),
    ('askg-data:a rdfs:label "\\',
     TurtleSyntaxError, "dangling escape in string literal", 1),
    ('askg-data:a rdfs:label "\\u12" .',
     TurtleSyntaxError, "invalid \\u escape", 1),
    ('askg-data:a rdfs:label "\\u12 \\q',
     TurtleSyntaxError, "invalid \\u escape", 1),
    ('askg-data:a rdfs:label "\\q',
     TurtleSyntaxError, "unsupported escape \\q", 1),
    ('askg-data:a rdfs:label "\\q \\u12',
     TurtleSyntaxError, "unsupported escape \\q", 1),
    ('askg-data:a rdfs:label "x\\\n" .',
     TurtleSyntaxError, "unsupported escape \\\n", 1),
    ('askg-data:a rdfs:label "x"@] .',
     TurtleSyntaxError, "malformed @ token", 1),
    ("askg-data:a rdfs:label foo .",
     TurtleSyntaxError, "unexpected token 'foo'", 1),
    ("askg-data:a askg-onto:p 42 .",
     TurtleSyntaxError, "unexpected character '4'", 1),
    ('askg-data:a\x0crdfs:label "x" .',
     TurtleSyntaxError, "unexpected character '\\x0c'", 1),
    ('askg-data:a\nrdfs:label\x0b"x" .',
     TurtleSyntaxError, "unexpected character '\\x0b'", 2),
    ("@prefix ex: <http://example.org/>\nex:a ex:b ex:c .",
     TurtleSyntaxError, "expected DOT, got PNAME", 2),
    ("@prefix <http://example.org/> .",
     TurtleSyntaxError, "expected PNAME, got IRIREF", 1),
    ('askg-data:a rdfs:label "x"\n',
     TurtleSyntaxError, "expected DOT, got EOF", 2),
    ("@prefix ex:a <http://example.org/> .",
     TurtleSyntaxError, "prefix declaration must end with a bare colon", 1),
    ('askg-data:a "x" "y" .',
     TurtleSyntaxError, "expected an IRI or prefixed name, got STRING", 1),
    ('askg-data:a rdfs:label "y" .\nnope:a rdfs:label "y" .',
     UnknownPrefixError, "unknown prefix 'nope'", 2),
    (b'askg-data:a rdfs:label "x" .\n"\xff" .',
     TurtleSyntaxError, "invalid UTF-8", 2),
    ('askg-data:a rdfs:label "x" .\naskg-data:b rdfs:label "\\ud800" .',
     TurtleSyntaxError, "\\u escape of a surrogate code point", 2),
    ('askg-data:a rdfs:label "x" .\n\n<http://x.example/\udfff> rdfs:label "y" .',
     TurtleSyntaxError, "surrogate code point U+DFFF", 3),
]


@pytest.mark.parametrize("data, error, message, line", READER_ERRORS)
def test_reader_error_contract(data, error, message, line):
    with pytest.raises(TurtleError) as err:
        load_turtle(data)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (line {line})"
    assert err.value.line == line


def test_save_rejects_iri_with_closing_angle_bracket():
    graph = KnowledgeGraph([Triple(Iri(NAMESPACES["askg-data"] + "x>y"), RDFS_LABEL, Literal("x"))])
    with pytest.raises(TurtleError, match="'>'"):
        save_turtle(graph)


@pytest.mark.parametrize("language", ["en US", "", "en-", "-en", "1en", "en--us", "prefix"])
def test_save_rejects_language_tag_the_reader_cannot_read(language):
    graph = KnowledgeGraph([Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x", language=language))])
    with pytest.raises(TurtleError, match="language tag"):
        save_turtle(graph)


def test_language_tag_starting_with_prefix_round_trips():
    graph = KnowledgeGraph([Triple(iri("askg-data:a"), RDFS_LABEL,
                                   Literal("x", language="prefixes"))])
    assert load_turtle(save_turtle(graph)) == graph


@pytest.mark.parametrize("triple", [
    Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x\ud800")),
    Triple(Iri("http://x.example/\udc00"), RDFS_LABEL, Literal("x")),
    Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x", datatype=Iri("urn:\udbff"))),
])
def test_save_rejects_surrogates(triple):
    with pytest.raises(TurtleError, match="surrogate code point"):
        save_turtle(KnowledgeGraph([triple]))


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

_FRAGMENTS = st.sampled_from([
    "askg-data:a", "rdfs:label", "ex:", "a", "PREFIX", "@prefix", "<http://x/>", "<", ">",
    '"', '"x"', "\\", "\\u", "00e9", "\\q", "\n", " ", "\t", "\x0c", "#", ".", ";", ",",
    "^^", "@en", "@", "[", "(", "_:b", "xsd:int", "é", "foo", "42", ":",
])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), st.lists(_FRAGMENTS | st.text(max_size=2)).map("".join)))
def test_reader_raises_only_turtle_errors(text):
    try:
        load_turtle(text)
    except TurtleError:
        pass


_LOCALS = st.one_of(
    st.sampled_from(["0\n", "Excerpt-1", "a.b", "a.", "_x-", "AcademicEntity-prepared_data"]),
    st.text(st.characters(codec="utf-8", exclude_characters=">"), max_size=8),
)
_IRIS = st.builds(
    lambda ns, local: Iri(ns + local),
    st.sampled_from([*NAMESPACES.values(), "http://x.example/", "urn:"]), _LOCALS)
_LEXICALS = st.text(st.one_of(st.sampled_from('"\\\n\r\t'), st.characters(codec="utf-8")), max_size=12)
_LANGUAGES = st.one_of(
    st.builds(
        lambda primary, subtags: "-".join([primary, *subtags]),
        st.text(st.sampled_from(string.ascii_letters), min_size=1, max_size=3),
        st.lists(st.text(st.sampled_from(string.ascii_letters + string.digits),
                         min_size=1, max_size=3),
                 max_size=2)),
    st.sampled_from(["", "en US", "prefix", "prefixes", "en-", "1en"]),
    st.text(st.sampled_from(string.ascii_letters + string.digits + "- @."), max_size=6),
    st.text(max_size=4),
)
# What the reader reads as a language tag (``@prefix`` is the directive).
_LANGTAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")


def _writable_language(language: str) -> bool:
    return bool(_LANGTAG.fullmatch(language)) and language != "prefix"

_LITERALS = st.one_of(
    st.builds(Literal, _LEXICALS),
    st.builds(Literal, _LEXICALS, language=_LANGUAGES),
    st.builds(Literal, _LEXICALS, datatype=_IRIS),
)
_GRAPHS = st.lists(st.builds(Triple, _IRIS, st.one_of(st.just(RDF_TYPE), _IRIS),
                             st.one_of(_IRIS, _LITERALS)), max_size=6).map(KnowledgeGraph)


@settings(max_examples=150, deadline=None)
@given(_GRAPHS)
@example(KnowledgeGraph([Triple(Iri(NAMESPACES["askg-data"] + "0\n"), RDFS_LABEL, Literal("x"))]))
def test_save_load_round_trip_on_generated_graphs(graph):
    """Saving either round-trips or refuses a language tag it cannot write."""
    unwritable = [t.object.language for t in graph
                  if isinstance(t.object, Literal) and t.object.language is not None
                  and not _writable_language(t.object.language)]
    if unwritable:
        with pytest.raises(TurtleError, match="language tag"):
            save_turtle(graph)
        return
    data = save_turtle(graph)
    assert load_turtle(data) == graph
    assert save_turtle(load_turtle(data)) == data
