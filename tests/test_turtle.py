import gc
import re
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from scholarkg.document import DocumentModel, Excerpt, Paragraph, Section, Sentence
from scholarkg.embedding import HashedBagOfWordsEmbedder
from scholarkg.ingest import emit_rdf, link_graph
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
    _parse,
    load_turtle,
    save_turtle,
)

import reference_reader
import reference_writer

EXCERPT_NODE = iri("askg-data:Excerpt-33387384e82242")


def test_load_excerpt_pair_fixture(fixtures_dir):
    graph = load_turtle((fixtures_dir / "excerpt_pair.ttl").read_bytes())
    assert len(graph) == 12
    assert Triple(EXCERPT_NODE, RDF_TYPE, iri("askg-onto:Excerpt")) in graph
    assert Triple(
        EXCERPT_NODE, iri("askg-onto:wordIndexFrom"),
        Literal("9153", datatype=XSD_INT)) in graph
    label = graph.labels().get(EXCERPT_NODE)
    assert label.language == "en"
    assert label.lexical == "Paper-[''] | Section-['Introduction'] | Excerpt-[9153]-[9155]"
    assert Triple(
        EXCERPT_NODE, iri("askg-onto:mentions"),
        iri("askg-data:AcademicEntity-prepared_data")) in graph


def test_save_load_round_trip_on_fixture(fixtures_dir):
    graph = load_turtle((fixtures_dir / "excerpt_pair.ttl").read_bytes())
    data = save_turtle(graph)
    assert set(load_turtle(data)) == set(graph)
    assert save_turtle(load_turtle(data)) == data


def test_literals_apart_only_in_a_datatype_load_equal_in_either_order():
    first = load_turtle('<urn:s> <urn:p> "x", "x"^^<> .')
    second = load_turtle('<urn:s> <urn:p> "x"^^<>, "x" .')
    assert set(first) == set(second)
    assert set(load_turtle(save_turtle(second))) == set(second)


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
    assert set(load_turtle(data)) == set(graph)


def test_prefixes_are_prebound():
    graph = load_turtle("askg-data:X a askg-onto:Paragraph .")
    assert len(graph) == 1


def test_askg_alias_maps_to_ontology_namespace():
    graph = load_turtle("askg-data:X a askg:Paragraph .")
    ((triple),) = graph
    assert triple.object == iri("askg-onto:Paragraph")


def test_prefix_and_sparql_prefix_directives():
    graph = load_turtle(
        "@prefix ex: <http://example.org/> .\n"
        "PREFIX ex2: <http://example.org/2#>\n"
        "ex:a ex2:b ex:c .\n")
    ((triple),) = graph
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
    ((triple),) = graph
    assert triple.object == Literal(tricky)


def test_unicode_escape():
    ((triple),) = load_turtle('askg-data:X rdfs:label "caf\\u00e9" .')
    assert triple.object.lexical == "café"


def test_full_iris_in_angle_brackets():
    ((triple),) = load_turtle("<http://x.example/s> <http://x.example/p> <http://x.example/o> .")
    assert triple.subject == Iri("http://x.example/s")


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
    assert set(load_turtle(raw)) == set(load_turtle(raw.decode("utf-8")))


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
    # IRIREF forbids U+0000-U+0020 and <>"{}|^`\ ; the line is the character's.
    ('<http://x.example/a b> rdfs:label "x" .',
     TurtleSyntaxError, "character ' ' is not allowed in an IRI", 1),
    ('askg-data:a rdfs:label "x" .\n<http://x.example/a"b> rdfs:label "y" .',
     TurtleSyntaxError, "character '\"' is not allowed in an IRI", 2),
    ('askg-data:a askg-onto:p <http://x.example/\n\na{b> .',
     TurtleSyntaxError, "character '\\n' is not allowed in an IRI", 1),
    ('askg-data:a askg-onto:p <http://x.example/a{b\n\n> .',
     TurtleSyntaxError, "character '{' is not allowed in an IRI", 1),
    ('askg-data:a askg-onto:p\n<urn:a\x00b> .',
     TurtleSyntaxError, "character '\\x00' is not allowed in an IRI", 2),
    ('askg-data:a rdfs:label "x"^^<urn:a^b> .',
     TurtleSyntaxError, "character '^' is not allowed in an IRI", 1),
    ('askg-data:a askg-onto:p <urn:a\\u0041>, <urn:a`b> .',
     TurtleSyntaxError, "character '\\\\' is not allowed in an IRI", 1),
    ('askg-data:a askg-onto:p <urn:a<b> .',
     TurtleSyntaxError, "character '<' is not allowed in an IRI", 1),
    ('\n@prefix ex: <http://x.example/a|b/> .\nex:c rdfs:label "x" .',
     TurtleSyntaxError, "character '|' is not allowed in an IRI", 2),
    ('PREFIX ex: <http://x.example/}/>',
     TurtleSyntaxError, "character '}' is not allowed in an IRI", 1),
    # Such an IRI is reported once the rest of the document has parsed.
    ('<http://x.example/a b> rdfs:label "x" .\nfoo',
     TurtleSyntaxError, "unexpected token 'foo'", 2),
    # A name, IRI or datatype is resolved only after the next token is
    # lexed, and a directive's bare colon is checked after its IRI is lexed,
    # so an error in the next token comes first.
    ("@prefix ex:a <",
     TurtleSyntaxError, "unterminated IRI", 1),
    ("nope:a [ ] .",
     TurtleSyntaxError, "blank nodes and collections are not supported", 1),
    ("askg-data:a nope:p 42 .",
     TurtleSyntaxError, "unexpected character '4'", 1),
    ('askg-data:a rdfs:label "x"^^nope:t foo',
     TurtleSyntaxError, "unexpected token 'foo'", 1),
    ('askg-data:a askg-onto:p nope:o "',
     TurtleSyntaxError, "unterminated string literal", 1),
    ('nope:a\n rdfs:label "x" .',
     UnknownPrefixError, "unknown prefix 'nope'", 1),
    # A string is read with an @lang or ^^pname written right after it, as
    # one token; errors read as if the suffix were tokens of its own.
    ('askg-data:a rdfs:label "x"@en "y"@en .',
     TurtleSyntaxError, "expected DOT, got STRING", 1),
    ('askg-data:a rdfs:label "x"@prefix .',
     TurtleSyntaxError, "expected DOT, got PREFIX_DIRECTIVE", 1),
    ('askg-data:a rdfs:label "y" .\naskg-data:b rdfs:label "x"^^zz:int .',
     UnknownPrefixError, "unknown prefix 'zz'", 2),
    ('askg-data:a rdfs:label "x"^^zz:int [ ] .',
     TurtleSyntaxError, "blank nodes and collections are not supported", 1),
    ('askg-data:a rdfs:label "x"^^xsd:int^^xsd:int .',
     TurtleSyntaxError, "expected DOT, got DTYPE", 1),
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


@pytest.mark.parametrize("character", [" ", '"', "{", "}", "|", "^", "`", "\\", "<",
                                       "\x00", "\x1f", "\n", "\t"])
@pytest.mark.parametrize("position", ["subject", "object", "datatype"])
def test_save_rejects_iri_with_character_iriref_forbids(character, position):
    bad = Iri(f"http://x.example/a{character}b")
    triple = {
        "subject": Triple(bad, RDFS_LABEL, Literal("x")),
        "object": Triple(iri("askg-data:a"), RDF_TYPE, bad),
        "datatype": Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x", datatype=bad)),
    }[position]
    with pytest.raises(TurtleError) as err:
        save_turtle(KnowledgeGraph([triple]))
    assert str(err.value) == f"cannot write IRI {bad.value!r}: it contains {character!r}"


def test_reader_leaves_no_reference_cycle(fixtures_dir):
    # A cycle would keep the document text and the reader's maps alive
    # until the next collection, which raises a cold query's peak memory.
    data = (fixtures_dir / "scholarly_sample.ttl").read_bytes()
    gc.collect()
    gc.disable()
    try:
        graph = load_turtle("@prefix ex: <http://x.example/> .\n" + data.decode("utf-8"))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(graph) > 0


def test_reader_makes_one_term_per_distinct_iri():
    graph = load_turtle(
        "askg-data:a rdfs:label askg-data:b .\n"
        "<https://www.anu.edu.au/onto/scholarly/a> askg-onto:p <https://www.anu.edu.au/onto/scholarly/b> .\n"
        "@prefix askg-data: <http://x.example/> .\n"
        "askg-data:a rdfs:label askg-data:b .\n")
    nodes: dict[Iri, list[Iri]] = {}
    for t in graph:
        for term in (t.subject, t.predicate, t.object):
            nodes.setdefault(term, []).append(term)
    assert {term.value for term in nodes} == {
        NAMESPACES["askg-data"] + "a", NAMESPACES["askg-data"] + "b", "http://x.example/a",
        "http://x.example/b", RDFS_LABEL.value, NAMESPACES["askg-onto"] + "p"}
    for same in nodes.values():
        assert all(term is same[0] for term in same)


def test_reader_makes_one_term_per_distinct_literal_and_one_str_per_tag():
    # Each object sits on its own subject, so deduplication drops no triple.
    objects = ['"x"@en', '"x" @en', '"\\u0078"@en', '"y"@en', '"x"@en-GB', '"x"@EN',
               '"1"^^xsd:int', '"1" ^^ <http://www.w3.org/2001/XMLSchema#int>', '"2"^^xsd:int',
               '"1"^^xsd:string', '"1"', '"1"', '"x"', '"\\"x"@en', '"\\"x" @en']
    text = "".join(f"askg-data:s{i} rdfs:label {o} .\n" for i, o in enumerate(objects))
    graph = load_turtle(text)
    assert set(graph) == set(reference_reader._parse(text))
    literal_of = {t.subject.value.rsplit("s", 1)[1]: t.object for t in graph}
    read = [literal_of[str(i)] for i in range(len(objects))]
    same = [(0, 1, 2), (6, 7), (10, 11), (13, 14)]
    for group in same:
        assert all(read[i] is read[group[0]] for i in group)
    firsts = [read[i] for i in range(len(objects)) if not any(i in g[1:] for g in same)]
    assert len(set(firsts)) == len(firsts) == 10  # apart in lexical form, tag or datatype
    assert read[3].language is read[0].language is read[13].language
    assert read[4].language == "en-GB" and read[5].language == "EN"


@pytest.mark.parametrize("language", ["en US", "", "en-", "-en", "1en", "en--us", "prefix"])
def test_save_rejects_language_tag_the_reader_cannot_read(language):
    graph = KnowledgeGraph([Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x", language=language))])
    with pytest.raises(TurtleError, match="language tag"):
        save_turtle(graph)


def test_language_tag_starting_with_prefix_round_trips():
    graph = KnowledgeGraph([Triple(iri("askg-data:a"), RDFS_LABEL,
                                   Literal("x", language="prefixes"))])
    assert set(load_turtle(save_turtle(graph))) == set(graph)


@pytest.mark.parametrize("triple", [
    Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x\ud800")),
    Triple(Iri("http://x.example/\udc00"), RDFS_LABEL, Literal("x")),
    Triple(iri("askg-data:a"), RDFS_LABEL, Literal("x", datatype=Iri("urn:\udbff"))),
])
def test_save_rejects_surrogates(triple):
    with pytest.raises(TurtleError, match="surrogate code point"):
        save_turtle(KnowledgeGraph([triple]))


@pytest.mark.parametrize("triples, message", [
    ([Triple(Literal("x"), RDFS_LABEL, Literal("y"))], "cannot write literal 'x' as a subject"),
    ([Triple(iri("askg-data:a"), Literal("p"), Literal("y"))],
     "cannot write literal 'p' as a predicate"),
    # subjects are rendered first, in input order
    ([Triple(Iri("urn:a b"), RDFS_LABEL, Literal("y")),
      Triple(Literal("x"), RDFS_LABEL, Literal("y"))],
     "cannot write IRI 'urn:a b': it contains ' '"),
    ([Triple(Literal("x"), RDFS_LABEL, Literal("y")),
      Triple(Iri("urn:a b"), RDFS_LABEL, Literal("y"))],
     "cannot write literal 'x' as a subject"),
    ([Triple(iri("askg-data:a"), RDFS_LABEL, Literal("y", language="en US")),
      Triple(Literal("x", language="en US"), RDFS_LABEL, Literal("y"))],
     "cannot write literal 'x' as a subject"),
    # then a subject's predicates, in the order first seen, before its objects
    ([Triple(iri("askg-data:a"), Iri("urn:p|"), Literal("y")),
      Triple(iri("askg-data:a"), Literal("p"), Literal("y"))],
     "cannot write IRI 'urn:p|': it contains '|'"),
    ([Triple(iri("askg-data:a"), Literal("p"), Iri("urn:o{")),
      Triple(iri("askg-data:a"), Iri("urn:p|"), Literal("y"))],
     "cannot write literal 'p' as a predicate"),
])
def test_save_rejects_literal_subjects_and_predicates_in_render_order(triples, message):
    # the reader would refuse them: a subject or predicate must be an IRI
    with pytest.raises(TurtleError) as err:
        save_turtle(KnowledgeGraph(triples))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

_FRAGMENTS = st.sampled_from([
    "askg-data:a", "rdfs:label", "ex:", "a", "PREFIX", "@prefix", "<http://x/>", "<", ">",
    '"', '"x"', "\\", "\\u", "00e9", "\\q", "\n", " ", "\t", "\x0c", "#", ".", ";", ",",
    "^^", "@en", "@", "[", "(", "_:b", "xsd:int", "é", "foo", "42", ":",
    '"x"@en', '"x"@prefix', '"x"^^xsd:int', '"x"^^zz:t', '"x"^^xsd:',
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
    st.text(st.one_of(st.sampled_from(' \n\x00<>"{}|^`\\'), st.characters(codec="utf-8")),
            max_size=8),
)
# What IRIREF forbids between < and >; no name the writer can prefix holds one.
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
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
    """Saving either round-trips or refuses a language tag or IRI it cannot write."""
    unwritable = [t.object.language for t in graph
                  if isinstance(t.object, Literal) and t.object.language is not None
                  and not _writable_language(t.object.language)]
    iris = [term for t in graph
            for term in (t.subject, t.predicate, t.object,
                         t.object.datatype if isinstance(t.object, Literal) else None)
            if isinstance(term, Iri)]
    unwritable += [term for term in iris if _IRI_FORBIDDEN.search(term.value)]
    if unwritable:
        with pytest.raises(TurtleError, match="language tag|cannot write IRI"):
            save_turtle(graph)
        return
    data = save_turtle(graph)
    assert set(load_turtle(data)) == set(graph)
    assert save_turtle(load_turtle(data)) == data


def read_outcome(parse, text: str) -> tuple:
    try:
        return ("triples", parse(text))
    except TurtleError as exc:
        return (type(exc), str(exc), exc.line)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_FRAGMENTS | st.text(max_size=2)).map("".join)))
@example('askg-data:a nope:p "\\ud800" .')
@example("@prefixes ex: <urn:x> .")
@example("askg-data:a ab <urn:x> ; PreFix1 .")
def test_reader_reads_like_the_reference_reader(text):
    """Equal triples, or the same error type, message and line, as the
    reader that lexed in a generator ahead of the parser."""
    assert read_outcome(_parse, text) == read_outcome(reference_reader._parse, text)


def _rewrite(text: str, rnd) -> str:
    """The same graph written another way: ``PREFIX`` directives, ``;`` and
    ``,`` lists laid out differently, trailing semicolons, comments and
    other whitespace, also before a literal's ``@lang`` or ``^^`` and after
    its ``^^``. Only separators outside strings and IRIs are touched:
    the writer escapes every newline in a string and writes no IRI with
    whitespace."""
    header, blank, body = text.partition("\n\n")

    def spaced_suffix(m: re.Match) -> str:
        if not m[2]:
            return m[0]
        after = rnd.choice(["", " ", "#^^\n"]) if m[2] == "^^" else ""
        return m[1] + rnd.choice(["", "", " ", "\t", " # c\n"]) + m[2] + after

    body = re.sub(r'("(?:[^"\\\n]|\\.)*")(@|\^\^)?', spaced_suffix, body)  # each string
    header = re.sub(r"^@prefix (\S+) (<[^>]*>) \.$",
                    lambda m: rnd.choice([m[0], f"PREFIX {m[1]} {m[2]}", f"prefix {m[1]}{m[2]}",
                                          f"@prefix {m[1]}{m[2]}."]),
                    header, flags=re.M)
    body = re.sub(r" ;\n    ", lambda m: rnd.choice([m[0], ";", " ; ", ";\t", " ;# c\n"]), body)
    body = re.sub(r",\n        ", lambda m: rnd.choice([m[0], ",", " , ", ",#,\r\n"]), body)
    body = re.sub(r" \.\n", lambda m: rnd.choice([m[0], ".", " ; .", ";.\n", " .# .\n"]), body)
    return re.sub(r"\n", lambda m: rnd.choice(["\n", "\r\n", "\n# a comment\n", "\n \t\n"]),
                  header + blank + body)


_WRITABLE_IRIS = _IRIS.filter(lambda node: not _IRI_FORBIDDEN.search(node.value))
_WRITABLE_GRAPHS = st.lists(st.builds(
    Triple, _WRITABLE_IRIS, st.one_of(st.just(RDF_TYPE), _WRITABLE_IRIS),
    st.one_of(_WRITABLE_IRIS,
              st.builds(Literal, _LEXICALS),
              st.builds(Literal, _LEXICALS, language=_LANGUAGES.filter(_writable_language)),
              st.builds(Literal, _LEXICALS, datatype=_WRITABLE_IRIS))),
    max_size=6).map(KnowledgeGraph)


@settings(max_examples=100, deadline=None)
@given(_WRITABLE_GRAPHS, st.randoms(use_true_random=False))
def test_reader_reads_rewritten_saves_like_the_reference_reader(graph, rnd):
    text = _rewrite(save_turtle(graph).decode("utf-8"), rnd)
    outcome = read_outcome(_parse, text)
    assert outcome == read_outcome(reference_reader._parse, text)
    assert outcome[0] == "triples" and set(outcome[1]) == set(graph)


def save_outcome(writer, graph) -> tuple:
    try:
        return ("bytes", writer(graph))
    except TurtleError as exc:
        return (type(exc), str(exc))


_SHARED_TERMS = st.lists(st.one_of(_IRIS, _LITERALS), min_size=1, max_size=4)
_LONG = "a lexical form longer than the strategies draw " * 8


@settings(max_examples=150, deadline=None)
@given(_SHARED_TERMS.flatmap(lambda terms: st.lists(st.builds(
    Triple, st.sampled_from([t for t in terms if isinstance(t, Iri)] or [RDF_TYPE]),
    st.sampled_from([RDF_TYPE, RDFS_LABEL, *(t for t in terms if isinstance(t, Iri))]),
    st.sampled_from(terms)), max_size=8).map(KnowledgeGraph)))
@example(KnowledgeGraph([
    Triple(Iri("urn:z"), RDFS_LABEL, Literal("x", language="en US")),
    Triple(Iri("urn:a"), Iri("urn:p|"), Literal("x", datatype=Iri("urn:d>"))),
    Triple(Iri("urn:a"), RDF_TYPE, Iri("urn:o{")),
]))
# long lexical forms, without and with each character the writer escapes
@example(KnowledgeGraph([
    Triple(Iri(f"urn:s{i}"), RDFS_LABEL, literal)
    for i, character in enumerate(["", "\\", '"', "\n", "\r", "\t", '\\"\n\r\t'])
    for literal in (Literal(_LONG + character + _LONG), Literal(character + _LONG, language="en"),
                    Literal(_LONG + character, datatype=XSD_INT))]))
# an unwritable datatype IRI, reached after a writable one
@example(KnowledgeGraph([
    Triple(Iri("urn:b"), RDFS_LABEL, Literal("y", datatype=Iri("urn:d>"))),
    Triple(Iri("urn:a"), RDFS_LABEL, Literal("x", datatype=XSD_INT)),
    Triple(Iri("urn:a"), RDFS_LABEL, Literal("y", datatype=Iri("urn:d d"))),
]))
# one predicate shared by many subjects, some of them typed
@example(KnowledgeGraph(
    [Triple(Iri(f"urn:s{i}"), Iri("urn:p"), Iri(f"urn:o{i % 3}")) for i in range(12)]
    + [Triple(Iri(f"urn:s{i}"), RDF_TYPE, Iri("urn:T")) for i in range(0, 12, 2)]))
# two literals with the same bad language tag
@example(KnowledgeGraph([
    Triple(Iri("urn:b"), RDFS_LABEL, Literal("x", language="en US")),
    Triple(Iri("urn:a"), RDFS_LABEL, Literal("y", language="en")),
    Triple(Iri("urn:a"), RDFS_LABEL, Literal("z", language="en US")),
]))
def test_save_turtle_renders_like_a_render_per_use_writer(graph):
    """Same bytes, or the same first unwritable term, as a writer that
    renders every term at each use; the terms recur across triples."""
    assert save_outcome(save_turtle, graph) == save_outcome(reference_writer.save_turtle, graph)


def test_save_turtle_writes_the_sample_and_a_linked_graph_like_the_reference(sample_graph):
    assert save_turtle(sample_graph) == reference_writer.save_turtle(sample_graph)
    model = DocumentModel("d", None, (Section("1", "H", (
        Paragraph("Paper-d-Paragraph-a", (Sentence("Apache Tika extracts text."),)),
        Paragraph("Paper-d-Paragraph-b", (Sentence("Mel reads the database."),)))),))
    excerpts = [Excerpt(f"Excerpt-{i}", "label", sentence, "tika", 0, 1)
                for i, sentence in enumerate(["Tika extracts text.", "Mel reads.",
                                              "Tika extracts text."])]
    linked, links = link_graph(emit_rdf(model), excerpts, HashedBagOfWordsEmbedder(), 0.0)
    # the repeated sentence links each of its excerpts to the same paragraph
    assert [(link.excerpt_id, link.paragraph_id) for link in links] == [
        ("Excerpt-0", "Paper-d-Paragraph-a"), ("Excerpt-1", "Paper-d-Paragraph-b"),
        ("Excerpt-2", "Paper-d-Paragraph-a")]
    assert links[0].similarity == links[2].similarity
    assert save_turtle(linked) == reference_writer.save_turtle(linked)
