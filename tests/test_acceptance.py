"""Acceptance checks for the shipped guarantees.

Each test exercises one guarantee end to end — against an independent
oracle, a pinned value, or an exhaustive sweep — and prints a single
``ACCEPTANCE <n> <name>: PASS`` or ``FAIL`` line. Output capture hides
those lines, so ``conftest.py`` repeats them in pytest's terminal summary
and a test log doubles as an acceptance report.
"""

import importlib.util
import json
import math
import random
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from scholarkg.baseline import chunk_corpus, chunk_document, retrieve_top_k
from scholarkg.cli import run
from scholarkg.document import Excerpt, Paragraph, Sentence
from scholarkg.embedding import (
    EmbeddingVector,
    HashedBagOfWordsEmbedder,
    cosine_similarities,
)
from scholarkg.evaluation import cronbach_alpha, entity_overlap
from scholarkg.gateway import StubGateway
from scholarkg.ingest import ExcerptLink, link_excerpts
from scholarkg.kg.graph import KnowledgeGraph, keyword_frequency
from scholarkg.kg.patterns import CompoundQuery, TriplePattern, Variable
from scholarkg.kg.terms import (
    EXCERPT,
    HAS_EXCERPT,
    IN_SENTENCE,
    MENTIONS,
    PARAGRAPH,
    RDF_TYPE,
    RDFS_LABEL,
    XSD_INT,
    XSD_STRING,
    Iri,
    Literal,
    Triple,
    iri,
)
from scholarkg.kg.turtle import load_turtle, save_turtle
from scholarkg.qa.context import answer_question
from scholarkg.qa.engine import (
    default_relaxation_dictionary,
    extract_question_patterns,
    match_candidates,
    rank_candidates,
    resolve_query,
)
from scholarkg.qa.relaxation import RelaxationDictionary, relax, relax_set

from anchor_graphs import random_anchor_graph, random_pattern, random_question


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


# ---------------------------------------------------------------------------
# Shared random builders
# ---------------------------------------------------------------------------

NODES = [iri(f"askg-data:AcademicEntity-n{i}") for i in range(6)]
PREDICATES = [iri(f"askg-onto:p{i}") for i in range(3)]


# ---------------------------------------------------------------------------
# 1. Relaxation algebra
# ---------------------------------------------------------------------------

def oracle_relaxation_count(patterns: tuple[TriplePattern, ...],
                            entries: tuple[TriplePattern, ...]) -> int:
    variants: set[tuple[TriplePattern, ...]] = set()
    if len(patterns) >= 2:
        for i in range(len(patterns)):
            variants.add(patterns[:i] + patterns[i + 1:])
    for i, current in enumerate(patterns):
        for entry in entries:
            if entry != current:
                variants.add(patterns[:i] + (entry,) + patterns[i + 1:])
    return len(variants)


def test_01_relaxation_algebra():
    with criterion(1, "relaxation-algebra"):
        rng = random.Random(0xA1)

        def ground_pattern() -> TriplePattern:
            while not (candidate := random_pattern(rng)).has_ground_term:
                pass
            return candidate

        for n in range(1, 5):
            for dictionary_size in range(4):
                for _ in range(5):
                    patterns = []
                    for _ in range(n):
                        if patterns and rng.random() < 0.3:
                            patterns.append(rng.choice(patterns))  # force duplicates
                        else:
                            patterns.append(ground_pattern())
                    dictionary = RelaxationDictionary(tuple(
                        ground_pattern() for _ in range(dictionary_size)))
                    relaxed = relax_set(CompoundQuery(tuple(patterns)), dictionary)
                    assert len(relaxed) == oracle_relaxation_count(
                        tuple(patterns), dictionary.entries)
                    assert len({r.query.patterns for r in relaxed}) == len(relaxed)

        # Deleting a pattern never loses a match.
        matched_cases = widened = 0
        for _ in range(600):
            graph = random_anchor_graph(rng)
            while (query := random_question(rng)).n < 2:
                pass
            matched = match_candidates(graph, query)
            matched_cases += bool(matched)
            for position in range(1, query.n + 1):
                relaxed = match_candidates(graph, relax(query, position))
                assert relaxed >= matched, (query, position)
                widened += relaxed > matched
        # Not vacuous: 140 queries match and 329 deletions widen the match.
        assert matched_cases >= 30 and widened >= 200, (matched_cases, widened)


# ---------------------------------------------------------------------------
# 2. Conjunctive matching
# ---------------------------------------------------------------------------

def words(text: str) -> list[str]:
    return re.findall(r"[a-z0-9]+", text.lower())


def holds_phrase(text: list[str], phrase: list[str]) -> bool:
    return any(text[i:i + len(phrase)] == phrase
               for i in range(len(text) - len(phrase) + 1))


def brute_force_match(graph: KnowledgeGraph, query: CompoundQuery) -> frozenset[Triple]:
    """The phrase matcher restated over a scan of the graph's triples.

    Each Paragraph and each Excerpt node is read from its own edges: the
    least lexical form of its literal labels (plus, for an excerpt, its
    ``inSentence`` texts in lexical order) gives its words; a paragraph
    takes the mentions of the excerpts it links, an excerpt its own. A node
    satisfying every term of every pattern contributes its label, link and
    mention triples.
    """
    triples = list(graph)

    def edges(node, predicate) -> list[Triple]:
        return [t for t in triples if t.subject == node and t.predicate == predicate]

    matched: set[Triple] = set()
    for kind in (PARAGRAPH, EXCERPT):
        for node in [t.subject for t in triples
                     if t.predicate == RDF_TYPE and t.object == kind]:
            labels = edges(node, RDFS_LABEL)
            texts = [min((t.object.lexical for t in labels
                          if isinstance(t.object, Literal)), default="")]
            if kind == PARAGRAPH:
                links = edges(node, HAS_EXCERPT)
                mentions = [m for link in links if isinstance(link.object, Iri)
                            for m in edges(link.object, MENTIONS)]
            else:
                links = []
                mentions = edges(node, MENTIONS)
                texts += sorted(t.object.lexical for t in edges(node, IN_SENTENCE)
                                if isinstance(t.object, Literal))
            text = words(" ".join(texts))
            keys = {m.object.entity_key() for m in mentions}

            def satisfied(term) -> bool:
                return (isinstance(term, Variable) or term in keys
                        or holds_phrase(text, term.split("_")))

            if all(satisfied(term) for pattern in query.patterns for term in pattern.terms):
                matched.update(labels, links, mentions)
    return frozenset(matched)


def test_02_conjunctive_matching():
    with criterion(2, "conjunctive-matching"):
        rng = random.Random(0xB2)
        matched_cases = 0
        for _ in range(200):
            graph = random_anchor_graph(rng)
            for _ in range(5):
                query = random_question(rng)
                expected = brute_force_match(graph, query)
                assert match_candidates(graph, query) == expected, query
                matched_cases += bool(expected)
        # Not vacuous: 334 of the 1000 queries match something.
        assert matched_cases >= 150, matched_cases


# ---------------------------------------------------------------------------
# 3. Turtle fidelity
# ---------------------------------------------------------------------------

def random_literal(rng: random.Random) -> Literal:
    texts = ["plain value", 'quoted "value"', "back\\slash", "tab\there",
             "line\nbreak", "word index"]
    roll = rng.random()
    if roll < 0.25:
        return Literal(rng.choice(texts))
    if roll < 0.5:
        return Literal(rng.choice(texts), language="en")
    if roll < 0.75:
        return Literal(str(rng.randrange(10000)), datatype=XSD_INT)
    return Literal(rng.choice(texts), datatype=XSD_STRING)


def random_turtle_graph(rng: random.Random) -> KnowledgeGraph:
    triples = []
    for _ in range(rng.randrange(1, 40)):
        subject = rng.choice(NODES)
        if rng.random() < 0.3:
            triples.append(Triple(subject, iri("rdf:type"),
                                  iri("askg-onto:Excerpt")))
        elif rng.random() < 0.5:
            triples.append(Triple(subject, rng.choice(PREDICATES),
                                  rng.choice(NODES)))
        else:
            triples.append(Triple(subject, rng.choice(PREDICATES),
                                  random_literal(rng)))
    return KnowledgeGraph(triples)


def test_03_turtle_fidelity(fixtures_dir):
    with criterion(3, "turtle-fidelity"):
        graph = load_turtle((fixtures_dir / "excerpt_pair.ttl").read_bytes())
        assert len(graph) == 12
        objects = {t.object for t in graph if isinstance(t.object, Literal)}
        for value in ("9153", "9155", "5834", "5836"):
            assert Literal(value, datatype=XSD_INT) in objects
        assert any(o.datatype == XSD_STRING and "partition" in o.lexical
                   for o in objects)

        rng = random.Random(0xC3)
        for _ in range(50):
            original = random_turtle_graph(rng)
            data = save_turtle(original)
            reloaded = load_turtle(data)
            assert set(reloaded) == set(original)
            assert save_turtle(reloaded) == data


# ---------------------------------------------------------------------------
# 4. Keyword frequency
# ---------------------------------------------------------------------------

def test_04_keyword_frequency(sample_graph):
    with criterion(4, "keyword-frequency"):
        comparison_text = next(
            t.object.lexical for t in sample_graph
            if isinstance(t.object, Literal)
            and t.subject.local_name().startswith("Paper-")
            and "lightweight Python-based package" in t.object.lexical)
        assert keyword_frequency(comparison_text, ["MEL", "Apache Tika"]) == 5


# ---------------------------------------------------------------------------
# 5. Chunking arithmetic
# ---------------------------------------------------------------------------

def filler(total_tokens: int) -> str:
    return " ".join(f"t{i}" for i in range(total_tokens))


def test_05_chunking_arithmetic():
    with criterion(5, "chunking-arithmetic"):
        for total in range(1, 1001):
            expected = 1 if total <= 100 else 1 + math.ceil((total - 100) / 95)
            assert len(chunk_document("doc", filler(total))) == expected

        corpus = {
            f"doc{i:02d}": filler(5895 if i < 8 else 5800) for i in range(10)
        }
        assert len(chunk_corpus(corpus)) == 618


# ---------------------------------------------------------------------------
# 6. Metrics
# ---------------------------------------------------------------------------

def jaccard_distance(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 0.0
    return entity_overlap(set(a), set(b))[1]


def cronbach_oracle(ratings: list[list[float]]) -> float:
    k = len(ratings[0])

    def sample_variance(xs: list[float]) -> float:
        mean = sum(xs) / len(xs)
        return sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)

    items = sum(sample_variance([row[j] for row in ratings]) for j in range(k))
    total = sample_variance([sum(row) for row in ratings])
    return (k / (k - 1)) * (1.0 - items / total)


def test_06_metrics():
    with criterion(6, "metrics"):
        graph_side = {f"g{i}" for i in range(11)} | {"shared"}
        baseline_side = {f"b{i}" for i in range(10)} | {"shared"}
        ratio, distance = entity_overlap(graph_side, baseline_side)
        assert ratio == pytest.approx(0.0833, abs=1e-4)
        assert distance == pytest.approx(0.9545, abs=1e-4)

        universe = ["a", "b", "c", "d", "e"]
        subsets = [frozenset(x for x, bit in zip(universe, f"{mask:05b}")
                             if bit == "1")
                   for mask in range(32)]
        for a in subsets:
            for b in subsets:
                assert jaccard_distance(a, b) == jaccard_distance(b, a)
                assert (jaccard_distance(a, b) == 0.0) == (a == b)
        for a in subsets:
            for b in subsets:
                ab = jaccard_distance(a, b)
                for c in subsets:
                    assert ab <= jaccard_distance(a, c) + jaccard_distance(c, b) \
                        + 1e-12

        rng = random.Random(0xD6)
        produced = 0
        while produced < 50:
            raters = rng.randrange(2, 7)
            items = rng.randrange(2, 9)
            ratings = [[float(rng.randrange(1, 6)) for _ in range(items)]
                       for _ in range(raters)]
            if len({sum(row) for row in ratings}) == 1:
                continue  # zero total variance: alpha undefined
            produced += 1
            assert cronbach_alpha(ratings) == pytest.approx(
                cronbach_oracle(ratings), abs=1e-9)

        assert cronbach_alpha([[2.0, 5.0, 3.0]] * 4) == 1.0


# ---------------------------------------------------------------------------
# 7. Scoring
# ---------------------------------------------------------------------------

def entity_node(key: str) -> Iri:
    return iri(f"askg-data:AcademicEntity-{key}")


def scored_triple(subject_key: str, object_key: str) -> Triple:
    return Triple(entity_node(subject_key), iri("askg-onto:mentions"),
                  entity_node(object_key))


def oracle_entities(triple: Triple) -> set[str]:
    """The entity keys of a triple: its subject's, and its object's if an IRI."""
    objects = [triple.object] if isinstance(triple.object, Iri) else []
    return {term.entity_key() for term in (triple.subject, *objects)}


def oracle_scores(candidates: set[Triple],
                  query_entities: set[str]) -> dict[str, tuple[int, float]]:
    entities = set()
    for triple in candidates:
        entities |= oracle_entities(triple)
    scores = {}
    for entity in entities:
        containing = [t for t in candidates if entity in oracle_entities(t)]
        co_occurring = set()
        for triple in containing:
            co_occurring |= oracle_entities(triple)
        co_occurring -= {entity}
        purity_value = (len(co_occurring & query_entities) / len(co_occurring)
                        if co_occurring else 0.0)
        scores[entity] = (len(containing), purity_value)
    return scores


def test_07_scoring():
    with criterion(7, "scoring"):
        # hand-enumerated fixture: a-b, a-c, b-c with query entity b
        candidates = [scored_triple("a", "b"), scored_triple("a", "c"),
                      scored_triple("b", "c")]
        by_entity = {r.entity: r for r in rank_candidates(candidates, {"b"})}
        assert (by_entity["a"].frequency, by_entity["a"].purity) == (2, 0.5)
        assert (by_entity["b"].frequency, by_entity["b"].purity) == (2, 0.0)
        assert (by_entity["c"].frequency, by_entity["c"].purity) == (2, 0.5)

        # hand-enumerated fixture: one hub entity with a pure neighbourhood
        candidates = [scored_triple("hub", "q1"), scored_triple("hub", "q2")]
        by_entity = {r.entity: r for r in rank_candidates(candidates, {"q1", "q2"})}
        assert (by_entity["hub"].frequency, by_entity["hub"].purity) == (2, 1.0)
        assert by_entity["hub"].score == 2.0

        keys = [f"e{i}" for i in range(8)]
        rng = random.Random(0xE7)
        for _ in range(20):
            candidates = {
                scored_triple(rng.choice(keys), rng.choice(keys))
                for _ in range(rng.randrange(2, 12))
            }
            query_entities = set(rng.sample(keys, rng.randrange(1, 4)))
            expected = oracle_scores(candidates, query_entities)
            ranking = rank_candidates(candidates, query_entities)
            assert {r.entity: (r.frequency, r.purity) for r in ranking} \
                == expected

        violations = 0
        for _ in range(500):
            candidates = {
                scored_triple(rng.choice(keys), rng.choice(keys))
                for _ in range(rng.randrange(1, 15))
            }
            query_entities = set(rng.sample(keys, 2))
            for ranked in rank_candidates(candidates, query_entities):
                if not 0.0 <= ranked.purity <= 1.0:
                    violations += 1
                if not 1 <= ranked.frequency <= len(candidates):
                    violations += 1
        assert violations == 0

        ordered = [scored_triple(a, b)
                   for a in keys for b in keys if a != b]
        shuffled = ordered[:]
        rng.shuffle(shuffled)
        assert rank_candidates(ordered, {"e1"}) \
            == rank_candidates(shuffled, {"e1"})


# ---------------------------------------------------------------------------
# 8. Linking
# ---------------------------------------------------------------------------

VOCABULARY = ["metadata", "extractor", "loader", "json", "couchdb", "tika",
              "python", "graph", "pipeline", "corpus", "answer", "index"]


def make_paragraph(pid: str, text: str) -> Paragraph:
    return Paragraph(paragraph_id=pid, sentences=(Sentence(text=text),))


def make_excerpt(eid: str, sentence: str) -> Excerpt:
    return Excerpt(excerpt_id=eid, label=eid, in_sentence=sentence,
                   mentions="term", word_index_from=0, word_index_to=1)


def oracle_links(paragraphs, excerpts, embedder, threshold):
    links = []
    for excerpt in excerpts:
        vector = embedder.embed(excerpt.in_sentence)
        best_id, best_similarity = None, -2.0
        for paragraph in sorted(paragraphs, key=lambda p: p.paragraph_id):
            similarity = cosine_similarities((vector,), (embedder.embed(paragraph.text),))[0][0]
            if similarity > best_similarity:
                best_id, best_similarity = paragraph.paragraph_id, similarity
        if best_id is not None and best_similarity >= threshold:
            links.append(ExcerptLink(excerpt.excerpt_id, best_id,
                                     best_similarity))
    return links


def test_08_linking():
    with criterion(8, "linking"):
        embedder = HashedBagOfWordsEmbedder()

        identical = make_paragraph("P-same", "metadata extractor loads json")
        other = make_paragraph("P-other", "graph pipeline answers questions")
        echo = make_excerpt("E-echo", "metadata extractor loads json")
        links = link_excerpts([identical, other], [echo], embedder,
                              threshold=0.7)
        assert [(l.excerpt_id, l.paragraph_id) for l in links] \
            == [("E-echo", "P-same")]
        assert links[0].similarity == pytest.approx(1.0)

        # tokens proven to hash into different buckets, so the cosine is 0
        buckets = {w: HashedBagOfWordsEmbedder.bucket(w, 256)
                   for w in VOCABULARY}
        disjoint_a, disjoint_b = "metadata", "couchdb"
        assert buckets[disjoint_a] != buckets[disjoint_b]
        lonely = make_excerpt("E-lonely", disjoint_b)
        assert link_excerpts([make_paragraph("P-a", disjoint_a)], [lonely],
                             embedder, threshold=0.7) == []

        rng = random.Random(0xF8)

        def random_text() -> str:
            return " ".join(rng.choice(VOCABULARY)
                            for _ in range(rng.randrange(3, 10)))

        for _ in range(30):
            paragraphs = [make_paragraph(f"P-{i}", random_text())
                          for i in range(rng.randrange(2, 6))]
            excerpts = [make_excerpt(f"E-{i}", random_text())
                        for i in range(rng.randrange(1, 5))]
            threshold = rng.choice([0.0, 0.3, 0.5, 0.7, 0.9])
            assert link_excerpts(paragraphs, excerpts, embedder,
                                 threshold=threshold) \
                == oracle_links(paragraphs, excerpts, embedder, threshold)

        paragraphs = [make_paragraph(f"P-{i}", random_text()) for i in range(4)]
        excerpts = [make_excerpt(f"E-{i}", random_text()) for i in range(6)]
        counts = [
            len(link_excerpts(paragraphs, excerpts, embedder,
                              threshold=i / 10))
            for i in range(11)
        ]
        assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# 9. End-to-end determinism
# ---------------------------------------------------------------------------

def test_09_end_to_end_determinism(capsys, fixtures_dir):
    with criterion(9, "end-to-end-determinism"):
        question = ("Which tool is applied to extract text from "
                    "PDF research proposals?")
        argv = ["query", "--graph", str(fixtures_dir / "scholarly_sample.ttl"),
                "--question", question, "--format", "json"]

        outputs = []
        for _ in range(3):
            assert run(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

        payload = json.loads(outputs[0])
        assert "Metadata Extractor & Loader (MEL)" in payload["answer"]
        mel_paragraph = ("https://www.anu.edu.au/onto/scholarly/Paper-"
                         "b6bab9d7b1722e-Paragraph-03cf549aa6336afc40258179c8831eda")
        assert payload["provenance"][0] == mel_paragraph


# ---------------------------------------------------------------------------
# 10. Embedding math
# ---------------------------------------------------------------------------

def test_10_embedding_math():
    with criterion(10, "embedding-math"):
        u = EmbeddingVector.of([1.0, 2.0, 3.0])
        assert cosine_similarities((u,), (EmbeddingVector.of([4.0, 6.0, 6.0]),
                                          EmbeddingVector.of([4.0, 5.0, 6.0]))) \
            == [[pytest.approx(34 / math.sqrt(14 * 88), abs=1e-5),
                 pytest.approx(32 / math.sqrt(14 * 77), abs=1e-5)]]

        embedder = HashedBagOfWordsEmbedder()
        rng = random.Random(0x0A)
        for _ in range(100):
            text = " ".join(f"tok{rng.randrange(1000)}"
                            for _ in range(rng.randrange(1, 10)))
            vector = embedder.embed(text)
            assert cosine_similarities((vector,), (vector,)) == [[pytest.approx(1.0,
                                                                                abs=1e-12)]]

        checked = 0
        index = 0
        while checked < 100:
            a, b = f"left{index}", f"right{index}"
            index += 1
            if HashedBagOfWordsEmbedder.bucket(a, 256) \
                    == HashedBagOfWordsEmbedder.bucket(b, 256):
                continue
            checked += 1
            assert cosine_similarities((embedder.embed(a),), (embedder.embed(b),)) == [[0.0]]


# ---------------------------------------------------------------------------
# 11. Head-to-head grounding on a small benchmark corpus
# ---------------------------------------------------------------------------

def load_bench_generator():
    """The benchmark's input generator, ``bench/gen.py``, imported once
    from its file; it writes nothing until asked to."""
    name = "scholarkg_bench_gen"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / "gen.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module   # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


_D0_QUESTION = re.compile(r"Which (\S+) is (\S+) in (\S+)\?")


@pytest.mark.parametrize("seed", [401, 405, 7])
def test_11_head_to_head_grounding(seed):
    """Where each d0 question's gold paragraph lands, for the graph
    pipeline and for the sliding-window baseline at the same k.

    A d0 question "Which S is V in O?" has one gold paragraph: the one
    holding the planted sentence "S is V in O." with S capitalised,
    unique because V is a fresh word. Only the matcher's recall has a
    floor (every d0 question); the answer's provenance and the
    baseline's top 5 are reported, for the context selection to be
    judged against.
    """
    with criterion(11, f"head-to-head-grounding-seed-{seed}"):
        gen = load_bench_generator()
        corpus = gen.corpus(seed, "cli", 5, gen.CLI_PARAGRAPHS, gen.CLI_BLOCK, 1, gen.CLI_RANKS)
        graph = load_turtle(gen.corpus_turtle(corpus)[0].encode("utf-8"))
        labels = {node: graph.label_of(node).lexical
                  for node in graph.subjects_of_type(PARAGRAPH)}
        chunks = chunk_corpus({paper.key: "\n\n".join(" ".join(s) for _, s in paper.paragraphs())
                               for paper in corpus.papers})
        gateway, embedder = StubGateway(), HashedBagOfWordsEmbedder()

        questions = [q.text for q in corpus.questions if q.kind == "d0"]
        matched = provenance = baseline = 0
        for question in questions:
            s, v, o = _D0_QUESTION.fullmatch(question).groups()
            planted = f"{s.capitalize()} is {v} in {o}."
            [gold] = [node for node, label in labels.items() if planted in label]

            query = extract_question_patterns(question, gateway)
            candidates = resolve_query(graph, query, default_relaxation_dictionary(query))
            matched += any(t.subject == gold for t in candidates.triples)
            answer = answer_question(graph, question, gateway, embedder)
            provenance += gold in (p.node for p in answer.answer.context)
            baseline += any(planted in r.chunk.text
                            for r in retrieve_top_k(chunks, question, 5, embedder))

        n = len(questions)
        print(f"ACCEPTANCE 11 seed {seed}, d0 gold paragraph found in: matched witnesses "
              f"{matched}/{n}, answer provenance {provenance}/{n}, baseline top 5 {baseline}/{n}")
        assert n > 0
        assert matched == n
