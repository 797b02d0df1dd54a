#!/usr/bin/env python3
"""Build the static test fixtures under tests/fixtures/.

The fixtures are committed; this script regenerates them and checks the
numeric claims the tests rely on (link similarities above threshold,
expected paragraph membership of the sample graph).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from scholarkg.document import Excerpt, collect_paragraphs, short_hash
from scholarkg.embedding import HashedBagOfWordsEmbedder, cosine_similarity
from scholarkg.ingest import build_document_model, emit_rdf, link_graph, read_outline_json
from scholarkg.kg.graph import KnowledgeGraph
from scholarkg.kg.turtle import load_turtle, save_turtle

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

DOC1_INTRO = (
    "Scholarly documents hold detailed findings that are hard to search "
    "directly. We build a knowledge graph of paragraphs, excerpts and "
    "mentioned entities from research documents, and answer questions "
    "against it."
)
MEL_SENTENCE = (
    "A Metadata Extractor & Loader (MEL) tool is applied to extract text "
    "from PDF research proposals and save it in a JSON file with metadata "
    "sets and content."
)
COUCHDB_SENTENCE = (
    "By default, all JSON files are stored in CouchDB database based on "
    "the proposal index."
)
DOC1_TEXT = f"""Introduction

{DOC1_INTRO}

Data Extraction

{MEL_SENTENCE}

{COUCHDB_SENTENCE}
"""

DOC2_INTRO = (
    "Our comparison covers packages for text handling in scholarly "
    "settings; the trade-offs shape the extraction stack we adopt."
)
TIKA_SENTENCE_1 = (
    "The most comprehensive and current state-of-the-art tool for content "
    "extraction and analysis is Apache Tika, which is a complete and "
    "complex Java-based general-purpose system."
)
TIKA_SENTENCE_2 = (
    "While MEL core goals resemble the ones of Apache Tika, the main "
    "difference and benefit of MEL as compared to Apache Tika is that it "
    "is a lightweight Python-based package for the metadata extraction of "
    "common file formats aimed to be used in a KGCP."
)
TIKA_PARAGRAPH = f"{TIKA_SENTENCE_1} {TIKA_SENTENCE_2}"
DOC2_TEXT = f"""Background

{DOC2_INTRO}

Content Analysis

{TIKA_SENTENCE_1}
{TIKA_SENTENCE_2}
"""


def outline_of(text: str, headings: list[str]) -> list[dict]:
    entries = []
    for level, heading in headings:
        offset = text.index(heading)
        entries.append({"level": level, "heading": heading, "offset": offset})
    return entries


def excerpt_record(section: str, sentence: str, mentions: str,
                   word_from: int) -> dict:
    word_to = word_from + 2
    return {
        "excerpt_id": f"Excerpt-{short_hash(f'{sentence}|{mentions}', 7)}",
        "label": f"Paper-[''] | Section-['{section}'] | "
                 f"Excerpt-[{word_from}]-[{word_to}]",
        "in_sentence": sentence,
        "mentions": mentions,
        "word_index_from": word_from,
        "word_index_to": word_to,
    }


EXCERPTS_DOC1 = [
    excerpt_record("Data Extraction", MEL_SENTENCE, "mel", 52),
]
EXCERPTS_DOC2 = [
    excerpt_record("Content Analysis", TIKA_SENTENCE_2, "apache_tika", 66),
    excerpt_record("Content Analysis", TIKA_SENTENCE_2, "mel", 70),
]

CHUNKED_XML = """<section>
<section ID="1">
<heading>Introduction</heading>
<sentence>In the 21st century, the importance of developing cutting-edge scientific research is self-evident for every country.</sentence>
<reference>1</reference>
<sentence>Usually, the government research funding agencies receive thousands of research proposals each year, which are reviewed only by expert panels.</sentence>
</section>
<section ID="2">
<heading>Related Work</heading>
<section ID="2.1">
<heading>Computer science in evaluating grant applications</heading>
<sentence>Oztaysi et al.</sentence>
<sentence>
proposed a multi-criteria approach to evaluate research proposals based on interval-valued intuitionistic fuzzy sets.
<reference>2</reference>
</sentence>
<sentence>
A Metadata Extractor &amp; Loader (MEL) tool is applied to extract text from PDF research proposals and save it in a JSON file with metadata sets and content.
<reference>20</reference>
</sentence>
<sentence>
By default, all JSON files are stored in CouchDB database based on the proposal index.
<reference>21</reference>
</sentence>
</section>
</section>
</section>
"""

EXCERPT_PAIR_TTL = """@prefix askg-onto: <https://www.anu.edu.au/onto/scholarly#> .
@prefix askg-data: <https://www.anu.edu.au/onto/scholarly/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

askg-data:Excerpt-33387384e82242 a askg-onto:Excerpt ;
    rdfs:label "Paper-[''] | Section-['Introduction'] | Excerpt-[9153]-[9155]"@en ;
    askg-onto:inSentence "for poker and ya core we can find no previously prepared data , so we randomly partition 90 percent"^^xsd:string ;
    askg-onto:mentions askg-data:AcademicEntity-prepared_data ;
    askg-onto:wordIndexFrom "9153"^^xsd:int ;
    askg-onto:wordIndexTo "9155"^^xsd:int .

askg-data:Excerpt-33521e403cb12f a askg-onto:Excerpt ;
    rdfs:label "Paper-[''] | Section-['Introduction'] | Excerpt-[5834]-[5836]"@en ;
    askg-onto:inSentence "computed em representations of pre and entities in he functions that inform the generation of io rules bounded by a maximum length"^^xsd:string ;
    askg-onto:mentions askg-data:AcademicEntity-io_rule_bound ;
    askg-onto:wordIndexFrom "5834"^^xsd:int ;
    askg-onto:wordIndexTo "5836"^^xsd:int .
"""

RATINGS_CSV = """question_1,question_2,question_3,question_4
4,5,3,4
4,4,3,5
5,5,4,4
3,4,2,4
"""


def build_answers() -> list[dict]:
    graph_entities = [f"finding_{i:02d}" for i in range(1, 12)] + ["mel"]
    baseline_entities = [f"topic_{i:02d}" for i in range(1, 11)] + ["mel"]
    assert len(graph_entities) == 12 and len(baseline_entities) == 11
    assert set(graph_entities) & set(baseline_entities) == {"mel"}
    return [
        {
            "label": "Q1",
            "graph_entities": graph_entities,
            "baseline_entities": baseline_entities,
            "graph_answer": MEL_SENTENCE,
            "baseline_answer": COUCHDB_SENTENCE,
        },
        {
            "label": "Q2",
            "graph_entities": ["apache_tika", "mel", "kgcp"],
            "baseline_entities": ["apache_tika", "java"],
            "graph_answer": TIKA_SENTENCE_2,
            "baseline_answer": TIKA_SENTENCE_1,
        },
    ]


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    embedder = HashedBagOfWordsEmbedder()

    doc1_outline = outline_of(DOC1_TEXT, [(1, "Introduction"), (1, "Data Extraction")])
    doc2_outline = outline_of(DOC2_TEXT, [(1, "Background"), (1, "Content Analysis")])
    (FIXTURES / "doc1.txt").write_text(DOC1_TEXT, "utf-8")
    (FIXTURES / "doc2.txt").write_text(DOC2_TEXT, "utf-8")
    (FIXTURES / "outline_doc1.json").write_text(
        json.dumps(doc1_outline, indent=2) + "\n", "utf-8")
    (FIXTURES / "outline_doc2.json").write_text(
        json.dumps(doc2_outline, indent=2) + "\n", "utf-8")
    (FIXTURES / "excerpts_doc1.jsonl").write_text(
        "\n".join(json.dumps(r) for r in EXCERPTS_DOC1) + "\n", "utf-8")
    (FIXTURES / "excerpts_doc2.jsonl").write_text(
        "\n".join(json.dumps(r) for r in EXCERPTS_DOC2) + "\n", "utf-8")

    triples = []
    for text, outline_data, records in (
        (DOC1_TEXT, doc1_outline, EXCERPTS_DOC1),
        (DOC2_TEXT, doc2_outline, EXCERPTS_DOC2),
    ):
        outline = read_outline_json(json.dumps(outline_data))
        model = build_document_model(outline, text)
        excerpts = [Excerpt(**r) for r in records]
        paragraphs = collect_paragraphs(model)
        linked, links = link_graph(emit_rdf(model), excerpts, embedder, 0.7)
        if len(links) != len(excerpts):
            raise SystemExit(
                f"expected every excerpt to link above threshold, got "
                f"{len(links)} of {len(excerpts)}")
        for link in links:
            target = next(p for p in paragraphs
                          if p.paragraph_id == link.paragraph_id)
            print(f"  {link.excerpt_id} -> {link.paragraph_id} "
                  f"sim={link.similarity:.4f} :: {target.text[:60]!r}")
        triples.extend(linked)

    graph = KnowledgeGraph(triples)
    data = save_turtle(graph)
    assert set(load_turtle(data)) == set(graph)
    (FIXTURES / "scholarly_sample.ttl").write_bytes(data)
    print(f"scholarly_sample.ttl: {len(graph)} triples")

    # Sanity: the sample graph must hold the expected paragraph texts.
    labels = {t.object.lexical for t in graph
              if t.predicate.value.endswith("label")
              and not t.subject.local_name().startswith("Excerpt-")}
    for expected in (MEL_SENTENCE, TIKA_PARAGRAPH):
        if expected not in labels:
            raise SystemExit(f"missing paragraph text: {expected[:50]!r}")

    # Report the similarity margins, for the record.
    for record in EXCERPTS_DOC2:
        sim = cosine_similarity(embedder.embed(record["in_sentence"]),
                                embedder.embed(TIKA_PARAGRAPH))
        print(f"  {record['excerpt_id']} vs tika paragraph: {sim:.4f}")

    (FIXTURES / "chunked_paper.xml").write_text(CHUNKED_XML, "utf-8")
    (FIXTURES / "excerpt_pair.ttl").write_text(EXCERPT_PAIR_TTL, "utf-8")
    (FIXTURES / "ratings.csv").write_text(RATINGS_CSV, "utf-8")
    (FIXTURES / "answers.json").write_text(
        json.dumps(build_answers(), indent=2) + "\n", "utf-8")
    print("fixtures written to", FIXTURES)
    return 0


if __name__ == "__main__":
    sys.exit(main())
