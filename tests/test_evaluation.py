import math

import pytest

from scholarkg.embedding import STUB_DIMENSION, HashedBagOfWordsEmbedder
from scholarkg.evaluation import (
    EvaluationReport,
    QuestionComparison,
    build_report,
    cronbach_alpha,
    embedding_distance,
    entity_overlap,
    extract_entity_set,
)


def test_entity_overlap_twelve_vs_eleven_sharing_one():
    a = {f"a{i}" for i in range(11)} | {"mel"}
    b = {f"b{i}" for i in range(10)} | {"mel"}
    ratio, distance = entity_overlap(a, b)
    assert ratio == pytest.approx(1 / 12)
    assert distance == pytest.approx(1 - 1 / 22)


def test_entity_overlap_identical_sets():
    ratio, distance = entity_overlap({"x", "y"}, {"x", "y"})
    assert ratio == 1.0
    assert distance == 0.0


def test_entity_overlap_disjoint_sets():
    ratio, distance = entity_overlap({"x"}, {"y"})
    assert ratio == 0.0
    assert distance == 1.0


def test_entity_overlap_one_empty_side():
    assert entity_overlap(set(), {"x"}) == (0.0, 1.0)
    assert entity_overlap({"x"}, set()) == (0.0, 1.0)


def test_entity_overlap_both_empty_is_an_error():
    with pytest.raises(ValueError):
        entity_overlap(set(), set())


def test_entity_overlap_ratio_uses_larger_set():
    # 2 shared out of max(4, 2) = 4
    ratio, _ = entity_overlap({"a", "b", "c", "d"}, {"a", "b"})
    assert ratio == pytest.approx(0.5)


def test_embedding_distance_one_for_identical_texts():
    embedder = HashedBagOfWordsEmbedder()
    assert embedding_distance("alpha beta gamma delta", "delta gamma beta alpha", embedder) \
        == pytest.approx(1.0, abs=1e-12)


def test_embedding_distance_zero_for_orthogonal_singletons():
    embedder = HashedBagOfWordsEmbedder()
    a, b = "metadata", "couchdb"
    # the two tokens occupy different buckets, so the vectors are
    # orthogonal one-hots
    assert HashedBagOfWordsEmbedder.bucket(a, STUB_DIMENSION) \
        != HashedBagOfWordsEmbedder.bucket(b, STUB_DIMENSION)
    assert embedding_distance(a, b, embedder) == pytest.approx(0.0, abs=1e-12)


def test_embedding_distance_shrinks_with_divergence():
    embedder = HashedBagOfWordsEmbedder()
    near = embedding_distance("alpha beta gamma", "alpha beta delta", embedder)
    far = embedding_distance("alpha beta gamma", "epsilon zeta eta", embedder)
    assert -1.0 <= far < near < 1.0


def test_embedding_distance_rejects_an_empty_text():
    embedder = HashedBagOfWordsEmbedder()
    with pytest.raises(ValueError, match="cannot embed empty text"):
        embedding_distance("", "x", embedder)
    with pytest.raises(ValueError, match="cannot embed empty text"):
        embedding_distance("x", "", embedder)


def test_extract_entity_set_finds_capitalized_spans():
    text = ("A Metadata Extractor & Loader (MEL) tool is applied to extract "
            "text from PDF research proposals.")
    names = extract_entity_set(text)
    assert "metadata extractor & loader" in names
    assert "mel" in names
    assert "pdf" in names


def test_extract_entity_set_drops_lone_function_words():
    assert extract_entity_set("The tool runs. It parses files. Which one?") == set()


def test_extract_entity_set_strips_leading_function_words():
    names = extract_entity_set("We evaluated The Apache Tika parser.")
    assert "apache tika" in names
    assert not any(n.startswith("the ") for n in names)


def test_extract_entity_set_adds_known_keys_case_insensitively():
    text = "all json files are stored in couchdb."
    names = extract_entity_set(text, known_keys=("couchdb", "apache_tika"))
    assert "couchdb" in names
    assert "apache tika" not in names


def test_extract_entity_set_normalizes_whitespace_and_case():
    names = extract_entity_set("Apache   Tika\n Parser")
    assert "apache tika parser" in names


def cronbach_oracle(ratings):
    k = len(ratings[0])
    n = len(ratings)
    def var(xs):
        m = sum(xs) / len(xs)
        return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)
    items = [var([row[j] for row in ratings]) for j in range(k)]
    total = var([sum(row) for row in ratings])
    return (k / (k - 1)) * (1 - sum(items) / total)


def test_cronbach_alpha_matches_direct_formula():
    ratings = [
        [4.0, 5.0, 3.0, 4.0],
        [4.0, 4.0, 3.0, 5.0],
        [5.0, 5.0, 4.0, 4.0],
        [3.0, 4.0, 2.0, 4.0],
    ]
    assert cronbach_alpha(ratings) == pytest.approx(cronbach_oracle(ratings),
                                                    abs=1e-12)
    assert round(cronbach_alpha(ratings), 4) == 0.7320


def test_cronbach_alpha_perfect_agreement():
    assert cronbach_alpha([[3.0, 4.0], [3.0, 4.0], [3.0, 4.0]]) == 1.0


def test_cronbach_alpha_undefined_when_totals_constant_but_items_vary():
    # row sums all equal 5 while both items vary
    with pytest.raises(ValueError, match="alpha undefined"):
        cronbach_alpha([[1.0, 4.0], [4.0, 1.0], [2.0, 3.0], [3.0, 2.0]])


def test_cronbach_alpha_validates_shape():
    with pytest.raises(ValueError):
        cronbach_alpha([[1.0, 2.0]])
    with pytest.raises(ValueError):
        cronbach_alpha([[1.0], [2.0]])
    with pytest.raises(ValueError):
        cronbach_alpha([[1.0, 2.0], [1.0]])


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_cronbach_alpha_refuses_non_finite_ratings(cell):
    with pytest.raises(ValueError, match="finite"):
        cronbach_alpha([[3.0, 4.0], [2.0, cell], [4.0, 5.0]])


@pytest.mark.parametrize("ratings", [
    [[1e154] * 3, [0.0] * 3],            # a variance overflows
    [[1e200, 1.0], [1.0, 2.0]],
    [[1e308, 1e308], [1e308, 1e308]],    # a rater's total overflows
])
def test_cronbach_alpha_refuses_ratings_too_large_for_a_float(ratings):
    with pytest.raises(ValueError, match="too large"):
        cronbach_alpha(ratings)


def test_cronbach_alpha_can_be_negative():
    ratings = [[1.0, 5.0], [5.0, 1.0], [1.0, 5.0], [5.0, 2.0]]
    alpha = cronbach_alpha(ratings)
    assert alpha < 0.0
    assert not math.isnan(alpha)


def comparisons():
    return [
        QuestionComparison(
            label="Q1",
            graph_entities=frozenset({f"a{i}" for i in range(11)} | {"mel"}),
            baseline_entities=frozenset({f"b{i}" for i in range(10)} | {"mel"}),
            graph_answer="MEL extracts text from PDF proposals.",
            baseline_answer="Considering document chunks, uploads happen nightly.",
        ),
        QuestionComparison(
            label="Q2",
            graph_entities=frozenset({"couchdb", "json", "mel"}),
            baseline_entities=frozenset({"couchdb", "sql"}),
            graph_answer="JSON files are stored in CouchDB.",
            baseline_answer="Files are stored in CouchDB by default.",
        ),
    ]


def test_build_report_rounds_to_four_decimals():
    report = build_report(comparisons(), HashedBagOfWordsEmbedder())
    assert report.overlap_rows[0] == ("Q1", 0.0833, 0.9545)
    assert report.overlap_rows[1] == ("Q2", 0.3333, 0.75)
    for _, distance in report.distance_rows:
        assert distance == round(distance, 4)


def test_report_text_layout():
    report = EvaluationReport(
        overlap_rows=(("Q1", 0.0833, 0.9545),),
        distance_rows=(("Q1", 0.9101),),
    )
    assert report.to_text() == (
        "Question | Overlap Entity Ratio | Jaccard Distance\n"
        "Q1 | 0.0833 | 0.9545\n"
        "\n"
        "Question | Embedding Distance\n"
        "Q1 | 0.9101\n"
    )


def test_report_json_mirrors_rows():
    report = EvaluationReport(
        overlap_rows=(("Q1", 0.0833, 0.9545),),
        distance_rows=(("Q1", 0.9101),),
    )
    payload = report.to_dict()
    assert payload == {
        "entity_overlap": [
            {"question": "Q1", "overlap_entity_ratio": 0.0833,
             "jaccard_distance": 0.9545}],
        "embedding_distance": [
            {"question": "Q1", "embedding_distance": 0.9101}],
    }


def test_report_text_and_dict_agree():
    report = build_report(comparisons(), HashedBagOfWordsEmbedder())
    payload = report.to_dict()
    text = report.to_text()
    for row in payload["entity_overlap"]:
        assert f"{row['question']} | {row['overlap_entity_ratio']:.4f}" in text
