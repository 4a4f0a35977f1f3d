from __future__ import annotations

import random

import pytest

from aspectsum.evaluation import (
    EmptyInput,
    RougeScore,
    evaluate_corpus,
    rouge_l,
    rouge_n,
)


def test_identical_strings_score_one():
    for n in (1, 2, 3):
        s = rouge_n("the quick brown fox", "the quick brown fox", n)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)
    s = rouge_l("the quick brown fox", "the quick brown fox")
    assert s.f1 == 1.0


def test_hand_unigram_case():
    s = rouge_n("the cat sat", "the cat ran", 1)
    assert s.precision == pytest.approx(2 / 3, abs=1e-12)
    assert s.recall == pytest.approx(2 / 3, abs=1e-12)
    assert s.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_hand_bigram_case():
    s = rouge_n("the cat sat", "the cat ran", 2)
    assert s.precision == pytest.approx(0.5, abs=1e-12)
    assert s.recall == pytest.approx(0.5, abs=1e-12)
    assert s.f1 == pytest.approx(0.5, abs=1e-12)


def test_hand_lcs_case():
    s = rouge_l("the cat sat", "the cat ran")
    assert s.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_clipping_repeated_tokens():
    # candidate has three "a" but reference only two: overlap clips at 2.
    s = rouge_n("a a a", "a a b", 1)
    assert s.precision == pytest.approx(2 / 3, abs=1e-12)
    assert s.recall == pytest.approx(2 / 3, abs=1e-12)


def test_disjoint_and_empty_inputs():
    assert rouge_l("alpha beta", "gamma delta") == RougeScore(0.0, 0.0, 0.0)
    for cand, ref in (("", "x"), ("x", ""), ("", ""), ("...", "x")):
        assert rouge_n(cand, ref, 1) == RougeScore(0.0, 0.0, 0.0)
        assert rouge_l(cand, ref) == RougeScore(0.0, 0.0, 0.0)


def test_short_text_for_bigram():
    assert rouge_n("word", "word", 2) == RougeScore(0.0, 0.0, 0.0)


def test_tokenizer_folds_case_and_punctuation():
    s = rouge_n("The CAT, sat!", "the cat sat", 1)
    assert s.f1 == 1.0


def test_recall_precision_role_symmetry():
    rng = random.Random(7)
    pool = "a b c d e f g".split()
    for _ in range(300):
        x = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        y = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        for n in (1, 2):
            assert rouge_n(x, y, n).recall == pytest.approx(
                rouge_n(y, x, n).precision, abs=1e-12
            )


def test_f1_bounds_random():
    rng = random.Random(8)
    pool = "a b c d".split()
    for _ in range(300):
        x = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))
        y = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))
        for score in (rouge_n(x, y, 1), rouge_n(x, y, 2), rouge_l(x, y)):
            assert 0.0 <= score.precision <= 1.0
            assert 0.0 <= score.recall <= 1.0
            assert 0.0 <= score.f1 <= 1.0


def test_invalid_n():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 0)


def test_corpus_single_pair_mean():
    report = evaluate_corpus([("the cat sat", "the cat ran")])
    assert report.count == 1
    assert report.mean_rouge1.f1 == report.scores[0].rouge1.f1


def test_corpus_two_pair_hand_mean():
    report = evaluate_corpus(
        [("the cat sat", "the cat ran"), ("the cat sat", "the cat sat")]
    )
    assert report.count == 2
    assert report.mean_rouge1.f1 == pytest.approx((2 / 3 + 1.0) / 2, abs=1e-12)
    assert report.mean_rouge2.f1 == pytest.approx((0.5 + 1.0) / 2, abs=1e-12)
    assert report.mean_rouge_l.f1 == pytest.approx((2 / 3 + 1.0) / 2, abs=1e-12)


def test_corpus_report_scores_act_as_a_tuple():
    pairs = [("a b", "a c"), ("x", "x"), ("q r s", "q")]
    report = evaluate_corpus(pairs)
    scores = tuple(report.scores)
    assert report.scores[1:] == scores[1:] and report.scores[::-2] == scores[::-2]
    assert report.scores[-1] == scores[-1]
    with pytest.raises(IndexError):
        report.scores[3]
    assert report.scores == scores and hash(report.scores) == hash(scores)
    assert report == evaluate_corpus(pairs) and hash(report) == hash(evaluate_corpus(pairs))
    assert report != evaluate_corpus(pairs[:2])


def test_corpus_report_shapes():
    pairs = [("a b", "a c"), ("x", "x"), ("q r s", "q")]
    report = evaluate_corpus(pairs)
    assert len(report.scores) == len(pairs)
    obj = report.to_json()
    assert obj["count"] == 3
    assert len(obj["documents"]) == 3
    table = "".join(report.table_lines())
    assert table.count("\n") == 3 + 2  # header + rows + mean
    with pytest.raises(EmptyInput):
        evaluate_corpus([])
