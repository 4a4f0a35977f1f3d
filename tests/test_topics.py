from __future__ import annotations

import math
import random

import numpy as np
import pytest

from aspectsum import topics
from aspectsum.errors import DimensionMismatch, EmptyVocabulary, InvalidHyperparameter
from aspectsum.topics import (
    LdaModel,
    TopicDistribution,
    Vocabulary,
    VocabularyConfig,
    build_vocabulary,
    digamma,
    infer_topics,
    infer_topics_batch,
    kl_divergence,
    train_lda,
)


def planted_corpus(n_docs=90, doc_len=30, seed=0):
    """Documents drawn from 3 disjoint 20-word topics."""
    rng = random.Random(seed)
    topics = [[f"t{t}w{i:02d}" for i in range(20)] for t in range(3)]
    docs = [
        " ".join(rng.choice(topics[d % 3]) for _ in range(doc_len)) for d in range(n_docs)
    ]
    return docs, [set(t) for t in topics]


def test_build_vocabulary_hand_case():
    vocab = build_vocabulary(["the cat", "the dog"], VocabularyConfig("english", 1))
    assert vocab.terms == ("cat", "dog")


def test_build_vocabulary_min_df_filters_everything():
    with pytest.raises(EmptyVocabulary):
        build_vocabulary(["the cat", "the dog"], VocabularyConfig("english", 2))


def test_build_vocabulary_min_df_keeps_shared_terms():
    vocab = build_vocabulary(["cat dog", "dog bird"], VocabularyConfig("none", 2))
    assert vocab.terms == ("dog",)


def test_build_vocabulary_empty_corpus():
    with pytest.raises(ValueError):
        build_vocabulary([])


def test_vocabulary_encode():
    vocab = Vocabulary(("cat", "dog"), VocabularyConfig("none", 1))
    assert vocab.encode("Dog! sees the CAT and a cat") == [1, 0, 0]
    assert "cat" in vocab and "the" not in vocab


def test_invalid_hyperparameters():
    docs = ["alpha beta", "beta gamma"]
    with pytest.raises(InvalidHyperparameter):
        train_lda(docs, k=1, iterations=1)
    with pytest.raises(InvalidHyperparameter):
        train_lda(docs, k=2, alpha=-1.0, iterations=1)
    with pytest.raises(InvalidHyperparameter):
        train_lda(docs, k=2, beta=0.0, iterations=1)
    with pytest.raises(InvalidHyperparameter):
        train_lda(docs, k=2, iterations=0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(InvalidHyperparameter):
            train_lda(docs, k=2, alpha=bad, iterations=1)
        with pytest.raises(InvalidHyperparameter):
            train_lda(docs, k=2, beta=bad, iterations=1)
    with pytest.raises(InvalidHyperparameter):
        VocabularyConfig("klingon", 1)


def test_train_requires_in_vocabulary_tokens():
    vocab = Vocabulary(("zzz",), VocabularyConfig("none", 1))
    with pytest.raises(EmptyVocabulary):
        train_lda(["alpha beta"], k=2, iterations=1, vocabulary=vocab)


def test_train_seeded_determinism():
    docs, _ = planted_corpus(n_docs=30)
    m1 = train_lda(docs, k=3, iterations=30, seed=11)
    m2 = train_lda(docs, k=3, iterations=30, seed=11)
    assert np.array_equal(m1.topic_word_counts, m2.topic_word_counts)
    m3 = train_lda(docs, k=3, iterations=30, seed=12)
    assert not np.array_equal(m1.topic_word_counts, m3.topic_word_counts)


def test_count_conservation():
    docs, _ = planted_corpus(n_docs=30)
    model = train_lda(docs, k=3, iterations=20, seed=1)
    total_tokens = sum(len(model.vocabulary.encode(d)) for d in docs)
    assert int(model.topic_totals.sum()) == total_tokens
    assert np.all(model.topic_word_counts >= 0)
    # Rounding keeps each word's own token count too.
    per_word = np.bincount(
        [w for d in docs for w in model.vocabulary.encode(d)], minlength=len(model.vocabulary)
    )
    assert np.array_equal(model.topic_word_counts.sum(axis=0), per_word)


def test_planted_topic_recovery_quick():
    docs, planted = planted_corpus(n_docs=90)
    model = train_lda(docs, k=3, iterations=100, seed=1)
    overlaps = []
    for t in range(3):
        top = set(model.top_terms(t, 10))
        overlaps.append(max(len(top & p) / 10 for p in planted))
    assert sum(overlaps) / 3 >= 0.8


def test_infer_planted_text_concentrates():
    docs, planted = planted_corpus(n_docs=90)
    model = train_lda(docs, k=3, iterations=100, seed=1)
    # The recovered topic holding a planted topic's words should be the argmax
    # for a text made of exactly those words.
    for words_set in planted:
        text = " ".join(sorted(words_set))
        dist = infer_topics(model, text, fold_in_iterations=30)
        argmax = int(np.argmax(dist.probs))
        top = set(model.top_terms(argmax, 10))
        assert len(top & words_set) / 10 >= 0.8


def test_infer_out_of_vocabulary_gives_uniform():
    docs, _ = planted_corpus(n_docs=12)
    model = train_lda(docs, k=3, iterations=10, seed=1)
    dist = infer_topics(model, "completely unseen words only")
    assert np.allclose(dist.probs, 1.0 / 3.0)


def test_infer_simplex_invariant():
    docs, _ = planted_corpus(n_docs=30)
    model = train_lda(docs, k=3, iterations=20, seed=1)
    rng = random.Random(5)
    vocab_terms = list(model.vocabulary.terms)
    for _ in range(50):
        text = " ".join(rng.choice(vocab_terms + ["oov"]) for _ in range(rng.randint(0, 40)))
        dist = infer_topics(model, text, fold_in_iterations=10)
        assert abs(float(dist.probs.sum()) - 1.0) <= 1e-9
        assert np.all(dist.probs > 0)


def test_infer_is_deterministic():
    docs, _ = planted_corpus(n_docs=30)
    model = train_lda(docs, k=3, iterations=20, seed=1)
    a = infer_topics(model, docs[0], fold_in_iterations=25)
    b = infer_topics(model, docs[0], fold_in_iterations=25)
    assert np.array_equal(a.probs, b.probs)


def test_kl_identity_is_zero():
    p = TopicDistribution([0.2, 0.3, 0.5])
    assert kl_divergence(p, p) == 0.0


def test_kl_hand_value():
    p = TopicDistribution([0.5, 0.5])
    q = TopicDistribution([0.9, 0.1])
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-12)
    assert kl_divergence(p, q) == pytest.approx(0.5108256237659907, abs=1e-12)


def test_kl_nonnegative_random():
    rng = random.Random(0)
    for _ in range(1000):
        k = rng.randint(2, 10)
        raw_p = [rng.random() + 1e-9 for _ in range(k)]
        raw_q = [rng.random() + 1e-9 for _ in range(k)]
        p = TopicDistribution([x / sum(raw_p) for x in raw_p])
        q = TopicDistribution([x / sum(raw_q) for x in raw_q])
        assert kl_divergence(p, q) >= 0.0


def test_kl_strictly_positive_for_distinct_distributions():
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(2, 8)
        raw_p = [rng.random() + 0.05 for _ in range(k)]
        p_vals = [x / sum(raw_p) for x in raw_p]
        q_vals = list(p_vals)
        # perturb two entries so q differs from p but stays a simplex
        i, j = rng.sample(range(k), 2)
        delta = min(p_vals[i], p_vals[j]) / 2
        q_vals[i] += delta
        q_vals[j] -= delta
        p = TopicDistribution(p_vals)
        q = TopicDistribution(q_vals)
        assert kl_divergence(p, q) > 0.0
        assert kl_divergence(q, p) > 0.0


def test_kl_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kl_divergence(TopicDistribution([0.5, 0.5]), TopicDistribution([1 / 3] * 3))


def test_topic_distribution_validation():
    with pytest.raises(ValueError):
        TopicDistribution([0.5, 0.6])
    with pytest.raises(ValueError):
        TopicDistribution([1.0, 0.0])
    with pytest.raises(ValueError):
        TopicDistribution([])
    assert len(TopicDistribution.uniform(4)) == 4


def test_model_json_round_trip(tmp_path):
    docs, _ = planted_corpus(n_docs=20)
    model = train_lda(docs, k=3, iterations=15, seed=2)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = LdaModel.load(path)
    assert loaded.k == model.k
    assert loaded.alpha == model.alpha
    assert loaded.vocabulary.terms == model.vocabulary.terms
    assert np.array_equal(loaded.topic_word_counts, model.topic_word_counts)
    a = infer_topics(model, docs[0], 10)
    b = infer_topics(loaded, docs[0], 10)
    assert np.array_equal(a.probs, b.probs)


EULER_GAMMA = 0.5772156649015329


def test_digamma_known_values_and_recurrence():
    assert abs(digamma(np.array([1.0]))[0] + EULER_GAMMA) <= 1e-10
    assert abs(digamma(np.array([0.5]))[0] + EULER_GAMMA + 2 * math.log(2)) <= 1e-10
    x = np.concatenate([np.linspace(0.01, 1.0, 200), np.linspace(1.0, 500.0, 2000)])
    # psi(x + 1) = psi(x) + 1/x
    assert np.allclose(digamma(x + 1.0), digamma(x) + 1.0 / x, rtol=1e-12, atol=1e-10)


def _mixed_texts(model, n=120, seed=5):
    rng = random.Random(seed)
    terms = list(model.vocabulary.terms)
    texts = ["", "entirely out of vocabulary words"]
    for _ in range(n):
        texts.append(" ".join(rng.choice(terms + ["oov"]) for _ in range(rng.randint(1, 60))))
    return texts


def test_infer_topics_equals_the_batched_row():
    docs, _ = planted_corpus(n_docs=30)
    model = train_lda(docs, k=3, iterations=20, seed=1)
    texts = _mixed_texts(model) + docs
    batch = infer_topics_batch(model, texts, fold_in_iterations=12)
    assert len(batch) == len(texts)
    for text, row in zip(texts, batch):
        assert np.array_equal(infer_topics(model, text, fold_in_iterations=12).probs, row.probs)


def test_block_size_changes_no_bit(monkeypatch):
    docs, _ = planted_corpus(n_docs=40)
    model = train_lda(docs, k=3, iterations=15, seed=2)
    texts = _mixed_texts(model) + docs
    batch = infer_topics_batch(model, texts, fold_in_iterations=10)
    # Every block now holds a single text, in training and in fold-in.
    monkeypatch.setattr(topics, "_BLOCK_ELEMENTS", 1)
    small = train_lda(docs, k=3, iterations=15, seed=2)
    assert np.array_equal(small.topic_word_counts, model.topic_word_counts)
    for a, b in zip(infer_topics_batch(model, texts, fold_in_iterations=10), batch):
        assert np.array_equal(a.probs, b.probs)
