"""Corpus-level LDA by variational Bayes, plus fold-in inference.

Training and inference share one E-step (Blei, Ng & Jordan, JMLR 2003): for
a text d with word counts n_dw, each iteration sets

    gamma_dk = alpha + sum_w n_dw * phi_dwk,
    phi_dwk ∝ exp(E[log theta_dk] + E[log beta_kw]),

under the Dirichlet parameters gamma_d of theta_d and lambda_k of beta_k.
Training runs batch VB: each pass over the corpus continues the E-step from
the previous pass's gamma, then sets lambda = beta + sum_d n_dw * phi_dwk.
The saved model keeps those expected counts rounded to integers. Inference
freezes lambda at topic_word_counts + beta and reads off gamma_d / sum gamma_d,
a strictly positive simplex because every gamma_dk >= alpha.

The E-step runs over texts in blocks of bounded size, as online LDA does
(Hoffman, Blei & Bach, NIPS 2010). Every reduction runs within one text's
row in a fixed order, so a text's result does not depend on its block.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, EmptyVocabulary, InvalidHyperparameter
from .textutil import STOPWORD_LISTS, words

# Bound on (nonzero text-word entries) x k per E-step block.
_BLOCK_ELEMENTS = 1 << 14
# E-step iterations per training pass; gamma carries over between passes.
_TRAIN_E_STEP_ITERATIONS = 2


@dataclass(frozen=True)
class VocabularyConfig:
    stopwords: str = "english"  # key into textutil.STOPWORD_LISTS
    min_df: int = 1

    def __post_init__(self):
        if self.stopwords not in STOPWORD_LISTS:
            raise InvalidHyperparameter(f"unknown stopword list {self.stopwords!r}")
        if self.min_df < 1:
            raise InvalidHyperparameter("min_df must be >= 1")


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]
    config: VocabularyConfig

    @cached_property
    def term_to_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_index

    def encode(self, text: str) -> list[int]:
        """In-vocabulary token indices of a text, in order."""
        index = self.term_to_index
        return [index[w] for w in words(text) if w in index]


def _doc_text(doc) -> str:
    return doc if isinstance(doc, str) else doc.text


def build_vocabulary(corpus, config: VocabularyConfig | None = None) -> Vocabulary:
    """Lowercased, stopword- and min-df-filtered term set in lexicographic order."""
    if not corpus:
        raise ValueError("corpus is empty")
    config = config or VocabularyConfig()
    stop = STOPWORD_LISTS[config.stopwords]
    doc_freq: dict[str, int] = {}
    for doc in corpus:
        for term in set(words(_doc_text(doc))):
            if term not in stop:
                doc_freq[term] = doc_freq.get(term, 0) + 1
    terms = sorted(t for t, df in doc_freq.items() if df >= config.min_df)
    if not terms:
        raise EmptyVocabulary("vocabulary filtering removed every term")
    return Vocabulary(tuple(terms), config)


class TopicDistribution:
    """A strictly positive probability simplex over the model's topics."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("topic distribution must be a nonempty vector")
        if not np.all(arr > 0.0):
            raise ValueError("topic distribution entries must be strictly positive")
        if abs(float(arr.sum()) - 1.0) > 1e-9:
            raise ValueError("topic distribution must sum to 1 within 1e-9")
        self.probs = arr

    def __len__(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, k: int) -> "TopicDistribution":
        return cls(np.full(k, 1.0 / k))


def kl_divergence(p: TopicDistribution, q: TopicDistribution) -> float:
    """KL(p || q) = sum_i p_i * ln(p_i / q_i), in nats."""
    if len(p) != len(q):
        raise DimensionMismatch(f"distributions have lengths {len(p)} and {len(q)}")
    value = float(np.sum(p.probs * np.log(p.probs / q.probs)))
    # Nonnegative analytically; guard against float rounding near p == q.
    return value if value > 0.0 else 0.0


def digamma(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0: psi(x + 6) - sum_{i<6} 1/(x + i), where psi(y >= 6) is
    the asymptotic series through y^-14 (truncation error below 2e-12)."""
    x = np.asarray(x, dtype=np.float64)
    shift = sum(1.0 / (x + i) for i in range(6))
    y = x + 6.0
    z = 1.0 / (y * y)
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z * (
        1 / 132 - z * (691 / 32760 - z / 12))))))
    return np.log(y) - 0.5 / y - series - shift


def _exp_elog(params: np.ndarray) -> np.ndarray:
    """exp(E[log p]) of each row's Dirichlet(params) distribution."""
    return np.exp(digamma(params) - digamma(params.sum(axis=1))[:, None])


class _Block:
    """Some texts' nonzero word counts, text-major and word-sorted within a text."""

    def __init__(self, encoded: list[list[int]], k: int, alpha: float):
        # Python's sort, not numpy's: numpy's sorting code alone adds 0.4 MiB to RSS.
        entries = [sorted(Counter(ids).items()) for ids in encoded]
        self.word = np.array([w for pairs in entries for w, _ in pairs], dtype=np.int64)
        self.counts = np.array([n for pairs in entries for _, n in pairs], dtype=np.float64)
        self.text = np.repeat(np.arange(len(entries)), [len(pairs) for pairs in entries])
        self.starts = np.flatnonzero(np.diff(self.text, prepend=-1))
        # Each text's tokens start spread evenly over the topics.
        self.gamma = alpha + np.repeat([[len(ids) / k] for ids in encoded], k, axis=1)


def _blocks(encoded: list[list[int]], k: int, alpha: float):
    """(positions, block) pairs over the texts with tokens, in order; a block's
    entries times k stay within _BLOCK_ELEMENTS unless it holds one larger text."""
    groups: list[list[int]] = []
    entries = 0
    for i, ids in enumerate(encoded):
        n = len(set(ids))
        if not n:
            continue
        if not groups or (entries + n) * k > _BLOCK_ELEMENTS:
            groups.append([])
            entries = 0
        groups[-1].append(i)
        entries += n
    return [(g, _Block([encoded[i] for i in g], k, alpha)) for g in groups]


def _e_step(block: _Block, word_weights: np.ndarray, alpha: float, iterations: int,
            sstats: np.ndarray | None = None) -> np.ndarray:
    """Update block.gamma `iterations` times under word_weights, exp(E[log beta]) as
    V x k, and return it. sstats (V x k) gains n_dw * phi_dwk / word_weights[w]."""
    beta_entries = word_weights[block.word]
    for _ in range(iterations):
        theta_texts = _exp_elog(block.gamma)
        theta = theta_texts[block.text]
        ratio = block.counts / (theta * beta_entries).sum(axis=1)
        per_text = np.add.reduceat(beta_entries * ratio[:, None], block.starts, axis=0)
        block.gamma = alpha + theta_texts * per_text
    if sstats is not None:
        np.add.at(sstats, block.word, theta * ratio[:, None])
    return block.gamma


@dataclass(eq=False)
class LdaModel:
    k: int
    alpha: float
    beta: float
    seed: int
    vocabulary: Vocabulary
    topic_word_counts: np.ndarray  # k x V, nonnegative ints

    def __post_init__(self):
        if self.topic_word_counts.shape != (self.k, len(self.vocabulary)):
            raise ValueError("topic_word_counts shape does not match (k, V)")
        if np.any(self.topic_word_counts < 0):
            raise ValueError("negative topic-word count")

    @property
    def topic_totals(self) -> np.ndarray:
        """Tokens per topic: the row sums of topic_word_counts."""
        return self.topic_word_counts.sum(axis=1)

    def top_terms(self, topic: int, n: int = 10) -> list[str]:
        """The n highest-count terms of a topic; ties broken lexicographically."""
        row = self.topic_word_counts[topic]
        order = sorted(range(len(row)), key=lambda i: (-int(row[i]), self.vocabulary.terms[i]))
        return [self.vocabulary.terms[i] for i in order[:n]]

    @cached_property
    def _word_weights(self) -> np.ndarray:
        # exp(E[log beta]) under lambda = counts + beta, as V x k.
        return np.ascontiguousarray(_exp_elog(self.topic_word_counts + self.beta).T)

    def save(self, path: Path) -> None:
        obj = {
            "k": self.k,
            "alpha": self.alpha,
            "beta": self.beta,
            "seed": self.seed,
            "vocabulary": {
                "terms": list(self.vocabulary.terms),
                "stopwords": self.vocabulary.config.stopwords,
                "min_df": self.vocabulary.config.min_df,
            },
            "topic_word_counts": self.topic_word_counts.tolist(),
        }
        path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "LdaModel":
        obj = json.loads(path.read_text(encoding="utf-8"))
        vocab = obj["vocabulary"]
        return cls(
            k=obj["k"],
            alpha=obj["alpha"],
            beta=obj["beta"],
            seed=obj["seed"],
            vocabulary=Vocabulary(
                tuple(vocab["terms"]), VocabularyConfig(vocab["stopwords"], vocab["min_df"])
            ),
            topic_word_counts=np.asarray(obj["topic_word_counts"], dtype=np.int64),
        )


def _validate_hyperparameters(k: int, alpha: float, beta: float, iterations: int) -> None:
    if k < 2:
        raise InvalidHyperparameter("k must be >= 2")
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not (math.isfinite(value) and value > 0.0):
            raise InvalidHyperparameter(f"{name} must be positive and finite")
    if iterations < 1:
        raise InvalidHyperparameter("iterations must be >= 1")


def _round_counts(expected: np.ndarray, word_totals: np.ndarray) -> np.ndarray:
    """Integer k x V counts whose column w sums to word_totals[w].

    Each column rounds down, then its largest fractional parts (ties to the
    lower topic) take the remaining units.
    """
    floors = np.floor(expected)
    order = np.argsort(floors - expected, axis=0, kind="stable")
    rank = np.argsort(order, axis=0, kind="stable")
    return floors.astype(np.int64) + (rank < word_totals - floors.sum(axis=0))


def train_lda(
    corpus,
    k: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iterations: int = 500,
    seed: int = 0,
    vocabulary: Vocabulary | None = None,
    vocab_config: VocabularyConfig | None = None,
) -> LdaModel:
    """Batch variational training for `iterations` passes; deterministic for a seed.

    alpha defaults to 50/k when not given. The initial lambda comes from
    random.Random(seed).
    """
    if alpha is None:
        alpha = 50.0 / k
    _validate_hyperparameters(k, alpha, beta, iterations)
    vocab = vocabulary or build_vocabulary(corpus, vocab_config)
    encoded = [vocab.encode(_doc_text(doc)) for doc in corpus]
    if not any(encoded):
        raise EmptyVocabulary("corpus has no in-vocabulary tokens")

    v_size = len(vocab)
    blocks = [block for _, block in _blocks(encoded, k, alpha)]
    raw = np.frombuffer(random.Random(seed).randbytes(8 * k * v_size), dtype="<u8")
    lam = 0.5 + (raw >> np.uint64(11)).reshape(k, v_size) * 2.0**-53

    for _ in range(iterations):
        word_weights = np.ascontiguousarray(_exp_elog(lam).T)
        sstats = np.zeros((v_size, k))
        for block in blocks:
            _e_step(block, word_weights, alpha, _TRAIN_E_STEP_ITERATIONS, sstats)
        expected = (sstats * word_weights).T
        lam = beta + expected

    word_totals = np.bincount([w for ids in encoded for w in ids], minlength=v_size)
    counts = _round_counts(expected, word_totals)
    return LdaModel(k, alpha, beta, seed, vocab, topic_word_counts=counts)


def infer_topics_batch(
    model: LdaModel, texts: list[str], fold_in_iterations: int = 50
) -> list[TopicDistribution]:
    """Fold-in of each text with the model frozen, equal to infer_topics(model, text)
    bit for bit; a text with no in-vocabulary token gets the uniform distribution."""
    encoded = [model.vocabulary.encode(text) for text in texts]
    result = [TopicDistribution.uniform(model.k)] * len(texts)
    for positions, block in _blocks(encoded, model.k, model.alpha):
        gamma = _e_step(block, model._word_weights, model.alpha, fold_in_iterations)
        for i, row in zip(positions, gamma / gamma.sum(axis=1)[:, None]):
            result[i] = TopicDistribution(row)
    return result


def infer_topics(model: LdaModel, text: str, fold_in_iterations: int = 50) -> TopicDistribution:
    """Fold-in of one text; see infer_topics_batch."""
    return infer_topics_batch(model, [text], fold_in_iterations)[0]
