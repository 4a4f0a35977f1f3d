"""Dual-score candidate ranking and golden rationale selection.

Per candidate i with summary embedding S_i, ground-truth embedding S_gt and
rationale embedding R_i:

    summary score    = sim<S_i, S_gt> + phi_alpha * sim<S_i, R_i>
    coherence score  = KL(p_D || p_A_i) - (1 + phi_beta) * KL(p_D || p_R_i)
    combined         = summary score + lambda_cs * coherence score

where p_D, p_A_i, p_R_i are LDA topic distributions of the document, the
candidate's aspects text, and its full rationale text. The second summary
term keeps a candidate from scoring high by parroting the ground truth while
ignoring its own rationale. The golden candidate is the combined-score argmax
with ties broken toward the lowest index.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .clients import LlmClient, batched
from .errors import (
    AllCandidatesFailed,
    DimensionMismatch,
    EmptyText,
    NonFiniteVector,
    ZeroVector,
)
from .probe import EmbeddingCache
from .rationale import (
    CandidateSet,
    Document,
    Rationale,
    aspects_text,
    rationale_text,
    rationale_to_json,
    serialize_rationale,
)
# perfbench/tracing.py wraps infer_topics here by name; scoring uses the batched fold-in.
from .topics import LdaModel, infer_topics, kl_rows, start_fold_in  # noqa: F401


@dataclass(frozen=True)
class SelectionConfig:
    phi_alpha: float = 0.6
    phi_beta: float = 1.3
    lambda_cs: float = 1.5
    # Plumbing knob; not part of the scoring formulas.
    fold_in_iterations: int = 50

    def __post_init__(self):
        for name in ("phi_alpha", "phi_beta", "lambda_cs"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.fold_in_iterations < 1:
            raise ValueError("fold_in_iterations must be >= 1")


def _embedding_rows(
    provider: LlmClient, texts: list[str], cache: EmbeddingCache | None
) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The embeddings of texts as a (len(texts) x d) matrix of the vectors with
    the first 1-d vector's d values, and the others by position (their rows
    stay zero). Each vector is written into its row as it arrives, so the
    texts' vectors are held once.

    Each text is looked up on its own, after one read_ahead of them all; the
    misses go to one provider.embed_many call, and each vector is stored as it
    arrives, so a provider error keeps the vectors fetched before it.
    """
    if not all(texts):
        raise EmptyText("cannot embed empty text")
    namespace = provider.cache_namespace
    matrix = None
    others: dict[int, np.ndarray] = {}

    def place(i: int, vector: np.ndarray) -> None:
        nonlocal matrix
        if matrix is None and vector.ndim == 1:
            matrix = np.zeros((len(texts), vector.size))
        if matrix is not None and vector.shape == matrix.shape[1:]:
            matrix[i] = vector
        else:
            others[i] = vector

    misses = []
    if cache is not None:
        cache.read_ahead(namespace, texts)
    for i, text in enumerate(texts):
        vector = cache.lookup(namespace, text) if cache is not None else None
        if vector is None:
            misses.append(i)
        else:
            place(i, vector)
    for i, vector in zip(misses, provider.embed_many([texts[i] for i in misses]), strict=True):
        vector = np.asarray(vector, dtype=np.float64)
        if cache is not None:
            cache.store(namespace, texts[i], vector)
        place(i, vector)
    return (matrix if matrix is not None else np.zeros((len(texts), 0))), others


def text_embeddings(
    provider: LlmClient, texts: list[str], cache: EmbeddingCache | None = None
) -> list[np.ndarray]:
    """Pooled embeddings of texts, in order, cached alongside LLM responses."""
    matrix, others = _embedding_rows(provider, texts, cache)
    return [others.get(i, row) for i, row in enumerate(matrix)]


def text_embedding(
    provider: LlmClient, text: str, cache: EmbeddingCache | None = None
) -> np.ndarray:
    """Pooled embedding of one text: the one-text case of text_embeddings."""
    (vector,) = text_embeddings(provider, [text], cache)
    return vector


# Bound on the values of one temporary array of the cosine sums, 256 KiB:
# a pass computes them over blocks of rows, so it holds its vectors once.
_ROW_BLOCK_ELEMENTS = 1 << 15

_ZERO = "cosine similarity is undefined for an all-zero vector"
_UNDERFLOW = "cosine similarity is undefined for a vector whose norm underflows to 0"
_NON_FINITE = "cosine similarity is undefined for a vector with a non-finite value or norm"


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of a 2-d array, summed along the row
    without BLAS, so that its bits do not depend on the CPU's BLAS kernel."""
    # An overflowing norm is a NonFiniteVector, and one that underflows to 0
    # a ZeroVector.
    with np.errstate(over="ignore", under="ignore"):
        return np.sqrt(np.add.reduce(rows * rows, axis=1))


def _row_denominators(x_norms: np.ndarray, y_norms: np.ndarray) -> np.ndarray:
    """x_norms * y_norms; a zero or non-finite norm gives a product that the
    caller rejects, so its float warnings are not raised."""
    with np.errstate(over="ignore", invalid="ignore"):
        return x_norms * y_norms


def _row_cosines(x: np.ndarray, y: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """The cosine of each row pair of x and y, given the products of their norms."""
    return np.add.reduce(x * y, axis=1) / denominators


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """The cosine of two vectors: the one-row case of a select pass's cosines,
    and the source of its failure reasons. It checks the shapes, then a zero
    norm (an all-zero vector when either vector is all zero, and else a norm
    that underflows), then a non-finite product of the norms."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"vector shapes {x.shape} and {y.shape} differ")
    x, y = x.reshape(1, -1), y.reshape(1, -1)
    x_norm, y_norm = _row_norms(x), _row_norms(y)
    if x_norm[0] == 0.0 or y_norm[0] == 0.0:
        raise ZeroVector(_UNDERFLOW if x.any() and y.any() else _ZERO)
    denominator = _row_denominators(x_norm, y_norm)
    if not np.isfinite(denominator[0]):
        raise NonFiniteVector(_NON_FINITE)
    return float(_row_cosines(x, y, denominator)[0])


# The three score formulas take floats, or a pass's float64 arrays, one value
# per candidate; either way each value takes the same operations in the same order.
def summary_score_from_sims(
    sim_to_ground_truth: float, sim_to_rationale: float, phi_alpha: float
) -> float:
    return sim_to_ground_truth + phi_alpha * sim_to_rationale


def coherence_score_from_kl(
    kl_doc_aspects: float, kl_doc_rationale: float, phi_beta: float
) -> float:
    return kl_doc_aspects - (1.0 + phi_beta) * kl_doc_rationale


def combine_scores(summary_score: float, coherence_score: float, lambda_cs: float) -> float:
    return summary_score + lambda_cs * coherence_score


@dataclass(frozen=True)
class ScoredCandidate:
    index: int
    summary_score: float
    coherence_score: float
    combined: float


@dataclass(frozen=True)
class CandidateFailure:
    index: int
    reason: str


@dataclass(frozen=True)
class SelectionResult:
    document_id: str
    golden_index: int
    golden_rationale: Rationale
    table: tuple[ScoredCandidate, ...]
    failures: tuple[CandidateFailure, ...] = ()

    def to_json(self, config: SelectionConfig) -> dict:
        return {
            "document_id": self.document_id,
            "config": {
                "phi_alpha": config.phi_alpha,
                "phi_beta": config.phi_beta,
                "lambda_cs": config.lambda_cs,
            },
            "candidates": [
                {
                    "index": sc.index,
                    "summary_score": sc.summary_score,
                    "coherence_score": sc.coherence_score,
                    "combined": sc.combined,
                }
                for sc in self.table
            ],
            "failures": [{"index": f.index, "reason": f.reason} for f in self.failures],
            "golden_index": self.golden_index,
            "golden_rationale": rationale_to_json(self.golden_rationale),
            "golden_rationale_text": serialize_rationale(self.golden_rationale),
        }


def argmax_combined(table) -> int:
    """Index of the highest combined score; ties go to the lowest index."""
    best = None
    for sc in table:
        if (
            best is None
            or sc.combined > best.combined
            or (sc.combined == best.combined and sc.index < best.index)
        ):
            best = sc
    if best is None:
        raise ValueError("empty score table")
    return best.index


# Documents scored per pass of select_each. A cnndm document (15 samples)
# embeds 31 texts, each about 12 KB as 1,536 float64 values, so a pass holds
# about 32 x 31 x 12 KB = 12 MB of vectors, whatever the corpus size. Peak
# RSS of the fanout-cold benchmark by pass size, one run each on a 2-vCPU VM:
# 128: 43.4 MiB, 64: 41.4, 32: 40.9, 16: 40.8, 8: 40.5. Below 32 the saving
# is under 0.5 MiB, while every pass costs one more embed_many call (with an
# HTTP provider, one more request) and one more cache commit.
_CHUNK_DOCUMENTS = 32


def select_each(
    pairs: Iterable[tuple[CandidateSet, Document]],
    model: LdaModel,
    provider: LlmClient,
    config: SelectionConfig,
    cache: EmbeddingCache | None = None,
    helpers: Sequence = (),
) -> Iterator[SelectionResult]:
    """Yield each document's golden candidate, in passes of _CHUNK_DOCUMENTS documents.

    A pass folds in each of its distinct texts once (topics.start_fold_in,
    in the helpers that topics.fold_in_helpers made for this model and
    config.fold_in_iterations, or in this process without) and embeds each
    once: it looks each up in the cache and hands the misses to one
    provider.embed_many call, on the calling thread. Then it scores its
    documents and commits the cache. The passes overlap by one: a pass's
    pairs are read and its fold-in started before the previous pass is
    scored, and its embeddings gathered once that pass is let go.
    Every row is computed on its own, so the results do not depend on the
    chunking or the helpers. A provider error (such as TransportError) stops
    the stage, as it stops probe; the vectors fetched so far stay in the
    cache, so the next run asks only for the rest. A candidate whose vectors
    are degenerate (of another dimension, all-zero, or with a non-finite
    value) is excluded with cosine_similarity's reason, the same on every
    run; a document with none left raises AllCandidatesFailed. A pass scores
    its candidates as arrays: each sum runs along one row in a fixed order,
    so a score equals that of the pairwise functions (cosine_similarity,
    kl_divergence and the three score formulas) bit for bit.
    """

    def fold_in(rows: _PassRows):
        return start_fold_in(model, rows.topic_texts, config.fold_in_iterations, helpers)

    def embedded(rows: _PassRows):
        # A provider error stops the stage here.
        return _embedding_rows(provider, rows.vector_texts, cache)

    def scored(rows: _PassRows, topics: np.ndarray, vectors) -> list[SelectionResult]:
        results = _score_pass(rows, topics, *vectors, config)
        if cache is not None:
            cache.commit()
        return results

    ahead = None  # the pass read last: its rows, its pending fold-in and its vectors
    for chunk in batched(pairs, _CHUNK_DOCUMENTS):
        rows = _PassRows(chunk)
        last, ahead = ahead and (ahead[0], ahead[1](), ahead[2]), None
        # Sent once the last answers are taken: a helper answers one request at a time.
        pending = fold_in(rows)
        if last:
            yield from scored(*last)
        last = None  # let go first, so that no two passes' vectors are held at once
        ahead = rows, pending, embedded(rows)
    if ahead:
        yield from scored(ahead[0], ahead[1](), ahead[2])


class _PassRows:
    """A pass's pairs; its distinct topic texts and vector texts, each in
    order of first use; and per candidate, in pass order, the rows of its
    document, aspects and rationale texts (doc, asp, rat) and of its
    summary, ground truth and serialized rationale (summ, truth, ser)."""

    def __init__(self, pairs: list[tuple[CandidateSet, Document]]):
        topic_rows: dict[str, int] = {}
        vector_rows: dict[str, int] = {}
        doc, asp, rat, summ, truth, ser = [], [], [], [], [], []
        for cs, d in pairs:
            doc_row = topic_rows.setdefault(d.text, len(topic_rows))
            for c in cs.candidates:
                doc.append(doc_row)
                asp.append(topic_rows.setdefault(aspects_text(c.rationale), len(topic_rows)))
                rat.append(topic_rows.setdefault(rationale_text(c.rationale), len(topic_rows)))
                summ.append(vector_rows.setdefault(c.summary, len(vector_rows)))
                truth.append(vector_rows.setdefault(d.ground_truth_summary, len(vector_rows)))
                ser.append(
                    vector_rows.setdefault(serialize_rationale(c.rationale), len(vector_rows))
                )
        self.pairs = pairs
        self.topic_texts, self.vector_texts = list(topic_rows), list(vector_rows)
        self.doc, self.asp, self.rat, self.summ, self.truth, self.ser = (
            np.array(ids, dtype=np.intp) for ids in (doc, asp, rat, summ, truth, ser)
        )


def _score_pass(
    rows: _PassRows,
    topics: np.ndarray,
    matrix: np.ndarray,
    others: dict[int, np.ndarray],
    config: SelectionConfig,
) -> list[SelectionResult]:
    """The pass's results from its topic rows and its vectors (_embedding_rows)."""
    sims, reasons = _pass_cosines(matrix, others, rows.summ, rows.truth, rows.ser)
    summary = summary_score_from_sims(sims[0], sims[1], config.phi_alpha)
    doc = topics[rows.doc]
    coherence = coherence_score_from_kl(
        kl_rows(doc, topics[rows.asp]), kl_rows(doc, topics[rows.rat]), config.phi_beta
    )
    combined = combine_scores(summary, coherence, config.lambda_cs)
    # Taken in pass order: each document's zip below stops at its last candidate.
    scores = zip(summary.tolist(), coherence.tolist(), combined.tolist(), reasons)

    results = []
    for cs, d in rows.pairs:
        scored: list[ScoredCandidate] = []
        failures: list[CandidateFailure] = []
        for c, (s_score, c_score, total, reason) in zip(cs.candidates, scores):
            if reason is None:
                scored.append(ScoredCandidate(c.index, s_score, c_score, total))
            else:
                failures.append(CandidateFailure(c.index, reason))
        if not scored:
            raise AllCandidatesFailed(
                f"document {d.id}: all {len(cs.candidates)} candidates failed scoring"
            )
        golden = argmax_combined(scored)
        results.append(SelectionResult(
            cs.document_id, golden, cs.candidates[golden].rationale, tuple(scored), tuple(failures)
        ))
    return results


def _pass_cosines(
    matrix: np.ndarray,
    others: dict[int, np.ndarray],
    summary: np.ndarray,
    truth: np.ndarray,
    rationale: np.ndarray,
) -> tuple[np.ndarray, list[str | None]]:
    """sim(S_i, S_gt) and sim(S_i, R_i) of each candidate i, as a (2 x n) array,
    and each candidate's failure reason or None, given its three vector rows.

    A candidate whose three vectors are rows of matrix with nonzero, finite
    norms is computed as arrays. Each other one goes through
    cosine_similarity, and fails on the first of: a shape or zero failure of
    (S_i, S_gt), any failure of (S_i, R_i), a non-finite (S_i, S_gt). A
    failed candidate's sims are not read.
    """
    d = matrix.shape[1]
    norms = np.empty(len(matrix))
    step = max(1, _ROW_BLOCK_ELEMENTS // max(d, 1))
    for start in range(0, len(matrix), step):
        norms[start:start + step] = _row_norms(matrix[start:start + step])
    # A vector kept in others has a zero row in matrix.
    usable = (norms != 0.0) & np.isfinite(norms)
    in_matrix = usable[summary] & usable[truth] & usable[rationale]

    sims = np.zeros((2, len(summary)))
    fast = np.flatnonzero(in_matrix)
    for start in range(0, len(fast), step):
        block = fast[start:start + step]
        vectors, vector_norms = matrix[summary[block]], norms[summary[block]]
        for sim, other in zip(sims, (truth[block], rationale[block])):
            denominators = _row_denominators(vector_norms, norms[other])
            sim[block] = _row_cosines(vectors, matrix[other], denominators)

    reasons: list[str | None] = [None] * len(summary)
    for i in np.flatnonzero(~in_matrix).tolist():
        s_i, truth_i, rationale_i = (
            others.get(row, matrix[row]) for row in (summary[i], truth[i], rationale[i])
        )
        try:
            try:
                sims[0, i] = cosine_similarity(s_i, truth_i)
            except NonFiniteVector as exc:
                reasons[i] = str(exc)  # unless (S_i, R_i) fails
            sims[1, i] = cosine_similarity(s_i, rationale_i)
        except (DimensionMismatch, ZeroVector, NonFiniteVector) as exc:
            reasons[i] = str(exc)
    return sims, reasons


def select_golden(
    cs: CandidateSet,
    d: Document,
    model: LdaModel,
    provider: LlmClient,
    config: SelectionConfig,
    cache: EmbeddingCache | None = None,
) -> SelectionResult:
    """One document's selection, by the one pass of select_each."""
    (result,) = select_each([(cs, d)], model, provider, config, cache)
    return result
