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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .clients import LlmClient, batched
from .errors import AllCandidatesFailed, DimensionMismatch, EmptyText, ZeroVector
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
from .topics import LdaModel, infer_topics, infer_topics_batch, kl_divergence  # noqa: F401


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


def text_embeddings(
    provider: LlmClient, texts: list[str], cache: EmbeddingCache | None = None
) -> list[np.ndarray]:
    """Pooled embeddings of texts, in order, cached alongside LLM responses.

    Each text is looked up on its own; the misses go to one
    provider.embed_many call, and each vector is stored as it arrives, so a
    provider error keeps the vectors fetched before it.
    """
    if not all(texts):
        raise EmptyText("cannot embed empty text")
    namespace = provider.cache_namespace
    vectors = [cache.lookup(namespace, text) if cache is not None else None for text in texts]
    misses = [i for i, vector in enumerate(vectors) if vector is None]
    fetched = provider.embed_many([texts[i] for i in misses])
    for i, vector in zip(misses, fetched, strict=True):
        vectors[i] = np.asarray(vector, dtype=np.float64)
        if cache is not None:
            cache.store(namespace, texts[i], vectors[i])
    return vectors


def text_embedding(
    provider: LlmClient, text: str, cache: EmbeddingCache | None = None
) -> np.ndarray:
    """Pooled embedding of one text: the one-text case of text_embeddings."""
    (vector,) = text_embeddings(provider, [text], cache)
    return vector


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionMismatch(f"vector shapes {x.shape} and {y.shape} differ")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise ZeroVector("cosine similarity is undefined for an all-zero vector")
    return float(np.dot(x, y)) / (nx * ny)


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
) -> Iterator[SelectionResult]:
    """Yield each document's golden candidate, in passes of _CHUNK_DOCUMENTS documents.

    A pass takes its pairs from `pairs` only once the previous pass's
    results have been taken. It folds in each of its distinct texts once,
    in one batched call, and embeds each once: it looks each up in the
    cache and hands the misses to one provider.embed_many call, on the
    calling thread. Then it scores its documents and commits the cache.
    Every row is computed on its own, so the results do not depend on the
    chunking. A provider error (such as TransportError) stops the stage, as
    it stops probe; the vectors fetched so far stay in the cache, so the
    next run asks only for the rest. A candidate whose vectors are
    degenerate (all-zero, or of another dimension) is excluded with a
    recorded reason, the same on every run; a document with none left
    raises AllCandidatesFailed.
    """
    for chunk in batched(pairs, _CHUNK_DOCUMENTS):
        results = _select_chunk(chunk, model, provider, config, cache)
        if cache is not None:
            cache.commit()
        yield from results


def _select_chunk(
    pairs: list[tuple[CandidateSet, Document]],
    model: LdaModel,
    provider: LlmClient,
    config: SelectionConfig,
    cache: EmbeddingCache | None,
) -> list[SelectionResult]:
    topic_texts, embed_texts = [], []
    for cs, d in pairs:
        topic_texts.append(d.text)
        for c in cs.candidates:
            topic_texts += [aspects_text(c.rationale), rationale_text(c.rationale)]
            embed_texts += [c.summary, d.ground_truth_summary, serialize_rationale(c.rationale)]
    topic_texts, embed_texts = list(dict.fromkeys(topic_texts)), list(dict.fromkeys(embed_texts))
    topics = dict(zip(topic_texts, infer_topics_batch(model, topic_texts, config.fold_in_iterations)))

    # A provider error stops the stage here.
    vectors = dict(zip(embed_texts, text_embeddings(provider, embed_texts, cache)))

    def score(cs: CandidateSet, d: Document) -> SelectionResult:
        p_doc = topics[d.text]
        scored: list[ScoredCandidate] = []
        failures: list[CandidateFailure] = []
        for c in cs.candidates:
            try:
                e_summary = vectors[c.summary]
                e_ground_truth = vectors[d.ground_truth_summary]
                e_rationale = vectors[serialize_rationale(c.rationale)]
                s_score = summary_score_from_sims(
                    cosine_similarity(e_summary, e_ground_truth),
                    cosine_similarity(e_summary, e_rationale),
                    config.phi_alpha,
                )
                c_score = coherence_score_from_kl(
                    kl_divergence(p_doc, topics[aspects_text(c.rationale)]),
                    kl_divergence(p_doc, topics[rationale_text(c.rationale)]),
                    config.phi_beta,
                )
            except (ZeroVector, DimensionMismatch) as exc:  # from the vectors themselves
                failures.append(CandidateFailure(c.index, str(exc)))
                continue
            combined = combine_scores(s_score, c_score, config.lambda_cs)
            scored.append(ScoredCandidate(c.index, s_score, c_score, combined))
        if not scored:
            raise AllCandidatesFailed(
                f"document {d.id}: all {len(cs.candidates)} candidates failed scoring"
            )
        golden = argmax_combined(scored)
        return SelectionResult(
            cs.document_id, golden, cs.candidates[golden].rationale, tuple(scored), tuple(failures)
        )

    return [score(cs, d) for cs, d in pairs]


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
