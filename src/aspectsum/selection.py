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
from dataclasses import dataclass

import numpy as np

from .clients import LlmClient
from .errors import (
    AllCandidatesFailed,
    DimensionMismatch,
    EmptyText,
    TransportError,
    ZeroVector,
)
from .probe import EmbeddingCache
from .rationale import (
    Candidate,
    CandidateSet,
    Document,
    Rationale,
    aspects_text,
    rationale_text,
    rationale_to_json,
    serialize_rationale,
)
from .topics import LdaModel, TopicDistribution, infer_topics, kl_divergence


@dataclass(frozen=True)
class SelectionConfig:
    phi_alpha: float = 0.6
    phi_beta: float = 1.3
    lambda_cs: float = 1.5
    # Plumbing knobs; not part of the scoring formulas.
    fold_in_iterations: int = 50
    inference_seed: int = 0

    def __post_init__(self):
        for name in ("phi_alpha", "phi_beta", "lambda_cs"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def text_embedding(
    provider: LlmClient, text: str, cache: EmbeddingCache | None = None
) -> np.ndarray:
    """Pooled embedding of a text, cached alongside LLM responses."""
    if not text:
        raise EmptyText("cannot embed empty text")
    if cache is not None:
        hit = cache.lookup(provider.cache_namespace, text)
        if hit is not None:
            return hit
    vector = np.asarray(provider.embed(text), dtype=np.float64)
    if cache is not None:
        cache.store(provider.cache_namespace, text, vector)
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


def summary_score(
    c: Candidate,
    d: Document,
    provider: LlmClient,
    config: SelectionConfig,
    cache: EmbeddingCache | None = None,
) -> float:
    e_summary = text_embedding(provider, c.summary, cache)
    e_ground_truth = text_embedding(provider, d.ground_truth_summary, cache)
    e_rationale = text_embedding(provider, serialize_rationale(c.rationale), cache)
    return summary_score_from_sims(
        cosine_similarity(e_summary, e_ground_truth),
        cosine_similarity(e_summary, e_rationale),
        config.phi_alpha,
    )


def coherence_score(
    c: Candidate,
    d: Document,
    model: LdaModel,
    config: SelectionConfig,
    document_distribution: TopicDistribution | None = None,
) -> float:
    p_doc = document_distribution
    if p_doc is None:
        p_doc = infer_topics(model, d.text, config.fold_in_iterations, config.inference_seed)
    p_aspects = infer_topics(
        model, aspects_text(c.rationale), config.fold_in_iterations, config.inference_seed
    )
    p_rationale = infer_topics(
        model, rationale_text(c.rationale), config.fold_in_iterations, config.inference_seed
    )
    return coherence_score_from_kl(
        kl_divergence(p_doc, p_aspects),
        kl_divergence(p_doc, p_rationale),
        config.phi_beta,
    )


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


def select_golden(
    cs: CandidateSet,
    d: Document,
    model: LdaModel,
    provider: LlmClient,
    config: SelectionConfig,
    cache: EmbeddingCache | None = None,
) -> SelectionResult:
    """Score every candidate and pick the combined-score argmax.

    A candidate whose scoring fails (transport, degenerate vectors) is
    excluded with a recorded reason rather than scored as -inf; if nothing
    remains, AllCandidatesFailed is raised.
    """
    p_doc = infer_topics(model, d.text, config.fold_in_iterations, config.inference_seed)

    scored: list[ScoredCandidate] = []
    failures: list[CandidateFailure] = []
    for candidate in cs.candidates:
        try:
            s_score = summary_score(candidate, d, provider, config, cache)
            c_score = coherence_score(candidate, d, model, config, document_distribution=p_doc)
        except (TransportError, EmptyText, ZeroVector, DimensionMismatch) as exc:
            failures.append(CandidateFailure(candidate.index, str(exc)))
            continue
        scored.append(
            ScoredCandidate(
                index=candidate.index,
                summary_score=s_score,
                coherence_score=c_score,
                combined=combine_scores(s_score, c_score, config.lambda_cs),
            )
        )

    if not scored:
        raise AllCandidatesFailed(
            f"document {d.id}: all {len(cs.candidates)} candidates failed scoring"
        )

    golden_index = argmax_combined(scored)
    return SelectionResult(
        document_id=cs.document_id,
        golden_index=golden_index,
        golden_rationale=cs.candidates[golden_index].rationale,
        table=tuple(scored),
        failures=tuple(failures),
    )
