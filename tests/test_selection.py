from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import textwrap
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from aspectsum import selection
from aspectsum.clients import LlmClient
from aspectsum.errors import (
    AllCandidatesFailed,
    DimensionMismatch,
    EmptyText,
    NonFiniteVector,
    TransportError,
    ZeroVector,
)
from aspectsum.mock import MockLlmClient
from aspectsum.probe import EmbeddingCache
from aspectsum.rationale import (
    Aspect,
    Candidate,
    CandidateSet,
    Document,
    Rationale,
    Triple,
    aspects_text,
    rationale_text,
    serialize_rationale,
)
from aspectsum.selection import (
    ScoredCandidate,
    SelectionConfig,
    argmax_combined,
    coherence_score_from_kl,
    combine_scores,
    cosine_similarity,
    select_each,
    select_golden,
    summary_score_from_sims,
    text_embedding,
    text_embeddings,
)
from aspectsum.topics import infer_topics, kl_divergence, train_lda
from conftest import cache_rows, random_rationale, synthetic_records, write_cache_rows


class VectorProvider(LlmClient):
    """Maps exact texts to fixed vectors."""

    cache_namespace = "vectors"

    def __init__(self, mapping):
        self.mapping = dict(mapping)
        self.embed_calls = 0

    def complete(self, prompt):
        raise NotImplementedError

    def embed(self, text):
        self.embed_calls += 1
        return np.asarray(self.mapping[text], dtype=np.float64)


def test_cosine_identity_and_orthogonality():
    assert cosine_similarity([3.0, 4.0], [3.0, 4.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_cosine_hand_value():
    assert cosine_similarity([1.0, 1.0], [1.0, 0.0]) == pytest.approx(
        0.7071067811865475, abs=1e-12
    )


def test_cosine_errors():
    with pytest.raises(ZeroVector, match="all-zero vector"):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
    # Not all zero, but 1e-170 squared underflows to 0: a reason of its own.
    with pytest.raises(ZeroVector, match="norm underflows to 0"):
        cosine_similarity([1e-170, 1e-170], [1.0, 0.0])
    with pytest.raises(ZeroVector, match="all-zero vector"):  # an all-zero vector first
        cosine_similarity([1e-170, 1e-170], [0.0, 0.0])
    with pytest.raises(DimensionMismatch):
        cosine_similarity([1.0], [1.0, 0.0])
    for bad in (math.nan, math.inf, -math.inf, 1e200):  # 1e200 squared overflows
        with pytest.raises(NonFiniteVector):
            cosine_similarity([1.0, bad], [1.0, 0.0])
    # Shape, then zero, then non-finite: the order a select pass checks them in.
    with pytest.raises(ZeroVector):
        cosine_similarity([0.0, 0.0], [math.nan, 1.0])
    with pytest.raises(DimensionMismatch):
        cosine_similarity([math.nan], [0.0, 0.0])


def test_summary_score_arithmetic():
    assert summary_score_from_sims(0.9, 0.5, 0.6) == pytest.approx(1.20, abs=1e-12)
    assert summary_score_from_sims(0.7, 0.9, 0.0) == 0.7  # weight-zero case


def test_coherence_score_arithmetic():
    assert coherence_score_from_kl(0.8, 0.3, 1.3) == pytest.approx(0.11, abs=1e-12)
    # KL(D||R) = 0 collapses the score to KL(D||A)
    assert coherence_score_from_kl(0.8, 0.0, 1.3) == 0.8


def test_coherence_affine_slopes():
    phi_beta = 1.3
    base = coherence_score_from_kl(0.8, 0.3, phi_beta)
    bumped = coherence_score_from_kl(0.8, 0.4, phi_beta)
    assert bumped - base == pytest.approx(-(1 + phi_beta) * 0.1, abs=1e-12)
    assert coherence_score_from_kl(0.9, 0.3, phi_beta) - base == pytest.approx(0.1, abs=1e-12)


def _unit_at_cosine(c: float) -> list[float]:
    return [c, math.sqrt(1.0 - c * c)]


@pytest.fixture(scope="module")
def tiny_model():
    rng = random.Random(0)
    themes = [["storm", "flood", "rain", "river"], ["vote", "senate", "ballot", "poll"]]
    docs = [" ".join(rng.choice(themes[i % 2]) for _ in range(20)) for i in range(20)]
    return train_lda(docs, k=2, iterations=40, seed=3)


def _one_candidate_row(candidate, d, model, provider, cfg):
    result = select_golden(CandidateSet(d.id, (candidate,)), d, model, provider, cfg)
    assert result.failures == ()
    return result.table[0]


def test_summary_score_full_path(sample_document, sample_rationale, tiny_model):
    candidate = Candidate(0, sample_rationale, "a candidate summary")
    provider = VectorProvider(
        {
            "a candidate summary": [1.0, 0.0],
            sample_document.ground_truth_summary: _unit_at_cosine(0.9),
            serialize_rationale(sample_rationale): _unit_at_cosine(0.5),
        }
    )
    row = _one_candidate_row(candidate, sample_document, tiny_model, provider, SelectionConfig())
    assert row.summary_score == pytest.approx(1.20, abs=1e-12)


def test_summary_score_identical_texts_give_first_term_one(
    sample_document, sample_rationale, tiny_model
):
    candidate = Candidate(0, sample_rationale, sample_document.ground_truth_summary)
    cfg = SelectionConfig(phi_alpha=0.0)
    row = _one_candidate_row(candidate, sample_document, tiny_model, MockLlmClient(seed=0), cfg)
    assert row.summary_score == pytest.approx(1.0, abs=1e-12)


def test_coherence_score_full_path(tiny_model, sample_rationale):
    d = Document("d", "storm flood rain river storm rain", "storm summary")
    candidate = Candidate(0, sample_rationale, "whatever")
    cfg = SelectionConfig(fold_in_iterations=20)
    got = _one_candidate_row(candidate, d, tiny_model, MockLlmClient(seed=0), cfg).coherence_score
    p_d = infer_topics(tiny_model, d.text, 20)
    p_a = infer_topics(tiny_model, aspects_text(sample_rationale), 20)
    p_r = infer_topics(tiny_model, rationale_text(sample_rationale), 20)
    expected = kl_divergence(p_d, p_a) - (1 + cfg.phi_beta) * kl_divergence(p_d, p_r)
    assert got == expected


def test_combined_worked_example():
    table = [
        ScoredCandidate(0, 1.20, 0.11, combine_scores(1.20, 0.11, 1.5)),
        ScoredCandidate(1, 1.10, 0.0, combine_scores(1.10, 0.0, 1.5)),
    ]
    assert table[0].combined == pytest.approx(1.365, abs=1e-12)
    assert argmax_combined(table) == 0


def test_argmax_tie_breaks_to_lowest_index():
    table = [ScoredCandidate(i, 1.0, 0.5, 1.75) for i in range(4)]
    assert argmax_combined(table) == 0
    assert argmax_combined(list(reversed(table))) == 0


def brute_force_argmax(table):
    best = max(sc.combined for sc in table)
    return min(sc.index for sc in table if sc.combined == best)


def random_table(rng, max_size=15):
    size = rng.randint(1, max_size)
    rows = []
    for i in range(size):
        s = rng.uniform(-2, 2)
        c = rng.uniform(-3, 3)
        rows.append(ScoredCandidate(i, s, c, combine_scores(s, c, 1.5)))
    return rows


def test_argmax_matches_brute_force_scan():
    rng = random.Random(42)
    for _ in range(300):
        table = random_table(rng)
        assert argmax_combined(table) == brute_force_argmax(table)


def test_argmax_invariance_shift_and_scale():
    rng = random.Random(43)
    for _ in range(200):
        table = random_table(rng)
        base = argmax_combined(table)
        shift = rng.uniform(-10, 10)
        scale = rng.uniform(0.1, 10)
        shifted = [
            ScoredCandidate(sc.index, sc.summary_score, sc.coherence_score, sc.combined + shift)
            for sc in table
        ]
        scaled = [
            ScoredCandidate(sc.index, sc.summary_score, sc.coherence_score, sc.combined * scale)
            for sc in table
        ]
        assert argmax_combined(shifted) == base
        assert argmax_combined(scaled) == base


def _rank(table, index):
    ordered = sorted(table, key=lambda sc: (-sc.combined, sc.index))
    return [sc.index for sc in ordered].index(index)


def test_monotonicity_in_ground_truth_similarity():
    rng = random.Random(44)
    lambda_cs = 1.5
    for _ in range(200):
        table = random_table(rng)
        target = rng.choice(table).index
        before = _rank(table, target)
        bumped = [
            sc
            if sc.index != target
            else ScoredCandidate(
                sc.index,
                sc.summary_score + 0.5,
                sc.coherence_score,
                combine_scores(sc.summary_score + 0.5, sc.coherence_score, lambda_cs),
            )
            for sc in table
        ]
        assert _rank(bumped, target) <= before


def _candidate_set(document_id="doc-x"):
    r1 = Rationale((Aspect("storm flooding"),), (Triple("storm", "caused", "flood"),))
    r2 = Rationale((Aspect("river levels"),), (Triple("river", "rose", "fast"),))
    return CandidateSet(
        document_id,
        (
            Candidate(0, r1, "storm caused flooding along the river"),
            Candidate(1, r2, "the river rose quickly"),
        ),
    )


def test_select_golden_table_arithmetic(tiny_model):
    d = Document("doc-x", "storm flood rain river storm rain flood", "storm flooded the river")
    cs = _candidate_set()
    cfg = SelectionConfig(fold_in_iterations=15)
    result = select_golden(cs, d, tiny_model, MockLlmClient(seed=0), cfg)
    assert len(result.table) == 2
    for sc in result.table:
        assert sc.combined == combine_scores(sc.summary_score, sc.coherence_score, cfg.lambda_cs)
    assert result.golden_index == argmax_combined(result.table)
    assert result.golden_rationale == cs.candidates[result.golden_index].rationale
    # deterministic end to end
    again = select_golden(cs, d, tiny_model, MockLlmClient(seed=0), cfg)
    assert again.table == result.table


def test_select_golden_identical_candidates_tie(tiny_model):
    r = Rationale((Aspect("storm"),), (Triple("storm", "hit", "coast"),))
    cs = CandidateSet(
        "doc-t",
        tuple(Candidate(i, r, "identical summary") for i in range(3)),
    )
    d = Document("doc-t", "storm rain flood", "storm summary")
    result = select_golden(cs, d, tiny_model, MockLlmClient(seed=0), SelectionConfig(fold_in_iterations=10))
    assert result.golden_index == 0


class FlakyProvider(MockLlmClient):
    def __init__(self, poison: str, **kwargs):
        super().__init__(**kwargs)
        self.poison = poison

    def embed(self, text):
        if self.poison in text:
            return np.zeros_like(super().embed(text))
        return super().embed(text)


def test_select_golden_excludes_failing_candidates(tiny_model):
    d = Document("doc-x", "storm flood rain river", "storm flooded the river")
    cs = _candidate_set()
    provider = FlakyProvider("rose quickly", seed=0)
    result = select_golden(cs, d, tiny_model, provider, SelectionConfig(fold_in_iterations=10))
    assert [sc.index for sc in result.table] == [0]
    assert result.golden_index == 0
    assert len(result.failures) == 1
    assert result.failures[0].index == 1
    assert "all-zero vector" in result.failures[0].reason


def test_select_golden_all_failed(tiny_model):
    d = Document("doc-x", "storm flood", "storm")
    cs = _candidate_set()
    provider = FlakyProvider("", seed=0)  # poisons everything
    with pytest.raises(AllCandidatesFailed):
        select_golden(cs, d, tiny_model, provider, SelectionConfig(fold_in_iterations=5))


def test_select_golden_stops_on_a_provider_error(tiny_model):
    class Down(MockLlmClient):
        def embed(self, text):
            raise TransportError("HTTP 429")

    d = Document("doc-x", "storm flood rain river", "storm flooded the river")
    with pytest.raises(TransportError, match="HTTP 429"):
        select_golden(_candidate_set(), d, tiny_model, Down(seed=0), SelectionConfig())


def test_select_each_equals_select_golden_and_embeds_each_text_once(tiny_model):
    # Two documents share a reference summary and a candidate summary.
    d1 = Document("doc-1", "storm flood rain river", "storm flooded the river")
    d2 = Document("doc-2", "vote senate ballot poll", "storm flooded the river")
    cs1, cs2 = _candidate_set("doc-1"), _candidate_set("doc-2")
    cfg = SelectionConfig(fold_in_iterations=10)
    provider = MockLlmClient(seed=0)
    batch = list(select_each([(cs1, d1), (cs2, d2)], tiny_model, provider, cfg))
    texts = {d1.ground_truth_summary}
    for c in cs1.candidates:
        texts |= {c.summary, serialize_rationale(c.rationale)}
    assert provider.embed_calls == len(texts)
    singles = [
        select_golden(cs, d, tiny_model, MockLlmClient(seed=0), cfg)
        for cs, d in ((cs1, d1), (cs2, d2))
    ]
    assert batch == singles


def test_selection_result_json_round_trip(tiny_model):
    d = Document("doc-x", "storm flood rain river", "storm flooded the river")
    cfg = SelectionConfig(fold_in_iterations=10)
    result = select_golden(_candidate_set(), d, tiny_model, MockLlmClient(seed=0), cfg)
    obj = result.to_json(cfg)
    assert obj["document_id"] == "doc-x"
    assert obj["config"]["phi_alpha"] == 0.6
    assert obj["golden_index"] == result.golden_index
    # combined is exactly reproducible from the persisted table
    for row in obj["candidates"]:
        assert row["combined"] == combine_scores(
            row["summary_score"], row["coherence_score"], cfg.lambda_cs
        )


def _distinct_pairs(n: int):
    """n documents whose summaries, references and rationales are all distinct."""
    pairs = []
    for i in range(n):
        tag = f"w{i}"
        cs = CandidateSet(
            f"doc-{i}",
            tuple(
                Candidate(
                    j,
                    Rationale((Aspect(f"storm {tag} {j}"),), (Triple("storm", tag, f"x{j}"),)),
                    f"storm flooded {tag} {j}",
                )
                for j in range(2)
            ),
        )
        pairs.append((cs, Document(f"doc-{i}", f"storm flood rain {tag}", f"river {tag}")))
    return pairs


def test_select_each_chunks_give_the_results_of_one_pass(tiny_model, monkeypatch, tmp_path):
    pairs = _distinct_pairs(7)
    cfg = SelectionConfig(fold_in_iterations=5)
    whole = list(select_each(pairs, tiny_model, MockLlmClient(seed=0), cfg))
    monkeypatch.setattr(selection, "_CHUNK_DOCUMENTS", 3)
    with EmbeddingCache(tmp_path) as cache:
        assert list(select_each(pairs, tiny_model, MockLlmClient(seed=0), cfg, cache)) == whole


def test_select_each_memory_is_bounded_by_the_chunk(tiny_model, monkeypatch, tmp_path):
    # 5 distinct embedded texts per document, 64 KiB each as 8,192 float64 values.
    chunk, vector_bytes = 4, 8192 * 8
    monkeypatch.setattr(selection, "_CHUNK_DOCUMENTS", chunk)
    cfg = SelectionConfig(fold_in_iterations=5)

    def peak(n_docs: int) -> int:
        pairs = _distinct_pairs(n_docs)
        provider = MockLlmClient(seed=0, dimension=8192)
        with EmbeddingCache(tmp_path / str(n_docs)) as cache:
            tracemalloc.start()
            try:
                list(select_each(pairs, tiny_model, provider, cfg, cache))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    small, large = peak(2 * chunk), peak(16 * chunk)
    # Holding every vector until the corpus is scored would add 56 documents'
    # worth, 56 x 5 x 64 KiB = 17.5 MiB; a chunk's vectors are 1.25 MiB.
    assert large - small < chunk * 5 * vector_bytes / 2
    assert small < 3 * chunk * 5 * vector_bytes


def test_text_embedding_cache_hit_skips_provider(tmp_path):
    provider = MockLlmClient(seed=0)
    cache = EmbeddingCache(tmp_path)
    v1 = text_embedding(provider, "storm flood", cache)
    assert provider.embed_calls == 1
    v2 = text_embedding(provider, "storm flood", cache)
    assert provider.embed_calls == 1  # second call served from cache
    assert np.array_equal(v1, v2)


def test_text_embedding_empty_text():
    with pytest.raises(EmptyText):
        text_embedding(MockLlmClient(seed=0), "")


def test_selection_config_validation():
    with pytest.raises(ValueError):
        SelectionConfig(phi_alpha=float("nan"))
    cfg = SelectionConfig()
    assert (cfg.phi_alpha, cfg.phi_beta, cfg.lambda_cs) == (0.6, 1.3, 1.5)


_NON_FINITE = "cosine similarity is undefined for a vector with a non-finite value or norm"


def test_a_non_finite_embedding_is_a_failure_not_the_golden(tiny_model):
    # Candidate 0's summary vector holds a NaN. Its combined score would be
    # NaN, which no score compares greater than, so it used to be picked, and
    # its line held the non-JSON token NaN.
    d = Document("doc-n", "storm flood rain river", "storm flooded the river")
    cs = _candidate_set("doc-n")
    provider = VectorProvider(
        {
            cs.candidates[0].summary: [math.nan, 1.0],
            cs.candidates[1].summary: [1.0, 0.0],
            d.ground_truth_summary: _unit_at_cosine(0.3),
            **{serialize_rationale(c.rationale): _unit_at_cosine(0.2) for c in cs.candidates},
        }
    )
    cfg = SelectionConfig(fold_in_iterations=5)
    result = select_golden(cs, d, tiny_model, provider, cfg)
    assert result.failures == (selection.CandidateFailure(0, _NON_FINITE),)
    assert [sc.index for sc in result.table] == [1] and result.golden_index == 1
    json.dumps(result.to_json(cfg), allow_nan=False)


class FractionalProvider(MockLlmClient):
    """The mock's vectors made fractional, sqrt(v + 0.1) / 3, so that sums round;
    texts named in `special` get the vector given there instead."""

    def __init__(self, special=None, **kwargs):
        super().__init__(**kwargs)
        self.special = dict(special or {})

    def embed(self, text):
        if text in self.special:
            return np.asarray(self.special[text], dtype=np.float64)
        return np.sqrt(super().embed(text) + 0.1) / 3


def _pairwise_row(c, d, model, provider, cfg):
    """One candidate's ScoredCandidate, or its CandidateFailure, from the pairwise
    functions: today's shape and zero checks pair by pair, then the non-finite one."""
    summary = provider.embed(c.summary)
    sims, non_finite = [], None
    try:
        for other in (d.ground_truth_summary, serialize_rationale(c.rationale)):
            try:
                sims.append(cosine_similarity(summary, provider.embed(other)))
            except NonFiniteVector as exc:
                non_finite = non_finite or str(exc)
    except (DimensionMismatch, ZeroVector) as exc:
        return selection.CandidateFailure(c.index, str(exc))
    if non_finite:
        return selection.CandidateFailure(c.index, non_finite)
    n = cfg.fold_in_iterations
    p_doc = infer_topics(model, d.text, n)
    s_score = summary_score_from_sims(sims[0], sims[1], cfg.phi_alpha)
    c_score = coherence_score_from_kl(
        kl_divergence(p_doc, infer_topics(model, aspects_text(c.rationale), n)),
        kl_divergence(p_doc, infer_topics(model, rationale_text(c.rationale), n)),
        cfg.phi_beta,
    )
    return ScoredCandidate(c.index, s_score, c_score, combine_scores(s_score, c_score, cfg.lambda_cs))


def _pass_pairs(n_docs: int, seed: int):
    """Documents with 3 candidates each. Documents 1 and 3 share the ground truth
    and the candidate rationales of the document before them, and documents 0
    to 3 share their candidate summaries; from document 4 on, each text is the
    document's own."""
    rng = random.Random(seed)
    records = synthetic_records(n_docs, seed=seed)
    pairs = []
    for i, r in enumerate(records):
        shared = i in (1, 3)
        truth = records[i - 1]["summary"] if shared else r["summary"]
        rationales = (
            [c.rationale for c in pairs[-1][0].candidates]
            if shared
            else [random_rationale(rng) for _ in range(3)]
        )
        candidates = tuple(
            Candidate(j, rationale, f"shared summary {j}" if i < 4 else f"summary {i}.{j}")
            for j, rationale in enumerate(rationales)
        )
        pairs.append((CandidateSet(r["id"], candidates), Document(r["id"], r["document"], truth)))
    return [r["document"] for r in records], pairs


@pytest.mark.parametrize("dimension", [3, 8, 9, 1536])
@pytest.mark.parametrize("k", [2, 8, 32])
def test_a_pass_equals_the_pairwise_functions_bit_for_bit(dimension, k, monkeypatch, tmp_path):
    documents, pairs = _pass_pairs(12, seed=dimension * 100 + k)
    model = train_lda(documents, k=k, iterations=5, seed=1)
    cfg = SelectionConfig(fold_in_iterations=7)
    odd = np.sqrt(np.arange(dimension + 1) + 0.1) / 3

    def candidate(doc: int, j: int):
        return pairs[doc][0].candidates[j]

    special = {
        candidate(4, 1).summary: odd,  # another dimension than S_gt's
        serialize_rationale(candidate(5, 0).rationale): np.zeros(dimension),
        candidate(6, 2).summary: np.full(dimension, math.nan),
        serialize_rationale(candidate(7, 1).rationale): np.full(dimension, math.inf),
        # Zero against S_gt comes before the mismatch against R_i; and a zero
        # R_i before a non-finite S_i.
        candidate(8, 0).summary: np.zeros(dimension),
        serialize_rationale(candidate(8, 0).rationale): odd,
        candidate(9, 1).summary: np.full(dimension, math.nan),
        candidate(9, 2).summary: np.full(dimension, math.nan),
        serialize_rationale(candidate(9, 2).rationale): np.zeros(dimension),
        candidate(11, 0).summary: np.full(dimension, 1e-170),  # its norm underflows
    }
    # Document 10's vectors all have the other dimension, so its candidates score.
    d10 = pairs[10][1]
    special[d10.ground_truth_summary] = odd * 2
    for c in pairs[10][0].candidates:
        special[c.summary] = odd[::-1].copy()
        special[serialize_rationale(c.rationale)] = odd + c.index
    special[candidate(9, 2).summary] = np.full(dimension, math.nan)
    provider = FractionalProvider(special, seed=0, dimension=dimension)

    expected = []
    for cs, d in pairs:
        rows = [_pairwise_row(c, d, model, provider, cfg) for c in cs.candidates]
        expected.append((
            tuple(r for r in rows if isinstance(r, ScoredCandidate)),
            tuple(r for r in rows if isinstance(r, selection.CandidateFailure)),
        ))
    zero = "cosine similarity is undefined for an all-zero vector"
    underflow = "cosine similarity is undefined for a vector whose norm underflows to 0"
    assert [f.index for _, failures in expected for f in failures] == [1, 0, 2, 1, 0, 1, 2, 0]
    assert [f.reason for f in expected[8][1] + expected[9][1] + expected[11][1]] == [
        zero, _NON_FINITE, zero, underflow
    ]
    assert len(expected[10][0]) == 3

    for chunk, cache in ((32, None), (1, EmbeddingCache(tmp_path))):
        monkeypatch.setattr(selection, "_CHUNK_DOCUMENTS", chunk)
        with np.errstate(all="raise"):
            results = list(select_each(pairs, model, provider, cfg, cache))
        if cache is not None:
            cache.close()
        assert [(r.table, r.failures) for r in results] == expected


_KERNEL_SCRIPT = """
import hashlib, json
import numpy as np
from aspectsum.mock import MockLlmClient
from aspectsum.rationale import Aspect, Candidate, CandidateSet, Document, Rationale, Triple
from aspectsum.selection import SelectionConfig, cosine_similarity, select_each
from aspectsum.topics import train_lda
from aspectsum.workspace import jsonl_text


class Fractional(MockLlmClient):
    def embed(self, text):
        return np.sqrt(super().embed(text) + 0.1) / 3


words = ["storm", "flood", "rain", "river", "vote", "senate", "ballot", "poll"]
texts = [" ".join(words[(i + j * j) % 8] for j in range(12)) for i in range(24)]
provider = Fractional(seed=0, dimension=1536)
pairs = [
    (
        CandidateSet(f"d{i}", tuple(
            Candidate(j, Rationale((Aspect(texts[i + j]),), (Triple("a", texts[j], "b"),)),
                      texts[i + j + 1])
            for j in range(4)
        )),
        Document(f"d{i}", texts[i], texts[i + 2]),
    )
    for i in range(8)
]
model = train_lda(texts, k=3, iterations=5, seed=1)
cfg = SelectionConfig(fold_in_iterations=5)
vectors = [provider.embed(f"storm flood text {i} river") for i in range(100)]
cosines = [cosine_similarity(x, y).hex() for x, y in zip(vectors, vectors[1:])]
selections = jsonl_text(r.to_json(cfg) for r in select_each(pairs, model, provider, cfg))
print(json.dumps([cosines, hashlib.sha256(selections.encode()).hexdigest()]))
"""


def _blas_kernel_skip_reason() -> str | None:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name', 'unknown')}) is not a DYNAMIC_ARCH OpenBLAS"
    if platform.machine() != "x86_64" or not Path("/proc/cpuinfo").exists():
        return "OPENBLAS_CORETYPE Prescott and Sandybridge need an x86-64 Linux CPU"
    if " avx " not in Path("/proc/cpuinfo").read_text(encoding="utf-8") + " ":
        return "the CPU has no AVX, which OpenBLAS's Sandybridge kernels use"
    return None


def test_scores_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its dot kernel by CPU type; these two sum in different
    # orders, so np.dot of fractional vectors differs between them.
    reason = _blas_kernel_skip_reason()
    if reason:
        pytest.skip(reason)
    src = str(Path(selection.__file__).resolve().parents[1])
    outputs = []
    for core in ("Prescott", "Sandybridge"):
        env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(_KERNEL_SCRIPT)],
            env=env, capture_output=True, encoding="utf-8", check=True,
        )
        outputs.append(json.loads(run.stdout))
    assert outputs[0] == outputs[1]


class _RecordingConnection:
    """A cache's SQLite connection that records the '?' marks of each statement."""

    def __init__(self, db):
        self.db = db
        self.marks: list[int] = []

    def execute(self, sql, parameters=()):
        self.marks.append(sql.count("?"))
        return self.db.execute(sql, parameters)

    def __getattr__(self, name):
        return getattr(self.db, name)


def test_read_ahead_keeps_one_lookup_per_text_and_binds_at_most_64_keys(tmp_path, monkeypatch):
    texts = [f"storm text {i}" for i in range(150)]
    with EmbeddingCache(tmp_path) as cache:
        stored = text_embeddings(MockLlmClient(seed=0), texts[:140], cache)
    # Damage the row of a text that the second read-ahead statement carries.
    namespace = MockLlmClient(seed=0).cache_namespace
    damaged = hashlib.sha256(f"embedding\x00{namespace}\x00{texts[70]}".encode()).digest()
    assert damaged in cache_rows(tmp_path)
    write_cache_rows(tmp_path, {damaged: b"not zlib"})

    looked_up = []
    real_lookup = EmbeddingCache.lookup

    def lookup(self, namespace, text):
        looked_up.append(text)
        return real_lookup(self, namespace, text)

    monkeypatch.setattr(EmbeddingCache, "lookup", lookup)
    provider = MockLlmClient(seed=0)
    with EmbeddingCache(tmp_path) as cache:
        cache._db = recording = _RecordingConnection(cache._db)
        vectors = text_embeddings(provider, texts, cache)
        cache._db = recording.db
    assert looked_up == texts  # one lookup a text, in order, as without read-ahead
    assert provider.embed_calls == 1 + 10  # the damaged row and the 10 never stored
    assert max(recording.marks) == 64
    assert sorted(m for m in recording.marks if m > 2) == [22, 64, 64]
    for a, b in zip(vectors, stored + [MockLlmClient(seed=0).embed(t) for t in texts[140:]]):
        assert np.array_equal(a, b)
    # The store overwrote the damaged row.
    assert np.array_equal(np.frombuffer(zlib.decompress(cache_rows(tmp_path)[damaged])), vectors[70])
