from __future__ import annotations

import math
import random

import numpy as np
import pytest

from aspectsum.clients import LlmClient
from aspectsum.errors import (
    AllCandidatesFailed,
    DimensionMismatch,
    EmptyText,
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
    select_corpus,
    select_golden,
    summary_score_from_sims,
    text_embedding,
)
from aspectsum.topics import infer_topics, kl_divergence, train_lda


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
    with pytest.raises(ZeroVector):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DimensionMismatch):
        cosine_similarity([1.0], [1.0, 0.0])


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
            raise TransportError("provider outage")
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
    assert "outage" in result.failures[0].reason


def test_select_golden_all_failed(tiny_model):
    d = Document("doc-x", "storm flood", "storm")
    cs = _candidate_set()
    provider = FlakyProvider("", seed=0)  # poisons everything
    with pytest.raises(AllCandidatesFailed):
        select_golden(cs, d, tiny_model, provider, SelectionConfig(fold_in_iterations=5))


def test_select_corpus_equals_select_golden_and_embeds_each_text_once(tiny_model):
    # Two documents share a reference summary and a candidate summary.
    d1 = Document("doc-1", "storm flood rain river", "storm flooded the river")
    d2 = Document("doc-2", "vote senate ballot poll", "storm flooded the river")
    cs1, cs2 = _candidate_set("doc-1"), _candidate_set("doc-2")
    cfg = SelectionConfig(fold_in_iterations=10)
    provider = MockLlmClient(seed=0)
    batch = select_corpus([(cs1, d1), (cs2, d2)], tiny_model, provider, cfg)
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
