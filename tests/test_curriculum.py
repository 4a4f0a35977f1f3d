from __future__ import annotations

import json

import pytest

from aspectsum.curriculum import (
    ARTICLE_TOKEN,
    ASPECTS_TOKEN,
    CANONICAL_STAGE_ORDER,
    SUMMARY_TOKEN,
    TRIPLES_TOKEN,
    Stage,
    TaskKind,
    TrainerAdapter,
    TrainingExample,
    article_segment,
    build_concurrent_early_manifest,
    build_concurrent_late_manifest,
    build_joint_manifest,
    build_singular_manifests,
    find_reserved_token,
    run_curriculum,
    split_joint_target,
)
from aspectsum.errors import (
    DecodeFailure,
    MissingRationale,
    ReservedTokenCollision,
    StageOrderViolation,
)
from aspectsum.mock import EchoTrainerAdapter
from aspectsum.rationale import (
    Aspect,
    Document,
    Rationale,
    Triple,
    serialize_aspects,
    serialize_rationale,
    serialize_triples,
)


def _segment(input_text: str, token: str, next_tokens: tuple[str, ...]) -> str:
    """Independent segment extractor for assertions."""
    start = input_text.index(token) + len(token) + 1
    positions = [input_text.find(t, start) for t in next_tokens]
    positions = [p for p in positions if p >= 0]
    return input_text[start : min(positions) - 1] if positions else input_text[start:]


def make_pairs(n=3):
    pairs = []
    for i in range(n):
        d = Document(
            f"doc-{i}",
            f"article {i} about storms and rivers with plenty of words",
            f"summary {i} of the storm",
        )
        r = Rationale(
            aspects=(Aspect(f"storm {i}"), Aspect("river levels")),
            triples=(
                Triple("storm", "flooded", f"river {i}"),
                Triple("crews", "repaired", "levee"),
            ),
        )
        pairs.append((d, r))
    return pairs


def test_prefix_tokens_are_distinct_ascii():
    prefixes = [t.prefix for t in TaskKind]
    assert prefixes == ["<AspExt>", "<TriExt>", "<SumGen>", "<RatGen>"]
    assert len(set(prefixes)) == 4
    assert find_reserved_token("plain text") is None
    assert find_reserved_token("has <article> inside") == "<article>"


def test_singular_manifests_structure():
    pairs = make_pairs(1)
    d, r = pairs[0]
    m_aspect, m_triple, m_summary = build_singular_manifests(pairs)
    assert (m_aspect.stage, m_triple.stage, m_summary.stage) == (
        Stage.SINGULAR_ASPECT,
        Stage.SINGULAR_TRIPLE,
        Stage.SINGULAR_SUMMARY,
    )
    for manifest, task in (
        (m_aspect, TaskKind.ASP_EXT),
        (m_triple, TaskKind.TRI_EXT),
        (m_summary, TaskKind.SUM_GEN),
    ):
        assert len(manifest.examples) == 1
        ex = manifest.examples[0]
        assert ex.task is task
        assert ex.input.startswith(task.prefix)
        assert ex.loss_weight == 1.0

    tri_input = m_triple.examples[0].input
    assert serialize_aspects(r.aspects) in tri_input
    assert serialize_triples(r.triples) not in tri_input
    assert m_aspect.examples[0].target == serialize_aspects(r.aspects)
    assert m_triple.examples[0].target == serialize_triples(r.triples)
    assert m_summary.examples[0].target == d.ground_truth_summary


def test_early_manifest_three_examples_per_document():
    pairs = make_pairs(4)
    manifest = build_concurrent_early_manifest(pairs)
    assert manifest.stage is Stage.CONCURRENT_EARLY
    assert len(manifest.examples) == 3 * 4
    for (d, r) in pairs:
        doc_examples = [ex for ex in manifest.examples if ex.document_id == d.id]
        by_task = {ex.task: ex for ex in doc_examples}
        tri_cond = _segment(by_task[TaskKind.TRI_EXT].input, ASPECTS_TOKEN, (TRIPLES_TOKEN,))
        assert tri_cond == serialize_aspects(r.aspects)
        sum_cond_aspects = _segment(
            by_task[TaskKind.SUM_GEN].input, ASPECTS_TOKEN, (TRIPLES_TOKEN,)
        )
        sum_cond_triples = _segment(by_task[TaskKind.SUM_GEN].input, TRIPLES_TOKEN, ())
        assert sum_cond_aspects == serialize_aspects(r.aspects)
        assert sum_cond_triples == serialize_triples(r.triples)
        assert all(ex.provenance == "golden" for ex in doc_examples)


def test_late_manifest_with_echo_equals_early_except_provenance():
    pairs = make_pairs(3)
    adapter = EchoTrainerAdapter(pairs)
    early = build_concurrent_early_manifest(pairs)
    late = build_concurrent_late_manifest(pairs, adapter)
    assert late.stage is Stage.CONCURRENT_LATE
    stripped_early = [(e.task, e.input, e.target, e.loss_weight) for e in early.examples]
    stripped_late = [(e.task, e.input, e.target, e.loss_weight) for e in late.examples]
    assert stripped_early == stripped_late
    assert all(e.provenance == "golden" for e in early.examples)
    assert all(e.provenance == "model" for e in late.examples)


def test_late_manifest_decode_call_count():
    pairs = make_pairs(5)
    adapter = EchoTrainerAdapter(pairs)
    build_concurrent_late_manifest(pairs, adapter)
    assert adapter.decode_calls == 2 * 5
    assert adapter.decode_calls_by_task[TaskKind.ASP_EXT] == 5
    assert adapter.decode_calls_by_task[TaskKind.TRI_EXT] == 5


class CorruptingAdapter(EchoTrainerAdapter):
    """Echoes garbage aspects but valid triples."""

    def greedy_decode(self, task, input):
        if task is TaskKind.ASP_EXT:
            with self._lock:
                self.decode_calls += 1
            return "corrupted; aspects"
        return super().greedy_decode(task, input)


def test_late_manifest_embeds_corrupted_decode_output():
    pairs = make_pairs(2)
    adapter = CorruptingAdapter(pairs)
    late = build_concurrent_late_manifest(pairs, adapter)
    for (d, r) in pairs:
        tri = next(
            ex
            for ex in late.examples
            if ex.document_id == d.id and ex.task is TaskKind.TRI_EXT
        )
        cond = _segment(tri.input, ASPECTS_TOKEN, (TRIPLES_TOKEN,))
        assert cond == "corrupted; aspects"  # conditioning is the decode output
        assert tri.target == serialize_triples(r.triples)  # target stays golden


class FailingAdapter(EchoTrainerAdapter):
    def __init__(self, pairs, fail_for: str):
        super().__init__(pairs)
        self.fail_for = fail_for

    def greedy_decode(self, task, input):
        if self.fail_for in input:
            raise DecodeFailure("cannot decode")
        return super().greedy_decode(task, input)


def test_late_manifest_skips_failed_documents():
    pairs = make_pairs(3)
    adapter = FailingAdapter(pairs, fail_for="article 1 ")
    late = build_concurrent_late_manifest(pairs, adapter)
    assert len(late.examples) == 3 * 2
    assert [s.document_id for s in late.skipped] == ["doc-1"]
    assert "cannot decode" in late.skipped[0].reason


def test_late_manifest_rejects_reserved_decode_output():
    pairs = make_pairs(1)

    class Hostile(EchoTrainerAdapter):
        def greedy_decode(self, task, input):
            return f"bad {SUMMARY_TOKEN} output"

    late = build_concurrent_late_manifest(pairs, Hostile(pairs))
    assert late.examples == ()
    assert len(late.skipped) == 1


def test_joint_manifest_contract():
    pairs = make_pairs(3)
    manifest = build_joint_manifest(pairs)
    assert manifest.stage is Stage.JOINT
    assert manifest.loss_config == {"rationale": 0.8, "summary": 1.2}
    assert len(manifest.examples) == 3  # one example per document
    for ex, (d, r) in zip(manifest.examples, pairs):
        assert ex.task is TaskKind.RAT_GEN
        assert ex.input == f"<RatGen> {ARTICLE_TOKEN} {d.text}"
        recovered_rationale, recovered_summary = split_joint_target(ex.target)
        assert recovered_rationale == r
        assert recovered_summary == d.ground_truth_summary


def test_joint_manifest_custom_weights():
    manifest = build_joint_manifest(make_pairs(1), lambda_rationale=0.5, lambda_summary=1.5)
    assert manifest.loss_config == {"rationale": 0.5, "summary": 1.5}


def test_split_joint_target_requires_marker():
    with pytest.raises(ValueError):
        split_joint_target("Aspects: a\nTriples: [x | y | z] no marker")


def test_missing_rationale_raises():
    d = Document("d", "text body", "summary")
    with pytest.raises(MissingRationale):
        build_joint_manifest([(d, None)])
    with pytest.raises(MissingRationale):
        build_singular_manifests([(d, None)])


def test_reserved_token_in_rationale_rejected():
    d = Document("d", "text body", "summary")
    r = Rationale((Aspect("has <summary> marker"),), (Triple("a", "b", "c"),))
    with pytest.raises(ReservedTokenCollision):
        build_joint_manifest([(d, r)])


def test_reserved_token_in_document_rejected():
    r = Rationale((Aspect("clean"),), (Triple("a", "b", "c"),))
    dirty_doc = Document("d", "text with <aspects> marker", "summary")
    with pytest.raises(ReservedTokenCollision):
        build_concurrent_early_manifest([(dirty_doc, r)])
    dirty_summary = Document("d", "text", "summary with <RatGen>")
    with pytest.raises(ReservedTokenCollision):
        build_joint_manifest([(dirty_summary, r)])


def test_training_example_validation():
    with pytest.raises(ValueError):
        TrainingExample(TaskKind.ASP_EXT, "<TriExt> <article> x", "t", "d")
    with pytest.raises(ValueError):
        TrainingExample(TaskKind.ASP_EXT, "<AspExt> no article marker", "t", "d")
    with pytest.raises(ValueError):
        TrainingExample(
            TaskKind.SUM_GEN,
            f"<SumGen> {TRIPLES_TOKEN} t {ARTICLE_TOKEN} x {ASPECTS_TOKEN} a",
            "t",
            "d",
        )
    with pytest.raises(ValueError):
        TrainingExample(TaskKind.ASP_EXT, "<AspExt> <article> x", "t", "d", loss_weight=0.0)


def test_article_segment_round_trip():
    d = Document("d", "multi word article\nwith a newline", "s")
    r = Rationale((Aspect("a"),), (Triple("x", "y", "z"),))
    manifest = build_concurrent_early_manifest([(d, r)])
    for ex in manifest.examples:
        assert article_segment(ex.input) == d.text


def test_manifest_jsonl_and_digest():
    pairs = make_pairs(2)
    manifest = build_joint_manifest(pairs)
    lines = manifest.to_jsonl().splitlines()
    assert len(lines) == 2
    row = json.loads(lines[0])
    assert set(row) == {
        "stage", "task", "input", "target", "loss_weight", "document_id", "provenance",
    }
    assert row["stage"] == "joint"
    assert manifest.digest() == build_joint_manifest(pairs).digest()


def test_run_curriculum_full_plan():
    pairs = make_pairs(2)
    adapter = EchoTrainerAdapter(pairs)
    manifests = []
    entries = run_curriculum(pairs, adapter, on_manifest=manifests.append)
    assert [e["stage"] for e in entries] == [s.value for s in CANONICAL_STAGE_ORDER]
    assert [m.stage for m in manifests] == list(CANONICAL_STAGE_ORDER)
    assert adapter.trained_stages == [s.value for s in CANONICAL_STAGE_ORDER]
    for entry, manifest in zip(entries, manifests):
        assert entry["digest"] == manifest.digest()
        assert entry["example_count"] > 0
        assert entry["metrics"]["examples"] == entry["example_count"]


def test_run_curriculum_deterministic_digests():
    pairs = make_pairs(2)
    r1 = run_curriculum(pairs, EchoTrainerAdapter(pairs))
    r2 = run_curriculum(pairs, EchoTrainerAdapter(pairs))
    assert [e["digest"] for e in r1] == [e["digest"] for e in r2]


def test_plan_skipping_requires_override():
    pairs = make_pairs(1)
    adapter = EchoTrainerAdapter(pairs)
    with pytest.raises(StageOrderViolation):
        run_curriculum(pairs, adapter, stages=(Stage.JOINT,))
    entries = run_curriculum(pairs, adapter, stages=(Stage.JOINT,), override_stage_order=True)
    assert [e["stage"] for e in entries] == ["joint"]


def test_plan_reorder_or_repeat_always_rejected():
    pairs = make_pairs(1)
    adapter = EchoTrainerAdapter(pairs)
    bad_plans = [
        (Stage.SINGULAR_TRIPLE, Stage.SINGULAR_ASPECT),
        (Stage.JOINT, Stage.JOINT),
        (),
    ]
    for stages in bad_plans:
        with pytest.raises(StageOrderViolation):
            run_curriculum(pairs, adapter, stages=stages, override_stage_order=True)


class AbortingAdapter(EchoTrainerAdapter):
    def __init__(self, pairs, fail_on_stage: str):
        super().__init__(pairs)
        self.fail_on_stage = fail_on_stage

    def train(self, manifest):
        if manifest.stage.value == self.fail_on_stage:
            raise RuntimeError("trainer crashed")
        return super().train(manifest)


def test_checkpoint_resume():
    """The entries reported after each stage are the record a re-run resumes from."""
    pairs = make_pairs(2)
    reported = []
    with pytest.raises(RuntimeError):
        run_curriculum(
            pairs,
            AbortingAdapter(pairs, "singular_summary"),
            on_stage=lambda entries: reported.append(list(entries)),
        )
    recorded = reported[-1]
    assert [e["stage"] for e in recorded] == ["singular_aspect", "singular_triple"]

    resumed = EchoTrainerAdapter(pairs)
    manifests = []
    entries = run_curriculum(pairs, resumed, recorded=recorded, on_manifest=manifests.append)
    # Every manifest is built again; the two recorded stages are not retrained.
    assert [m.stage for m in manifests] == list(CANONICAL_STAGE_ORDER)
    assert resumed.trained_stages == [
        "singular_summary", "concurrent_early", "concurrent_late", "joint",
    ]
    assert entries == run_curriculum(pairs, EchoTrainerAdapter(pairs))


def test_checkpoint_key_mismatch_restarts():
    """Training resumes only through the leading stages whose digests still match."""
    pairs = make_pairs(1)
    recorded = run_curriculum(pairs, EchoTrainerAdapter(pairs))
    changed = [dict(e) for e in recorded]
    changed[1]["digest"] = "0" * 64
    adapter = EchoTrainerAdapter(pairs)
    run_curriculum(pairs, adapter, recorded=changed)
    assert adapter.trained_stages == [s.value for s in CANONICAL_STAGE_ORDER[1:]]

    other = make_pairs(2)
    fresh = EchoTrainerAdapter(pairs)
    run_curriculum(pairs, fresh, recorded=run_curriculum(other, EchoTrainerAdapter(other)))
    assert len(fresh.trained_stages) == 6  # a record of other manifests is ignored


def test_trainer_adapter_is_abstract():
    with pytest.raises(TypeError):
        TrainerAdapter()
