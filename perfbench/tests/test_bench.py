"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import dataclasses
import json
import re

import pytest

import checks
import corpus
import run
import tracing
from tracing import Span

TINY = run.Workload(
    docs=6, doc_words=30, summary_words=8, planted_topics=3,
    config=dict(n_samples=2, lda_k=3, lda_iterations=3, fold_in_iterations=3, jobs=1),
)
TINY_WORKLOADS = {
    "topic-heavy": dataclasses.replace(TINY, config={**TINY.config, "jobs": 2}),
    "fanout-cold": TINY,
    "fanout-rescore": dataclasses.replace(TINY, rescore=True),
}


def test_generator_is_deterministic_for_a_seed():
    a = corpus.generate(5, n_docs=9, doc_words=20, summary_words=5, n_topics=3)
    assert a == corpus.generate(5, n_docs=9, doc_words=20, summary_words=5, n_topics=3)
    assert a != corpus.generate(6, n_docs=9, doc_words=20, summary_words=5, n_topics=3)
    topics = corpus.planted_topics(3)
    for d, record in enumerate(a):
        assert set(record["document"].split()) <= set(topics[d % 3])
        assert set(record["summary"].split()) <= set(topics[d % 3])


def test_self_time_on_a_hand_built_tree():
    root = Span("root", 0.0, end=10.0)
    a = Span("a", 1.0, root, end=4.0)
    b = Span("b", 3.0, root, thread=2, end=6.0)  # overlaps a on another thread
    leaf = Span("leaf", 2.0, a, end=3.0)
    late = Span("late", 9.0, root, thread=2, end=12.0)  # outlives its parent
    own = tracing.self_times([root, a, b, leaf, late])
    assert own[id(root)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[id(a)] == pytest.approx(2.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(leaf)] == pytest.approx(1.0)
    assert own[id(late)] == pytest.approx(3.0)


def test_tracer_parents_worker_spans_to_the_home_thread():
    import threading

    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    worker = threading.Thread(target=lambda: tracer.wrap("inner", lambda: None)())
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.end(outer)
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert len(inner) == 1 and inner[0].parent is outer


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY_WORKLOADS)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS_DIR", tmp_path / "results")
    return tmp_path


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workloads_run_end_to_end_and_emit_the_listed_metrics(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY.docs * run.MIN_ITERATIONS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in result["metrics"])

    values = {k: v["value"] for k, v in result["metrics"].items()}
    rescore = TINY_WORKLOADS[workload].rescore
    if trace:
        assert values["clients.complete_calls"] == (0 if rescore else TINY.docs * 2)
        if rescore:
            assert values["probe.response_cache.hit_frac"] == 1.0
            assert values["probe.embedding_cache.hit_frac"] == 1.0
            assert values["topics.model_load_s"] > 0.0
    else:
        # n completions and 2n + 1 embeddings per document, for the cold run
        # (fanout-rescore counts its priming run; the timed run makes none).
        assert values["provider_requests_per_doc"] == 2 + 5
        assert values["doc_pass_frac"] == 1.0
    details = json.loads((tiny / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert "ledger.jsonl" in details["digests"]
    assert not any(p.startswith("cache/") for p in details["digests"])
    assert not list((tiny / "work").iterdir())


def test_program_missing_exits_nonzero(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code != 0


def _run_tiny_pipeline(path):
    from aspectsum import pipeline
    from aspectsum.config import build_config
    from aspectsum.mock import MockLlmClient
    from aspectsum.workspace import Workspace

    records = corpus.generate(1, TINY.docs, TINY.doc_words, TINY.summary_words, 3)
    corpus.write_jsonl(path / "in.jsonl", records)
    ws = Workspace(path / "ws")
    cfg = build_config("custom", overrides=TINY.config)
    pipeline.run_all(ws, cfg, path / "in.jsonl", MockLlmClient())
    return path / "ws", [r["id"] for r in records]


def test_checks_pass_on_a_good_workspace_and_catch_damage(tmp_path):
    root, ids = _run_tiny_pipeline(tmp_path)
    assert checks.check_workspace(root, ids) == (set(), [])

    selections = root / "selection" / "selections.jsonl"
    lines = selections.read_text().splitlines()
    record = json.loads(lines[0])
    record["golden_index"] = (record["golden_index"] + 1) % len(record["candidates"])
    selections.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
    failed, _ = checks.check_workspace(root, ids)
    assert failed == {ids[0]}

    manifest = root / "manifests" / "04_concurrent_early.jsonl"
    manifest.write_text(manifest.read_text().replace(ids[1], ids[2]))
    failed, problems = checks.check_workspace(root, ids)
    assert failed == set(ids) and any("04_concurrent_early" in p for p in problems)


def test_install_restores_every_patched_name(tmp_path):
    from aspectsum import pipeline, probe, selection
    from aspectsum.mock import MockLlmClient
    from aspectsum.workspace import Workspace

    before = (pipeline.stage_select, selection.infer_topics, probe.parse_probe_response,
              Workspace.__dict__["write_text"], pipeline.EchoTrainerAdapter)
    tracing.install(tracing.Tracer(), MockLlmClient()).restore()
    after = (pipeline.stage_select, selection.infer_topics, probe.parse_probe_response,
             Workspace.__dict__["write_text"], pipeline.EchoTrainerAdapter)
    assert before == after
