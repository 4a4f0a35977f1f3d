from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import aspectsum
from aspectsum import cli as cli_module
from aspectsum import topics
from aspectsum.cli import main
from aspectsum.config import PipelineConfig, build_config
from aspectsum.curriculum import CANONICAL_STAGE_ORDER, Stage
from aspectsum.errors import (
    DuplicateId,
    InsufficientValidSamples,
    MissingPrerequisite,
    SchemaError,
    WorkspaceLocked,
)
from aspectsum.mock import MockLlmClient
from aspectsum.pipeline import (
    stage_curriculum,
    stage_eval,
    stage_ingest,
    stage_probe,
    stage_select,
)
from aspectsum.textutil import stable_digest
from aspectsum.topics import LdaModel, train_lda
from aspectsum.workspace import Workspace, dump_json, file_sha256, jsonl_text
from conftest import (
    cache_rows,
    synthetic_records,
    user_version,
    write_cache_rows,
    write_jsonl,
    write_legacy_cache,
)

CFG = dict(n_samples=2, lda_k=3, lda_iterations=40, fold_in_iterations=10, seed=5)


def small_config(**extra):
    overrides = dict(CFG)
    overrides.update(extra)
    return build_config(profile="custom", overrides=overrides)


@pytest.fixture
def corpus_file(tmp_path):
    return write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(6))


def tree_hashes(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).rglob("*"))
        if p.is_file()
    }


def embedding_key(namespace: str, text: str) -> bytes:
    return hashlib.sha256("\x00".join(("embedding", namespace, text)).encode()).digest()


# -- ingest -------------------------------------------------------------------


def long_text(n: int) -> str:
    return " ".join(["w"] * n)


def test_ingest_filters_by_token_limits(tmp_path):
    records = []
    for i in range(8):
        records.append({"id": f"ok-{i}", "document": "short doc", "summary": "short"})
    records.append({"id": "long-1", "document": long_text(1025), "summary": "s"})
    records.append({"id": "long-2", "document": long_text(2000), "summary": "s"})
    path = write_jsonl(tmp_path / "in.jsonl", records)

    ws = Workspace(tmp_path / "ws")
    report = stage_ingest(ws, small_config(), path)
    assert report["ingested"] == 8
    assert report["excluded"]["doc_too_long"] == 2
    assert report["excluded_ids"]["doc_too_long"] == ["long-1", "long-2"]
    assert {d.id for d in ws.load_corpus()} == {f"ok-{i}" for i in range(8)}


def test_ingest_boundary_token_counts(tmp_path):
    records = [
        {"id": "doc-1024", "document": long_text(1024), "summary": "s"},
        {"id": "doc-1025", "document": long_text(1025), "summary": "s"},
        {"id": "sum-256", "document": "d", "summary": long_text(256)},
        {"id": "sum-257", "document": "d", "summary": long_text(257)},
    ]
    path = write_jsonl(tmp_path / "in.jsonl", records)
    ws = Workspace(tmp_path / "ws")
    report = stage_ingest(ws, small_config(), path)
    kept = {d.id for d in ws.load_corpus()}
    assert kept == {"doc-1024", "sum-256"}
    assert report["excluded"] == {
        "empty": 0,
        "doc_too_long": 1,
        "summary_too_long": 1,
        "reserved_token": 0,
    }


def test_ingest_rejects_reserved_tokens(tmp_path):
    records = [
        {"id": "bad", "document": "contains <article> token", "summary": "s"},
        {"id": "bad2", "document": "d", "summary": "ends with <RatGen>"},
        {"id": "good", "document": "clean", "summary": "clean"},
    ]
    path = write_jsonl(tmp_path / "in.jsonl", records)
    ws = Workspace(tmp_path / "ws")
    report = stage_ingest(ws, small_config(), path)
    assert report["excluded"]["reserved_token"] == 2
    assert [d.id for d in ws.load_corpus()] == ["good"]


def test_ingest_excludes_empty_records(tmp_path):
    from aspectsum.pipeline import run_all

    records = synthetic_records(4)
    records.append({"id": "no-doc", "document": "", "summary": "s"})
    records.append({"id": "blank-summary", "document": "d", "summary": " \n\t"})
    path = write_jsonl(tmp_path / "in.jsonl", records)
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    result = run_all(ws, cfg, path, MockLlmClient(seed=cfg.seed))
    assert result["ingest"]["excluded_ids"]["empty"] == ["no-doc", "blank-summary"]
    assert result["eval"]["documents"] == 4


def test_ingest_duplicate_id(tmp_path):
    path = write_jsonl(
        tmp_path / "in.jsonl",
        [
            {"id": "a", "document": "d", "summary": "s"},
            {"id": "a", "document": "d2", "summary": "s2"},
        ],
    )
    with pytest.raises(DuplicateId) as err:
        stage_ingest(Workspace(tmp_path / "ws"), small_config(), path)
    assert str(err.value) == f"duplicate id 'a' in {path}"


def _schema_case(line: str, needle: str, message: str):
    return pytest.param(line, message, id=f"{line}-{needle}")


@pytest.mark.parametrize(
    "line,message",
    [
        _schema_case("not json", "line 1", "invalid JSON: Expecting value"),
        _schema_case('{"id": "a", "document": "d"}', "summary", "missing field 'summary'"),
        _schema_case(
            '{"id": "a", "document": 5, "summary": "s"}',
            "document",
            "field 'document' is not a string",
        ),
        _schema_case('{"id": "  ", "document": "d", "summary": "s"}', "id", "empty id"),
        _schema_case('["not", "object"]', "object", "record is not a JSON object"),
    ],
)
def test_ingest_schema_errors(tmp_path, line, message):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        stage_ingest(Workspace(tmp_path / "ws"), small_config(), path)
    assert str(err.value) == f"{path}, line 1: {message}"


def test_ingest_empty_file(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        stage_ingest(Workspace(tmp_path / "ws"), small_config(), path)
    with pytest.raises(SchemaError):
        stage_ingest(Workspace(tmp_path / "ws2"), small_config(), tmp_path / "missing.jsonl")


# -- stage ordering -------------------------------------------------------------


def test_stage_prerequisites(tmp_path):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    with pytest.raises(MissingPrerequisite, match="corpus"):
        stage_probe(ws, cfg, client)
    with pytest.raises(MissingPrerequisite, match="corpus"):
        stage_select(ws, cfg, client)
    with pytest.raises(MissingPrerequisite, match="selections"):
        stage_curriculum(ws, cfg)
    with pytest.raises(MissingPrerequisite):
        stage_eval(ws, cfg)


def test_select_before_probe_names_missing_artifact(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    with pytest.raises(MissingPrerequisite, match="candidates"):
        stage_select(ws, cfg, MockLlmClient(seed=cfg.seed))


def test_eval_golden_index_past_reprobed_set(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config(n_samples=3)
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)
    assert max(record["golden_index"] for record in ws.load_selections()) >= 1

    # Re-probing with fewer samples leaves the selections pointing past the
    # end of some candidate sets.
    smaller = small_config(n_samples=1)
    stage_probe(ws, smaller, client)
    with pytest.raises(MissingPrerequisite, match="candidate"):
        stage_eval(ws, smaller)


@pytest.mark.parametrize("stage", [stage_curriculum, stage_eval], ids=["curriculum", "eval"])
def test_stage_refuses_selections_from_earlier_probe(tmp_path, corpus_file, stage):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)

    reseeded = small_config(seed=6)
    stage_probe(ws, reseeded, MockLlmClient(seed=reseeded.seed))
    before = tree_hashes(ws.root)
    # The selections were scored on the seed-5 candidates.
    with pytest.raises(MissingPrerequisite, match="re-run select"):
        stage(ws, reseeded)
    assert tree_hashes(ws.root) == before


def test_select_refuses_candidates_from_earlier_corpus(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)

    records = [dict(r, summary=r["summary"] + " revised") for r in synthetic_records(6)]
    stage_ingest(ws, cfg, write_jsonl(tmp_path / "revised.jsonl", records))
    before = tree_hashes(ws.root)
    # Same ids, but the candidates were probed from the old summaries.
    with pytest.raises(MissingPrerequisite, match="re-run probe"):
        stage_select(ws, cfg, client)
    assert tree_hashes(ws.root) == before


def test_eval_rejects_hand_edited_golden_index(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)

    records = ws.load_selections()
    records[0]["golden_index"] = cfg.n_samples
    ws.selections_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with pytest.raises(MissingPrerequisite, match=f"candidate {cfg.n_samples} of document"):
        stage_eval(ws, cfg)


def test_eval_names_a_selection_out_of_corpus_order(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)

    lines = ws.selections_path.read_text(encoding="utf-8").splitlines(keepends=True)
    ws.selections_path.write_text("".join(lines[1:] + lines[:1]), encoding="utf-8")
    # eval reads the files side by side: doc-000, now last, is behind it.
    with pytest.raises(MissingPrerequisite, match="corpus document doc-000, in corpus order"):
        stage_eval(ws, cfg)
    assert not ws.eval_json_path.parent.exists()


def test_joint_manifest_uses_configured_loss_weights(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config(lambda_rationale=0.5, lambda_summary=1.5)
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    meta = json.loads((ws.manifests_dir / "06_joint.meta.json").read_text(encoding="utf-8"))
    assert meta["loss_config"] == {"rationale": 0.5, "summary": 1.5}


def _recording_adapters(monkeypatch) -> list:
    """The default adapters stage_curriculum builds from now on, in order."""
    from aspectsum import pipeline
    from aspectsum.mock import EchoTrainerAdapter

    adapters = []

    def recording(pairs):
        adapters.append(EchoTrainerAdapter(pairs))
        return adapters[-1]

    monkeypatch.setattr(pipeline, "EchoTrainerAdapter", recording)
    return adapters


def _counting_train_lda(monkeypatch) -> list:
    """One entry per train_lda call the pipeline makes from now on."""
    from aspectsum import pipeline

    calls = []
    train = pipeline.train_lda
    monkeypatch.setattr(pipeline, "train_lda", lambda *a, **k: calls.append(1) or train(*a, **k))
    return calls


def test_deleted_manifest_is_rebuilt_without_retraining(tmp_path, corpus_file, monkeypatch):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    before = tree_hashes(ws.root)
    before.pop("ledger.jsonl")
    names = sorted(path.name for path in ws.manifests_dir.iterdir())
    assert len(names) == 12  # six examples files and six sidecars

    adapters = _recording_adapters(monkeypatch)
    for name in names:
        (ws.manifests_dir / name).unlink()
        ledger = ws.ledger_path.read_bytes()
        result = stage_curriculum(ws, cfg)
        assert not result["skipped"] and not result["config_changed"], name
        assert adapters[-1].trained_stages == [], name
        after = tree_hashes(ws.root)
        # Only the ledger changed: it records the run that rewrote the file.
        assert ws.ledger_path.read_bytes() != ledger
        after.pop("ledger.jsonl")
        assert after == before, name
        assert stage_curriculum(ws, cfg)["skipped"]
    assert len(adapters) == len(names)


def _full_lines(manifest) -> list[str]:
    """The manifest's lines with each full input under "input", as
    Workspace.manifest_examples yields them."""
    return [
        dump_json({
            "stage": manifest.stage.value, "task": ex.task.value, "input": ex.input,
            "target": ex.target, "loss_weight": ex.loss_weight,
            "document_id": ex.document_id, "provenance": ex.provenance,
        }) + "\n"
        for ex in manifest.examples
    ]


def _run_all_keeping_manifests(tmp_path, corpus_file, monkeypatch):
    """(workspace, the six StageManifests its curriculum trained on)."""
    from aspectsum import pipeline
    from aspectsum.mock import EchoTrainerAdapter

    manifests = []

    class Keeping(EchoTrainerAdapter):
        def train(self, manifest):
            manifests.append(manifest)
            return super().train(manifest)

    monkeypatch.setattr(pipeline, "EchoTrainerAdapter", Keeping)
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    pipeline.run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert [m.stage for m in manifests] == list(CANONICAL_STAGE_ORDER)
    return ws, manifests


def test_manifests_carry_no_article_and_the_reader_restores_each_line(
    tmp_path, corpus_file, monkeypatch
):
    ws, manifests = _run_all_keeping_manifests(tmp_path, corpus_file, monkeypatch)
    texts = {doc.id: doc.text for doc in ws.corpus()}
    for manifest in manifests:
        lines = ws.manifest_paths(manifest.stage)[0].read_text(encoding="utf-8").split("\n")
        assert lines.pop() == ""
        assert len(lines) == len(manifest.examples) > 0
        for line in lines:
            obj = json.loads(line)
            assert "input" not in obj and "input_without_article" in obj
            assert dump_json(texts[obj["document_id"]])[1:-1] not in line
        restored = [dump_json(obj) + "\n" for obj in ws.manifest_examples(manifest.stage)]
        assert restored == _full_lines(manifest), manifest.stage


def test_manifest_reader_refuses_a_line_without_its_article_token(
    tmp_path, corpus_file, monkeypatch
):
    ws, _ = _run_all_keeping_manifests(tmp_path, corpus_file, monkeypatch)
    path = ws.manifest_paths(Stage.JOINT)[0]
    first, second, *rest = path.read_text(encoding="utf-8").split("\n")
    second = second.replace("<RatGen> <article>", "<RatGen>")
    path.write_text("\n".join([first, second, *rest]), encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{path}, line 2: .*has no <article>"):
        list(ws.manifest_examples(Stage.JOINT))


def test_manifest_reader_refuses_a_manifest_of_an_earlier_corpus(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    records = synthetic_records(6)
    records[0]["document"] = "an entirely different article about the harbour"
    stage_ingest(ws, cfg, write_jsonl(tmp_path / "revised.jsonl", records))
    for stage in CANONICAL_STAGE_ORDER:
        with pytest.raises(MissingPrerequisite, match="re-run curriculum"):
            next(ws.manifest_examples(stage))


def test_manifest_reader_names_a_missing_corpus(tmp_path):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, write_jsonl(tmp_path / "in.jsonl", synthetic_records(4)),
            MockLlmClient(seed=cfg.seed))
    ws.corpus_path.unlink()
    with pytest.raises(MissingPrerequisite) as raised:
        next(ws.manifest_examples(Stage.JOINT))
    assert raised.value.artifact == "corpus"


def test_curriculum_reruns_when_only_the_corpus_changed(tmp_path, corpus_file, monkeypatch):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    run_all(ws, cfg, corpus_file, client)
    selections = ws.selections_path.read_bytes()
    records = synthetic_records(6)
    records[0]["summary"] += " revised"
    stage_ingest(ws, cfg, write_jsonl(tmp_path / "revised.jsonl", records))
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)
    # Selections of the same bytes, as when a corpus edit changes no golden
    # choice and no score: the targets and sidecars still come from the corpus.
    ws.selections_path.write_bytes(selections)
    adapters = _recording_adapters(monkeypatch)
    assert not stage_curriculum(ws, cfg)["skipped"]
    assert len(adapters) == 1
    joint = next(ws.manifest_examples(Stage.JOINT))
    assert joint["document_id"] == "doc-000"
    assert joint["target"].endswith(records[0]["summary"])


def test_older_manifests_are_rewritten_once_without_a_provider(
    tmp_path, corpus_file, monkeypatch
):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    fresh = tree_hashes(ws.root)
    # A workspace written before the sidecars held corpus_sha256: the
    # curriculum digest hashed the selections alone, and keyed the report.
    old_digest = stable_digest("curriculum", cfg.digest(), file_sha256(ws.selections_path))[:16]
    for stage in CANONICAL_STAGE_ORDER:
        meta = ws.manifest_paths(stage)[1]
        sidecar = json.loads(meta.read_text(encoding="utf-8"))
        del sidecar["corpus_sha256"]
        meta.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    report = json.loads(ws.curriculum_report_path.read_text(encoding="utf-8"))
    ws.curriculum_report_path.write_text(json.dumps(dict(report, key=old_digest)), encoding="utf-8")
    ws.append_ledger("curriculum", old_digest, cfg.digest(), [])
    with pytest.raises(MissingPrerequisite, match="joint manifest .*; re-run curriculum"):
        list(ws.manifest_examples(Stage.JOINT))

    adapters = _recording_adapters(monkeypatch)
    assert not stage_curriculum(ws, cfg)["skipped"]
    assert adapters[0].trained_stages == [s.value for s in CANONICAL_STAGE_ORDER]
    after = tree_hashes(ws.root)
    assert after.pop("ledger.jsonl") != fresh.pop("ledger.jsonl")
    assert after == fresh
    assert stage_curriculum(ws, cfg)["skipped"]
    assert all(list(ws.manifest_examples(stage)) for stage in CANONICAL_STAGE_ORDER)


def test_manifest_reader_names_a_line_out_of_corpus_order(tmp_path, corpus_file, monkeypatch):
    ws, _ = _run_all_keeping_manifests(tmp_path, corpus_file, monkeypatch)
    path = ws.manifest_paths(Stage.JOINT)[0]
    first, second, *rest = path.read_text(encoding="utf-8").split("\n")
    path.write_text("\n".join([second, first, *rest]), encoding="utf-8")
    missing = json.loads(first)["document_id"]
    with pytest.raises(MissingPrerequisite, match=f"corpus document {missing}, in corpus order"):
        list(ws.manifest_examples(Stage.JOINT))


def test_curriculum_resumes_from_its_report(tmp_path, corpus_file, monkeypatch):
    from aspectsum.mock import EchoTrainerAdapter
    from aspectsum.pipeline import run_all

    class CrashingAdapter(EchoTrainerAdapter):
        def train(self, manifest):
            if manifest.stage.value == "singular_summary":
                raise RuntimeError("trainer crashed")
            return super().train(manifest)

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)
    with pytest.raises(RuntimeError):
        # The crash comes before the self-guided stage decodes, so no pairs.
        stage_curriculum(ws, cfg, adapter=CrashingAdapter([]))
    report = json.loads(ws.curriculum_report_path.read_text(encoding="utf-8"))
    assert [e["stage"] for e in report["stages"]] == ["singular_aspect", "singular_triple"]
    assert not (ws.root / "curriculum" / "checkpoint.json").exists()

    adapters = _recording_adapters(monkeypatch)
    stage_curriculum(ws, cfg)
    assert adapters[-1].trained_stages == [s.value for s in CANONICAL_STAGE_ORDER[2:]]
    fresh = Workspace(tmp_path / "fresh")
    run_all(fresh, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert ws.curriculum_report_path.read_bytes() == fresh.curriculum_report_path.read_bytes()

    every_stage = [s.value for s in CANONICAL_STAGE_ORDER]
    # A report under another key has no recorded stages, though it keeps its
    # entries: all six train again, on an adapter built by this run.
    report = json.loads(ws.curriculum_report_path.read_text(encoding="utf-8"))
    ws.curriculum_report_path.write_text(json.dumps(dict(report, key="0" * 16)), encoding="utf-8")
    (ws.manifests_dir / "01_singular_aspect.jsonl").unlink()
    built = len(adapters)
    stage_curriculum(ws, cfg)
    assert len(adapters) == built + 1 and adapters[-1].trained_stages == every_stage
    # Nor has a report cut short while it was written.
    ws.curriculum_report_path.write_text('{"key"', encoding="utf-8")
    (ws.manifests_dir / "06_joint.jsonl").unlink()
    stage_curriculum(ws, cfg)
    assert len(adapters) == built + 2 and adapters[-1].trained_stages == every_stage


@pytest.mark.parametrize(
    "damage",
    [
        lambda report: [],
        lambda report: {"key": report["key"]},
        lambda report: dict(report, stages="x"),
        lambda report: dict(report, stages=[1, 2]),
        lambda report: dict(report, stages=[
            {k: v for k, v in entry.items() if k != "metrics"} for entry in report["stages"]
        ]),
    ],
    ids=["list", "no-stages", "stages-str", "stages-ints", "no-metrics"],
)
def test_damaged_curriculum_report_trains_every_stage(tmp_path, corpus_file, monkeypatch, damage):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    report = ws.curriculum_report_path.read_bytes()
    damaged = damage(json.loads(report))
    ws.curriculum_report_path.write_text(json.dumps(damaged), encoding="utf-8")
    (ws.manifests_dir / "06_joint.jsonl").unlink()
    adapters = _recording_adapters(monkeypatch)
    assert not stage_curriculum(ws, cfg)["skipped"]
    assert adapters[-1].trained_stages == [s.value for s in CANONICAL_STAGE_ORDER]
    assert ws.curriculum_report_path.read_bytes() == report


def test_select_recovers_from_truncated_embedding_entry(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
    stage_select(ws, cfg, MockLlmClient(seed=cfg.seed))
    selections = ws.selections_path.read_bytes()

    # One row cut to half its bytes: its value no longer decompresses.
    client = MockLlmClient(seed=cfg.seed)
    key = embedding_key(client.cache_namespace, ws.load_corpus()[0].ground_truth_summary)
    value = cache_rows(ws.cache_dir)[key]
    write_cache_rows(ws.cache_dir, {key: value[: len(value) // 2]})
    ws.selections_path.unlink()
    stage_select(ws, cfg, client)
    assert client.embed_calls == 1  # only the corrupt entry is re-embedded
    assert ws.selections_path.read_bytes() == selections
    assert cache_rows(ws.cache_dir)[key] == value  # and rewritten whole


def test_lda_model_of_the_earlier_trainer_is_retrained(tmp_path, corpus_file, monkeypatch):
    trained = _counting_train_lda(monkeypatch)
    # Two earlier formats of the LDA digest, built apart from the stage
    # protocol: one without a "trainer" key, whose model came from another
    # training method, and one with "trainer": "vb", whose model is this one.
    for trainer in (None, "vb"):
        ws = Workspace(tmp_path / f"ws-{trainer}")
        cfg = small_config()
        stage_ingest(ws, cfg, corpus_file)
        stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
        stage_select(ws, cfg, MockLlmClient(seed=cfg.seed))
        fresh = ws.lda_model_path.read_bytes(), ws.selections_path.read_bytes()

        settings = {
            "k": cfg.lda_k,
            "alpha": cfg.lda_alpha,
            "beta": cfg.lda_beta,
            "iterations": cfg.lda_iterations,
            "seed": cfg.lda_seed,
            "stopwords": cfg.stopwords,
            "min_df": cfg.min_df,
        }
        if trainer is not None:
            settings["trainer"] = trainer
        old_digest = stable_digest("lda", dump_json(settings), file_sha256(ws.corpus_path))[:16]
        ws.append_ledger("lda", old_digest, cfg.digest(), ["lda/model.json"])
        if trainer is None:
            other = train_lda(ws.load_corpus(), k=cfg.lda_k, iterations=1, seed=99)
            ws.lda_model_path.write_text(other.dumps(), encoding="utf-8")
            assert ws.lda_model_path.read_bytes() != fresh[0]
        ws.selections_path.unlink()

        trained.clear()
        client = MockLlmClient(seed=cfg.seed)
        stage_select(ws, cfg, client)
        assert (ws.lda_model_path.read_bytes(), ws.selections_path.read_bytes()) == fresh
        assert ws.last_entry("lda")["digest"] != old_digest
        assert len(trained) == 1
        assert client.completion_calls == client.embed_calls == 0
        # Retrained once: the next select run reuses the model.
        ws.selections_path.unlink()
        stage_select(ws, cfg, client)
        assert ws.selections_path.read_bytes() == fresh[1]
        assert len(trained) == 1


# A valid value other than small_config()'s, for every PipelineConfig field.
# None of them changes which documents ingest keeps.
CHANGED_VALUES = {
    "profile": "cnndm",
    "n_samples": 3,
    "lda_k": 4,
    "lda_alpha": 0.5,
    "lda_beta": 0.02,
    "lda_iterations": 41,
    "fold_in_iterations": 11,
    "min_df": 2,
    "stopwords": "none",
    "phi_alpha": 0.7,
    "phi_beta": 1.4,
    "lambda_cs": 1.0,
    "lambda_rationale": 0.7,
    "lambda_summary": 1.1,
    "max_doc_tokens": 1000,
    "max_summary_tokens": 250,
    "max_retries": 3,
    "seed": 6,
    "jobs": 2,
    "model_id": "other-model",
    "embedding_model_id": "other-embedding",
    "endpoint_url": "http://localhost:1/v1",
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_only_the_lda_fields_retrain_the_model(tmp_path, corpus_file, monkeypatch, field):
    from aspectsum.pipeline import _status, run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert _status(ws, cfg, "lda")[2]

    trained = _counting_train_lda(monkeypatch)
    changed = dataclasses.replace(cfg, **{field: CHANGED_VALUES[field]})
    assert getattr(changed, field) != getattr(cfg, field)
    result = run_all(ws, changed, corpus_file, MockLlmClient(seed=changed.seed))
    lda_fields = {"lda_k", "lda_alpha", "lda_beta", "lda_iterations", "seed", "stopwords", "min_df"}
    assert len(trained) == (field in lda_fields)
    if field == "jobs":
        assert all(stage_result["skipped"] for stage_result in result.values())
    assert _status(ws, changed, "lda")[2]


def test_failed_model_write_leaves_the_old_model(tmp_path, corpus_file, monkeypatch):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    old = ws.lda_model_path.read_bytes()
    # A lone surrogate fails UTF-8 encoding once the model's file is open.
    monkeypatch.setattr(LdaModel, "dumps", lambda self: '{"k": 3, "terms": ["\ud800"]}')
    retrain = dataclasses.replace(cfg, lda_iterations=cfg.lda_iterations + 1)
    with pytest.raises(UnicodeEncodeError):
        run_all(ws, retrain, corpus_file, MockLlmClient(seed=retrain.seed))
    assert ws.lda_model_path.read_bytes() == old
    assert not ws.lda_model_path.with_name("model.json.part").exists()


def test_status_reads_current_on_its_own_after_run_all(tmp_path, corpus_file):
    from aspectsum.pipeline import _status, run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    for stage in ("probe", "lda", "select", "curriculum", "eval"):
        assert _status(ws, cfg, stage)[2], stage
    # Ingest's digest also hashes its input file, which lies outside the workspace.
    assert _status(ws, cfg, "ingest", (file_sha256(corpus_file),))[2]


def counting_hashes(monkeypatch) -> dict[Path, int]:
    """How often the pipeline reads each file through file_sha256, by path."""
    from aspectsum import pipeline

    counts: dict[Path, int] = {}
    real = pipeline.file_sha256

    def counted(path):
        counts[Path(path)] = counts.get(Path(path), 0) + 1
        return real(path)

    monkeypatch.setattr(pipeline, "file_sha256", counted)
    return counts


def test_run_all_hashes_each_file_once(tmp_path, corpus_file, monkeypatch):
    from aspectsum.pipeline import run_all

    counts = counting_hashes(monkeypatch)
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    hashed = [corpus_file, ws.corpus_path, ws.candidates_path, ws.selections_path]
    assert counts == dict.fromkeys(hashed, 1)
    # Run again with this Workspace, every stage is current and no file is read again.
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert counts == dict.fromkeys(hashed, 1)


@pytest.mark.parametrize("rewrite", ["in-place-longer", "same-size-renamed"])
def test_an_input_rewritten_between_stage_calls_reruns_the_stage(
    tmp_path, corpus_file, monkeypatch, rewrite
):
    counts = counting_hashes(monkeypatch)
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
    assert stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))["skipped"]
    assert counts[ws.corpus_path] == 1

    text = ws.corpus_path.read_text(encoding="utf-8")
    if rewrite == "in-place-longer":
        ws.corpus_path.write_text(text.replace("storm", "storms", 1), encoding="utf-8")
    else:
        edited = tmp_path / "edited.jsonl"
        edited.write_text(text.replace("storm", "flood", 1), encoding="utf-8")
        os.replace(edited, ws.corpus_path)
    client = MockLlmClient(seed=cfg.seed)
    assert not stage_probe(ws, cfg, client)["skipped"]
    assert counts[ws.corpus_path] == 2
    assert client.completion_calls == cfg.n_samples  # the edited document alone


def test_select_bytes_do_not_depend_on_jobs_or_blocks(tmp_path, monkeypatch):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))

    def select_bytes(name: str, jobs: int) -> tuple[bytes, bytes]:
        ws = Workspace(tmp_path / name)
        cfg = small_config(lda_k=4, jobs=jobs)
        stage_ingest(ws, cfg, corpus)
        stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
        stage_select(ws, cfg, MockLlmClient(seed=cfg.seed))
        return ws.selections_path.read_bytes(), ws.lda_model_path.read_bytes()

    serial = select_bytes("serial", jobs=1)
    assert select_bytes("parallel", jobs=2) == serial
    # Every E-step block, in training and in fold-in, holds a single text.
    monkeypatch.setattr(topics, "_BLOCK_ELEMENTS", 1)
    assert select_bytes("one-text-blocks", jobs=1) == serial


# -- full pipeline through the stage API ---------------------------------------


def test_stages_chain_and_skip(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)

    stage_ingest(ws, cfg, corpus_file)
    r_probe = stage_probe(ws, cfg, client)
    assert r_probe["candidates"] == 6 * 2
    r_select = stage_select(ws, cfg, client)
    assert r_select["documents"] == 6
    r_curr = stage_curriculum(ws, cfg)
    assert r_curr["stages"] == [s.value for s in CANONICAL_STAGE_ORDER]
    r_eval = stage_eval(ws, cfg)
    assert r_eval["documents"] == 6

    before = tree_hashes(ws.root)
    client2 = MockLlmClient(seed=cfg.seed)
    assert stage_ingest(ws, cfg, corpus_file)["skipped"]
    assert stage_probe(ws, cfg, client2)["skipped"]
    assert stage_select(ws, cfg, client2)["skipped"]
    assert stage_curriculum(ws, cfg)["skipped"]
    assert stage_eval(ws, cfg)["skipped"]
    assert client2.completion_calls == 0
    assert client2.embed_calls == 0
    assert tree_hashes(ws.root) == before  # no artifact rewritten, ledger unchanged


def test_config_change_warns_and_reruns(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    stage_ingest(ws, small_config(), corpus_file)
    result = stage_ingest(ws, small_config(max_doc_tokens=512), corpus_file)
    assert result["config_changed"]
    assert not result["skipped"]


def test_reingest_of_an_edited_input_is_no_config_change(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    stage_ingest(ws, small_config(), corpus_file)
    records = synthetic_records(6)
    records[0]["document"] += " late breaking update"
    result = stage_ingest(ws, small_config(), write_jsonl(tmp_path / "edited.jsonl", records))
    assert not result["config_changed"]
    assert not result["skipped"]


def test_reingest_reprobes_only_the_changed_document(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all
    from aspectsum.probe import render_probe_prompt

    class RecordingClient(MockLlmClient):
        def __init__(self, seed):
            super().__init__(seed)
            self.prompts = []

        def complete(self, prompt):
            self.prompts.append(prompt)
            return super().complete(prompt)

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    before = ws.load_candidate_sets()

    # Same ids; one document gets new text.
    records = synthetic_records(6)
    records[2]["document"] += " late breaking update"
    client = RecordingClient(seed=cfg.seed)
    run_all(ws, cfg, write_jsonl(tmp_path / "edited.jsonl", records), client)
    edited = ws.load_corpus()[2]
    assert client.prompts == [render_probe_prompt(edited)] * cfg.n_samples
    after = ws.load_candidate_sets()
    assert after[2] != before[2]
    assert after[:2] + after[3:] == before[:2] + before[3:]


def test_probe_resume_refetches_only_missing(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))

    # Simulate an interrupted probe: output gone, cache kept except three documents' rows.
    ws.candidates_path.unlink()
    cached = cache_rows(ws.cache_dir, "responses")
    assert len(cached) == 6  # one row per prompt, holding its two samples
    write_cache_rows(ws.cache_dir, dict.fromkeys(list(cached)[:3]), "responses")

    client = MockLlmClient(seed=cfg.seed)
    stage_probe(ws, cfg, client)
    assert client.completion_calls == 3 * 2
    assert cache_rows(ws.cache_dir, "responses") == cached


def test_a_legacy_response_cache_is_read_without_a_provider(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all
    from aspectsum.probe import ResponseCache, render_probe_prompt

    cfg = small_config()
    full = Workspace(tmp_path / "full")
    run_all(full, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    namespace = MockLlmClient(seed=cfg.seed).cache_namespace
    with ResponseCache(full.cache_dir) as cache:
        rows = {prompt: cache.lookup(namespace, prompt, cfg.n_samples)
                for prompt in map(render_probe_prompt, full.corpus())}
    responses = {(namespace, prompt, slot): response
                 for prompt, row in rows.items() for slot, response in enumerate(row)}
    assert None not in responses.values()

    # A cache written when each response had a row of its own.
    ws = Workspace(tmp_path / "ws")
    write_legacy_cache(ws.cache_dir, responses)
    legacy = cache_rows(ws.cache_dir)
    client = MockLlmClient(seed=cfg.seed)
    run_all(ws, cfg, corpus_file, client)
    assert client.completion_calls == 0
    assert ws.candidates_path.read_bytes() == full.candidates_path.read_bytes()
    rows = cache_rows(ws.cache_dir)
    assert {key: rows[key] for key in legacy} == legacy  # read, never rewritten
    assert not cache_rows(ws.cache_dir, "responses")  # and every slot was found there
    assert user_version(ws.cache_dir) == 0


_PROBE_KILLED_AT = """
import json, os, signal, sys
from aspectsum.config import build_config
from aspectsum.mock import MockLlmClient
from aspectsum.pipeline import stage_probe
from aspectsum.workspace import Workspace

class KilledAt(MockLlmClient):
    def complete(self, prompt):
        if self.completion_calls + 1 == int(sys.argv[2]):
            os.kill(os.getpid(), signal.SIGKILL)  # no cleanup code runs
        return super().complete(prompt)

cfg = build_config(profile="custom", overrides=json.loads(sys.argv[3]))
stage_probe(Workspace(sys.argv[1]), cfg, KilledAt(seed=cfg.seed))
"""


class PromptRecorder(MockLlmClient):
    def __init__(self, seed):
        super().__init__(seed)
        self.prompts = []

    def complete(self, prompt):
        self.prompts.append(prompt)
        return super().complete(prompt)


@pytest.mark.parametrize("k", [1, 4, 12])
def test_probe_killed_at_a_completion_refetches_only_uncommitted_entries(tmp_path, corpus_file, k):
    cfg = small_config()  # 6 documents, 2 samples each: 12 completions
    full = Workspace(tmp_path / "full")
    stage_ingest(full, cfg, corpus_file)
    recorder = PromptRecorder(seed=cfg.seed)
    stage_probe(full, cfg, recorder)
    calls = recorder.prompts
    assert len(calls) == 12

    ws = Workspace(tmp_path / "ws")
    stage_ingest(ws, cfg, corpus_file)
    src = str(Path(aspectsum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _PROBE_KILLED_AT, str(ws.root), str(k), json.dumps(CFG)],
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert child.returncode == -signal.SIGKILL
    assert not ws.candidates_path.exists()

    # Probe commits after each document, so the document in flight when the
    # process died is asked again from its first sample, and no other is.
    recorder = PromptRecorder(seed=cfg.seed)
    stage_probe(ws, cfg, recorder)
    in_flight = calls.index(calls[k - 1])
    assert recorder.prompts == calls[in_flight:]
    assert ws.candidates_path.read_bytes() == full.candidates_path.read_bytes()
    assert cache_rows(ws.cache_dir, "responses") == cache_rows(full.cache_dir, "responses")
    assert [p.name for p in ws.cache_dir.iterdir()] == ["cache.sqlite"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failed_document_keeps_its_parsed_responses(tmp_path, corpus_file, jobs):
    import threading

    from aspectsum.probe import render_probe_prompt

    cfg = small_config(n_samples=4, max_retries=1, jobs=jobs)
    ws = Workspace(tmp_path / "ws")
    stage_ingest(ws, cfg, corpus_file)
    prompts = [render_probe_prompt(doc) for doc in ws.corpus()]
    assert len(set(prompts)) == 6
    last_probed = threading.Event()

    class GarblesOneSlot(MockLlmClient):
        """Garbles the last slot each round asks for the fourth document."""

        def complete_many(self, prompt, n):
            responses = super().complete_many(prompt, n)
            if prompt == prompts[-1]:
                last_probed.set()
            if prompt == prompts[3]:
                if jobs > 1:  # so each document handed out before it fails is finished
                    last_probed.wait(timeout=10)
                responses[-1] = "garbled"
            return responses

    with pytest.raises(InsufficientValidSamples, match="sample 3 did not parse after 1 retries"):
        stage_probe(ws, cfg, GarblesOneSlot(seed=cfg.seed))
    client = MockLlmClient(seed=cfg.seed)
    stage_probe(ws, cfg, client)
    # The failed document's parsed slots 0 to 2 were stored. Under --jobs 1
    # the documents after it were never handed out, so they are asked for now.
    assert client.completion_calls == (1 + 2 * 4 if jobs == 1 else 1)


def test_every_cache_connection_is_closed_after_a_run(tmp_path, corpus_file):
    from aspectsum.clients import LlmClient
    from aspectsum.errors import TransportError
    from aspectsum.pipeline import run_all

    class EmbedDown(MockLlmClient):
        def embed(self, text):
            raise TransportError("embeddings down")

    class Down(LlmClient):
        cache_namespace = "down"

        def complete(self, prompt):
            raise TransportError("provider down")

        def embed(self, text):
            raise TransportError("provider down")

    # No -wal or -shm file is left: the last connection to close removes them.
    cfg = small_config()
    only_the_database = ["cache.sqlite"]
    ws = Workspace(tmp_path / "probe-raises")
    with pytest.raises(TransportError):
        run_all(ws, cfg, corpus_file, Down())
    assert [p.name for p in ws.cache_dir.iterdir()] == only_the_database
    ws = Workspace(tmp_path / "select-raises")
    with pytest.raises(TransportError):
        run_all(ws, cfg, corpus_file, EmbedDown(seed=cfg.seed))
    assert [p.name for p in ws.cache_dir.iterdir()] == only_the_database
    assert len(cache_rows(ws.cache_dir, "responses")) == 6  # probe's, one per document, are kept
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert [p.name for p in ws.cache_dir.iterdir()] == only_the_database


@pytest.mark.parametrize("jobs", [1, 2])
def test_select_stops_on_a_provider_error_and_resumes_from_the_cache(
    tmp_path, corpus_file, jobs
):
    import threading

    from aspectsum.errors import TransportError
    from aspectsum.pipeline import run_all

    class FailsOnce(MockLlmClient):
        """Answers HTTP 429 to the first rationale embedding asked for."""

        failed = False
        gate = threading.Lock()

        def embed(self, text):
            with self.gate:
                fail = not self.failed and text.startswith("Aspects:")
                self.failed = self.failed or fail
            if fail:
                raise TransportError("HTTP 429")
            return super().embed(text)

    cfg = small_config(jobs=jobs)
    clean, first = Workspace(tmp_path / "clean"), MockLlmClient(seed=cfg.seed)
    run_all(clean, cfg, corpus_file, first)
    ws = Workspace(tmp_path / "flaky")
    with pytest.raises(TransportError):
        run_all(ws, cfg, corpus_file, FailsOnce(seed=cfg.seed))
    assert ws.last_entry("select")["digest"] is None  # begun, not ended: select is stale
    healthy = MockLlmClient(seed=cfg.seed)
    run_all(ws, cfg, corpus_file, healthy)
    assert healthy.completion_calls == 0
    assert 0 < healthy.embed_calls < first.embed_calls  # the fetched vectors were kept
    assert ws.selections_path.read_bytes() == clean.selections_path.read_bytes()


def test_cli_cache_file_that_is_not_a_database(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    flags = ["--n-samples", "2", "--lda-k", "3"]
    assert cli("ingest", "--workspace", ws_root, "--input", corpus_file, *flags) == 0
    path = ws_root / "cache" / "cache.sqlite"
    path.parent.mkdir()
    path.write_bytes(b"not a database " * 40)
    capsys.readouterr()
    assert cli("probe", "--workspace", ws_root, "--mock-llm", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not (ws_root / "candidates").exists()


def test_cli_cache_file_with_a_damaged_page(tmp_path, capsys):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(30))
    ws_root = tmp_path / "ws"
    args = ["run-all", "--workspace", ws_root, "--input", corpus, "--mock-llm"]
    flags = ["--n-samples", "2", "--lda-k", "3"]
    assert cli(*args, *flags) == 0
    path = ws_root / "cache" / "cache.sqlite"
    assert path.stat().st_size > 8192 + 200
    with path.open("r+b") as fh:  # the header stays valid; a b-tree page does not
        fh.seek(8192)
        fh.write(b"\xff" * 200)
    candidates = ws_root / "candidates" / "candidates.jsonl"
    candidates.unlink()
    capsys.readouterr()
    assert cli(*args, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: damaged cache database ") and str(path) in err
    assert "delete it" in err
    assert not candidates.exists()
    # The connection was closed: its WAL and shared-memory files are gone.
    assert [p.name for p in path.parent.iterdir()] == ["cache.sqlite"]


@pytest.mark.parametrize(
    "field,command", [("golden_index", "eval"), ("golden_rationale", "curriculum")]
)
def test_cli_selection_record_missing_a_field_names_file_and_line(
    tmp_path, corpus_file, capsys, field, command
):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    path = ws_root / "selection" / "selections.jsonl"
    records = Workspace(ws_root).load_selections()
    del records[2][field]
    path.write_text("".join(dump_json(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    flags = run_all_args(ws_root, corpus_file)[5:]  # --mock-llm and the config, no --input
    assert cli(command, "--workspace", ws_root, *flags) == 2
    assert capsys.readouterr().err == f"error: {path}, line 3: missing field {field!r}\n"


def _terms(change):
    """A damage to lda/model.json: its vocabulary terms changed."""
    def damage(model: dict) -> dict:
        vocabulary = model["vocabulary"]
        return {**model, "vocabulary": {**vocabulary, "terms": change(vocabulary["terms"])}}

    return damage


def _counts(change):
    """A damage to lda/model.json: its topic-word count rows changed."""
    return lambda m: {**m, "topic_word_counts": change(m["topic_word_counts"])}


@pytest.mark.parametrize(
    "damage",
    [
        '{"k": 3}',
        '{"k": 3',
        {"alpha": "x"},
        {"alpha": None},
        {"alpha": -0.5},
        {"beta": -1},
        {"beta": 0},
        _terms(lambda terms: list(range(len(terms)))),
        _terms(lambda terms: terms[:1] * len(terms)),
        _counts(lambda rows: [[c + 0.7 for c in row] for row in rows]),
        _counts(lambda rows: [[str(c) for c in row] for row in rows]),
        _counts(lambda rows: [[None] * len(row) for row in rows]),
        _counts(lambda rows: [rows[0][:-1], *rows[1:]]),
    ],
    ids=[
        "field-missing", "cut-short", "alpha-str", "alpha-null", "alpha-neg", "beta-neg", "beta-0",
        "terms-int", "terms-repeat", "counts-float", "counts-str", "counts-null", "counts-short-row",
    ],
)
def test_cli_damaged_lda_model_names_its_file(tmp_path, corpus_file, capsys, damage):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    model = ws_root / "lda" / "model.json"
    saved = json.loads(model.read_text(encoding="utf-8"))
    if isinstance(damage, dict):  # fields of the wrong type or range
        damage = json.dumps({**saved, **damage})
    elif callable(damage):  # a vocabulary term or a count of the wrong type
        damage = json.dumps(damage(saved))
    model.write_text(damage, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lambda_cs": 2.0}), encoding="utf-8")
    capsys.readouterr()
    # lambda_cs re-runs select but not the lda stage, which reads current.
    assert cli(*run_all_args(ws_root, corpus_file), "--config", config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: damaged LDA model {model} (")
    assert err.endswith("); delete it to retrain the model\n")
    model.unlink()
    assert cli(*run_all_args(ws_root, corpus_file), "--config", config) == 0


def test_cli_candidates_line_cut_short_names_file_and_line(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    flags = ["--workspace", ws_root, "--mock-llm", "--n-samples", "2", "--lda-k", "3"]
    assert cli("ingest", "--input", corpus_file, *flags) == 0
    assert cli("probe", *flags) == 0
    path = ws_root / "candidates" / "candidates.jsonl"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3][:40]
    path.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert cli("select", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}, line 4: invalid JSON")
    assert not (ws_root / "selection").exists()


def test_cli_corpus_record_missing_a_field_names_file_and_line(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    flags = ["--workspace", ws_root, "--mock-llm", "--n-samples", "2", "--lda-k", "3"]
    assert cli("ingest", "--input", corpus_file, *flags) == 0
    path = ws_root / "corpus" / "documents.jsonl"
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").split("\n") if line]
    del records[2]["text"]
    path.write_text("".join(dump_json(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    assert cli("probe", *flags) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}, line 3: missing field 'text'\n"
    assert not (ws_root / "candidates").exists()


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_run_all_keeps_line_separators_inside_text(tmp_path, separator):
    records = synthetic_records(6)
    records[1]["document"] = records[1]["document"].replace(" ", separator, 1)
    records[4]["summary"] = records[4]["summary"].replace(" ", f" {separator}", 1)
    corpus = write_jsonl(tmp_path / "corpus.jsonl", records)
    assert corpus.read_bytes().isascii()  # written \u-escaped
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus)) == 0
    documents = Workspace(ws_root).load_corpus()
    assert [(d.text, d.ground_truth_summary) for d in documents] == [
        (r["document"], r["summary"]) for r in records
    ]


def traced_peak(fn):
    """(fn(), the peak bytes Python allocated while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_file_sha256_reads_in_bounded_blocks(tmp_path):
    path = tmp_path / "big.bin"
    data = bytes(range(256)) * (16 * 4096)  # 16 MiB
    path.write_bytes(data)
    expected = hashlib.sha256(data).hexdigest()
    del data
    digest, peak = traced_peak(lambda: file_sha256(path))
    assert digest == expected
    assert peak < 4 * 2**20


def test_read_jsonl_holds_one_line_at_a_time(tmp_path):
    path = tmp_path / "big.jsonl"
    path.write_text(jsonl_text({"n": i, "text": "x" * 1000} for i in range(8500)), "utf-8")
    assert path.stat().st_size > 8 * 2**20
    reader = Workspace(tmp_path / "ws").read_jsonl(path, lambda o: None)
    count, peak = traced_peak(lambda: sum(1 for _ in reader))
    assert count == 8500
    assert peak < 4 * 2**20


def test_ingest_keeps_no_text_of_an_excluded_record(tmp_path):
    # Two long tokens make a document too long at a limit of one.
    document = " ".join(["storm" * 580, "flood" * 580])
    records = [{"id": f"doc-{i:04d}", "document": document, "summary": "s"} for i in range(2000)]
    path = write_jsonl(tmp_path / "in.jsonl", records)
    assert path.stat().st_size > 11 * 2**20
    cfg = small_config(max_doc_tokens=1)
    report, peak = traced_peak(lambda: stage_ingest(Workspace(tmp_path / "ws"), cfg, path))
    assert report["excluded"]["doc_too_long"] == 2000
    assert peak < 4 * 2**20


# The stage memory tests: select scores passes of this many documents.
_TEST_CHUNK = 8


def _long_word_records(n: int) -> list[dict]:
    """Records of about 25 KB in 400 tokens, so that 48 of them fill file_sha256's
    1 MiB block: each stage then peaks at the same hashing cost at n and 4n."""
    records = synthetic_records(n, doc_words=400)
    for r in records:
        r["document"] = " ".join(word + "x" * 56 for word in r["document"].split())
    return records


@pytest.fixture(scope="module")
def stage_peaks(tmp_path_factory) -> dict:
    """{n: {stage: traced Python peak}} for n = 48 and 4 x 48 documents, and
    "record" -> the mean bytes of an input line. select is measured when it
    runs again with its LDA model current, since training holds the corpus.
    Each stage is measured as in a process of its own, with a Workspace of
    its own, which hashes the stage's inputs afresh."""
    from aspectsum import selection

    peaks = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(selection, "_CHUNK_DOCUMENTS", _TEST_CHUNK)
        for n in (48, 4 * 48):
            root = tmp_path_factory.mktemp(f"peaks{n}")
            corpus = write_jsonl(root / "corpus.jsonl", _long_word_records(n))
            assert corpus.stat().st_size > 2**20
            peaks["record"] = corpus.stat().st_size / n
            ws = Workspace(root / "ws")
            cfg = small_config(lda_iterations=2, fold_in_iterations=2)
            client = MockLlmClient(seed=cfg.seed)

            def own() -> Workspace:  # as the stage's own command would make it
                return Workspace(ws.root)

            peaks[n] = {
                "ingest": traced_peak(lambda: stage_ingest(own(), cfg, corpus))[1],
                "probe": traced_peak(lambda: stage_probe(own(), cfg, client))[1],
            }
            stage_select(ws, cfg, client)
            ws.selections_path.unlink()
            peaks[n]["select"] = traced_peak(lambda: stage_select(own(), cfg, client))[1]
            peaks[n]["eval"] = traced_peak(lambda: stage_eval(own(), cfg))[1]
    return peaks


@pytest.mark.parametrize(
    "stage,window",
    # The records a stage holds at once: ingest and eval one, probe 2 x jobs
    # (jobs is 1), select one pass.
    [("ingest", 1), ("probe", 2), ("select", _TEST_CHUNK), ("eval", 1)],
)
def test_stage_memory_is_bounded_by_its_window(stage_peaks, stage, window):
    small, large = stage_peaks[48][stage], stage_peaks[4 * 48][stage]
    # Holding the corpus would add 144 records, about 3.6 MB of text.
    assert large - small < window * stage_peaks["record"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_select_error_past_its_first_pass_keeps_the_old_selections(tmp_path, monkeypatch, jobs):
    from aspectsum import selection

    ws = Workspace(tmp_path / "ws")
    cfg = small_config(jobs=jobs)
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(9)))
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)
    before = ws.selections_path.read_bytes()

    monkeypatch.setattr(selection, "_CHUNK_DOCUMENTS", 2)
    lines = ws.candidates_path.read_text(encoding="utf-8").split("\n")
    # In the fourth pass: a pass is read before the one before it is scored,
    # so the first two are written.
    lines[6] = lines[6][:40]
    ws.candidates_path.write_text("\n".join(lines), encoding="utf-8")
    written = []
    write_text = Workspace.write_text

    def recording_write_text(self, path, text):
        if path == ws.selections_path:
            text = (written.append(line) or line for line in text)
        write_text(self, path, text)

    monkeypatch.setattr(Workspace, "write_text", recording_write_text)
    with pytest.raises(SchemaError) as err:
        stage_select(ws, cfg, client)
    assert str(err.value).startswith(f"{ws.candidates_path}, line 7: invalid JSON")
    assert len(written) == 4
    assert ws.selections_path.read_bytes() == before
    assert not list(ws.root.rglob("*.part"))


def test_probe_write_error_stops_its_workers_before_the_cache_closes(tmp_path, monkeypatch):
    import threading
    import time

    from aspectsum import pipeline

    in_flight, failed = threading.Semaphore(0), threading.Event()
    started, late = [], []  # documents whose probe began before and after the write failed

    class Recording(MockLlmClient):
        def __init__(self, seed):
            super().__init__(seed)
            self.lock = threading.Lock()
            self.prompts = []  # in the order of their first call
            self.calls = 0

        def complete(self, prompt):
            with self.lock:
                if prompt not in self.prompts:
                    self.prompts.append(prompt)
                later = prompt not in self.prompts[:2]
                self.calls += 1
            if later:  # a later document waits, running, until the write fails
                in_flight.release()
                failed.wait(timeout=10)
                time.sleep(0.05)
            return super().complete(prompt)

    def recording_probe(client, doc, *args, **kwargs):
        (late if failed.is_set() else started).append(doc.id)
        return real_probe(client, doc, *args, **kwargs)

    def second_line_fails(candidate_set):
        if lines:
            for _ in range(cfg.jobs):
                in_flight.acquire(timeout=10)
            failed.set()
            raise OSError(28, "No space left on device")
        lines.append(real_to_json(candidate_set))
        return lines[-1]

    ws = Workspace(tmp_path / "ws")
    cfg = small_config(jobs=2)
    stage_ingest(ws, cfg, write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12)))
    client = Recording(seed=cfg.seed)
    real_probe, real_to_json, lines = pipeline.probe_rationales, pipeline.candidate_set_to_json, []
    monkeypatch.setattr(pipeline, "probe_rationales", recording_probe)
    monkeypatch.setattr(pipeline, "candidate_set_to_json", second_line_fails)
    with pytest.raises(OSError, match="No space left"):
        stage_probe(ws, cfg, client)
    calls = client.calls
    time.sleep(0.3)
    # The two documents running when the write failed finish, and store
    # their responses, before the stage returns; the queued ones never start.
    assert (len(started), late, client.calls) == (4, [], calls)
    assert len(cache_rows(ws.cache_dir, "responses")) == 4  # one row per document
    assert not ws.candidates_path.exists()
    assert not list(ws.root.rglob("*.part"))


def test_probe_memory_does_not_grow_with_its_discards(tmp_path):
    response_bytes = 25_000

    class UnparseableFirst(MockLlmClient):
        """Answers every other completion with text that does not parse."""

        odd = False

        def complete(self, prompt):
            self.odd = not self.odd
            return "x" * response_bytes if self.odd else super().complete(prompt)

    peaks = {}
    for n in (48, 4 * 48):
        ws = Workspace(tmp_path / f"ws{n}")
        cfg = small_config()
        stage_ingest(ws, cfg, write_jsonl(tmp_path / f"corpus{n}.jsonl", synthetic_records(n)))
        client = UnparseableFirst(seed=cfg.seed)
        report, peaks[n] = traced_peak(lambda: stage_probe(ws, cfg, client))
        assert report["discarded"] == 2 * n
    assert len(ws.discards_path.read_bytes()) > 2 * 4 * 48 * response_bytes
    # Holding the discards would add 144 documents' two responses, about 7.2 MB;
    # probe holds two documents (2 x jobs) with two discards each.
    assert peaks[4 * 48] - peaks[48] < 2 * 2 * response_bytes


def test_dropped_reader_closes_its_file(tmp_path):
    path = write_jsonl(tmp_path / "records.jsonl", synthetic_records(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reader = Workspace(tmp_path / "ws").read_jsonl(path)
        assert next(reader)["id"] == "doc-000"
        del reader
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_failed_write_leaves_no_part_file_and_no_new_directory(tmp_path):
    ws = Workspace(tmp_path / "ws")
    path = ws.root / "new" / "out.jsonl"

    def lines():
        yield "one\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        ws.write_text(path, lines())
    assert list(ws.root.iterdir()) == []
    ws.write_text(path, "kept\n")
    with pytest.raises(OSError, match="disk full"):
        ws.write_text(path, lines())
    assert [p.name for p in path.parent.iterdir()] == ["out.jsonl"]
    assert path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize(
    "obj",
    [
        {"count": 2, "ids": ["a", "b\u2028"], "mean": {"f1": 0.5, "r": [1, {"x": None}]}},
        {"empty": [], "nested": {}, "z\u00e9": [[], {"k": "v"}], "n": 1.0e-300},
    ],
)
def test_pretty_json_chunks_equal_pretty_json(obj):
    from aspectsum.workspace import dump_json_pretty, dump_json_pretty_chunks

    lazy = {k: iter(v) if isinstance(v, list) else v for k, v in obj.items()}
    assert "".join(dump_json_pretty_chunks(lazy)) == dump_json_pretty(obj)


def test_run_all_fail_fast_keeps_earlier_artifacts(tmp_path, corpus_file):
    from aspectsum.clients import LlmClient
    from aspectsum.errors import TransportError
    from aspectsum.pipeline import run_all

    class DownClient(LlmClient):
        cache_namespace = "down"

        def complete(self, prompt):
            raise TransportError("provider down")

        def embed(self, text):
            raise TransportError("provider down")

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    with pytest.raises(TransportError):
        run_all(ws, cfg, corpus_file, DownClient())
    # ingest completed and survives; probe produced nothing
    assert ws.corpus_path.exists()
    assert len(ws.load_corpus()) == 6
    assert not ws.candidates_path.exists()
    entries = [json.loads(l) for l in ws.ledger_path.read_text(encoding="utf-8").splitlines()]
    # ingest's begin and end lines, then probe's begin line: probe is not current.
    assert [(e["command"], e["digest"] is None) for e in entries] == [
        ("ingest", True),
        ("ingest", False),
        ("probe", True),
    ]


def test_ledger_appends_only_on_effective_runs(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    stage_ingest(ws, cfg, corpus_file)  # skipped, no entry
    entries = [json.loads(l) for l in ws.ledger_path.read_text(encoding="utf-8").splitlines()]
    # The effective run's begin line, then its end line.
    assert [e["command"] for e in entries] == ["ingest", "ingest"]
    assert [e["seq"] for e in entries] == [0, 1]
    assert (entries[0]["digest"], entries[0]["outputs"]) == (None, [])
    assert entries[1]["digest"] is not None and entries[1]["outputs"]
    assert [e["config_digest"] for e in entries] == [cfg.digest()] * 2


def test_stage_whose_ledger_append_failed_runs_again(tmp_path, corpus_file, monkeypatch):
    from aspectsum.pipeline import _STAGES, run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    append = Workspace.append_ledger

    def append_or_crash(self, stage, *args):
        if stage == "select":
            raise OSError("killed before the ledger line was written")
        return append(self, stage, *args)

    monkeypatch.setattr(Workspace, "append_ledger", append_or_crash)
    with pytest.raises(OSError):
        run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    monkeypatch.undo()

    result = run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert not result["select"]["skipped"]
    ledger = ws.ledger_path.read_text(encoding="utf-8")
    commands = {json.loads(l)["command"] for l in ledger.splitlines()}
    assert set(_STAGES) <= commands
    rerun = run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert all(stage_result["skipped"] for stage_result in rerun.values())


def test_ledger_line_cut_short_reruns_only_its_stage(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    torn = ws.ledger_path.read_bytes()[:-20]  # the eval entry, cut mid-JSON
    ws.ledger_path.write_bytes(torn)

    client = MockLlmClient(seed=cfg.seed)
    result = run_all(ws, cfg, corpus_file, client)
    assert [stage for stage, r in result.items() if not r["skipped"]] == ["eval"]
    assert client.completion_calls == client.embed_calls == 0
    lines = ws.ledger_path.read_bytes().splitlines()
    assert b"\n".join(lines[:-2]) == torn
    begin, end = map(json.loads, lines[-2:])
    assert (begin["command"], begin["seq"], begin["digest"]) == ("eval", len(lines) - 2, None)
    assert (end["command"], end["seq"]) == ("eval", len(lines) - 1)
    assert end["digest"] is not None


def test_run_killed_at_any_artifact_write_leaves_no_stage_current(tmp_path, monkeypatch):
    from aspectsum.pipeline import run_all

    class Killed(BaseException):
        """A kill: no handler in the program catches it."""

    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(9))
    cfg_a = small_config()
    cfg_b = small_config(lambda_cs=1.0, lda_k=4)

    def artifacts(ws: Workspace) -> dict[str, str]:
        hashes = tree_hashes(ws.root)
        return {k: v for k, v in hashes.items() if k.split("/")[0] not in ("cache", "ledger.jsonl")}

    run_a = Workspace(tmp_path / "a")
    run_all(run_a, cfg_a, corpus, MockLlmClient(seed=cfg_a.seed))
    expected = artifacts(run_a)
    write_text = Workspace.write_text

    k = 0
    completed = False
    while not completed:
        k += 1
        calls = []

        def write_half_then_kill(path: Path, data: bytes) -> None:
            path.write_bytes(data[: len(data) // 2])
            raise Killed(f"killed at write {k}")

        def killing_write_text(self, path, text):
            calls.append(path)
            if not isinstance(text, str):  # a streamed write
                text = "".join(text)
            if len(calls) == k:
                path.parent.mkdir(parents=True, exist_ok=True)
                write_half_then_kill(path, text.encode("utf-8"))
            write_text(self, path, text)

        # Step 1, a run under A: a copy of one, the same bytes by the
        # determinism contract.
        ws = Workspace(tmp_path / f"k{k}")
        shutil.copytree(run_a.root, ws.root, dirs_exist_ok=True)
        # Step 2: a run under B, killed at its k-th artifact write.
        with monkeypatch.context() as patch:
            patch.setattr(Workspace, "write_text", killing_write_text)
            try:
                run_all(ws, cfg_b, corpus, MockLlmClient(seed=cfg_b.seed))
                completed = True
            except Killed:
                pass
        # Step 3: a run under A again redoes whatever the kill left.
        run_all(ws, cfg_a, corpus, MockLlmClient(seed=cfg_a.seed))
        assert artifacts(ws) == expected, f"killed at write {k}: {calls[-1]}"
        shutil.rmtree(ws.root)
    assert len(calls) >= len(expected)  # run B wrote every artifact at least once


def test_workspace_of_the_state_file_format_reruns_without_calls(
    tmp_path, corpus_file, monkeypatch
):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    # The earlier format: each digest in state/<stage>.json (the LDA model's
    # only there), ledger lines without one.
    state = ws.root / "state"
    state.mkdir()
    entries = [json.loads(l) for l in ws.ledger_path.read_text(encoding="utf-8").splitlines()]
    for entry in entries:
        (state / f"{entry['command']}.json").write_text(
            dump_json({"digest": entry.pop("digest")}) + "\n", encoding="utf-8"
        )
    entries = [dict(e, seq=i) for i, e in enumerate(e for e in entries if e["command"] != "lda")]
    ws.ledger_path.write_text("".join(dump_json(e) + "\n" for e in entries), encoding="utf-8")

    def artifacts() -> dict[str, str]:
        hashes = tree_hashes(ws.root)
        return {k: v for k, v in hashes.items() if k.split("/")[0] not in ("ledger.jsonl", "state")}

    before = artifacts()
    client = MockLlmClient(seed=cfg.seed)
    adapters = _recording_adapters(monkeypatch)
    result = run_all(ws, cfg, corpus_file, client)
    assert not any(r["skipped"] for r in result.values())  # each stage re-runs once
    assert client.completion_calls == client.embed_calls == 0
    assert adapters[-1].trained_stages == []
    assert artifacts() == before
    rerun = run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    assert all(stage_result["skipped"] for stage_result in rerun.values())


def test_probe_jobs_keep_bytes_when_records_share_text(tmp_path):
    texts = synthetic_records(2)
    records = [dict(texts[i // 4], id=f"dup-{i}") for i in range(8)]
    # Its prompt repeats after dup-0's line has been written.
    records.append(dict(texts[0], id="dup-8"))
    corpus = write_jsonl(tmp_path / "dups.jsonl", records)

    def probe(name: str, jobs: int):
        ws = Workspace(tmp_path / name)
        cfg = small_config(n_samples=4, jobs=jobs)
        client = MockLlmClient(seed=cfg.seed)
        stage_ingest(ws, cfg, corpus)
        stage_probe(ws, cfg, client)
        # Each of the two prompts is probed once.
        assert client.completion_calls == 8
        cache = (ws.cache_dir / "cache.sqlite").read_bytes()
        return ws.candidates_path.read_bytes(), ws.discards_path.read_bytes(), cache

    serial = probe("serial", 1)
    for i in range(5):
        assert probe(f"parallel{i}", 2) == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_probe_renders_each_prompt_once(tmp_path, monkeypatch, jobs):
    from aspectsum import pipeline, probe

    records = synthetic_records(5)
    # With jobs 2 the copy is handed out while record 1 is still in flight.
    records.insert(2, dict(records[1], id="copy-of-1"))
    corpus = write_jsonl(tmp_path / "in.jsonl", records)
    rendered = []
    render = probe.render_probe_prompt

    def counting(doc):
        rendered.append(doc.id)
        return render(doc)

    monkeypatch.setattr(pipeline, "render_probe_prompt", counting)
    monkeypatch.setattr(probe, "render_probe_prompt", counting)
    ws = Workspace(tmp_path / "ws")
    cfg = small_config(jobs=jobs)
    stage_ingest(ws, cfg, corpus)
    stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
    assert sorted(rendered) == sorted(r["id"] for r in records)
    sets = {cs.document_id: cs.candidates for cs in ws.candidate_sets()}
    assert sets["copy-of-1"] == sets[records[1]["id"]]


def test_reserved_token_in_a_probed_rationale_is_a_discard(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all

    class ReservedTokenFirst(MockLlmClient):
        """Puts <article> into an aspect of the first two responses to each prompt."""

        def __init__(self, seed):
            super().__init__(seed=seed)
            self.calls = collections.Counter()

        def complete(self, prompt):
            response = super().complete(prompt)
            self.calls[prompt] += 1
            if self.calls[prompt] > 2:
                return response
            return response.replace("Aspects: ", "Aspects: <article> ", 1)

    ws = Workspace(tmp_path / "ws")
    cfg = small_config()  # two samples and two retries
    result = run_all(ws, cfg, corpus_file, ReservedTokenFirst(seed=cfg.seed))
    assert result["curriculum"]["stages"] == [s.value for s in CANONICAL_STAGE_ORDER]
    assert all(path.exists() for s in CANONICAL_STAGE_ORDER for path in ws.manifest_paths(s))
    discards = list(ws.read_jsonl(ws.discards_path))
    # Both slots of each document are discarded in round 0 and filled in round 1.
    assert result["probe"]["discarded"] == len(discards) == 2 * 6
    assert [(d["sample_index"], d["attempt"]) for d in discards[:2]] == [(0, 0), (1, 0)]
    assert {d["reason"] for d in discards} == {"rationale contains reserved token <article>"}
    assert "<article>" not in ws.candidates_path.read_text(encoding="utf-8")


def test_seed_changes_probe_outputs(tmp_path, corpus_file):
    outputs = []
    for seed in (1, 2):
        ws = Workspace(tmp_path / f"ws{seed}")
        cfg = small_config(seed=seed)
        stage_ingest(ws, cfg, corpus_file)
        stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
        outputs.append(ws.candidates_path.read_text(encoding="utf-8"))
    assert outputs[0] != outputs[1]


def test_workspace_lock(tmp_path):
    ws = Workspace(tmp_path / "ws")
    with ws.exclusive_lock():
        with pytest.raises(WorkspaceLocked):
            with ws.exclusive_lock():
                pass
    # released on exit
    with ws.exclusive_lock():
        pass


# -- CLI ------------------------------------------------------------------------


def cli(*args) -> int:
    return main([str(a) for a in args])


def run_all_args(ws, corpus):
    return [
        "run-all", "--workspace", ws, "--input", corpus, "--mock-llm",
        "--n-samples", "2", "--lda-k", "3", "--lda-iterations", "40",
        "--fold-in-iterations", "10", "--seed", "5",
    ]


def test_cli_run_all_and_artifacts(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    out = capsys.readouterr().out
    assert "[ingest]" in out and "[eval]" in out

    manifests = sorted(p.name for p in (ws_root / "manifests").glob("*.jsonl"))
    assert manifests == [
        "01_singular_aspect.jsonl",
        "02_singular_triple.jsonl",
        "03_singular_summary.jsonl",
        "04_concurrent_early.jsonl",
        "05_concurrent_late.jsonl",
        "06_joint.jsonl",
    ]
    selections = (ws_root / "selection" / "selections.jsonl").read_text(encoding="utf-8")
    selections = selections.splitlines()
    assert len(selections) == 6  # one record per document
    assert (ws_root / "eval" / "report.json").exists()
    with Workspace(ws_root).exclusive_lock():  # the command released its lock
        pass


def test_cli_run_all_idempotent(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    before = tree_hashes(ws_root)
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    assert tree_hashes(ws_root) == before
    assert "up to date" in capsys.readouterr().out


def test_cli_missing_prerequisite_exit_code(tmp_path, capsys):
    assert cli("probe", "--workspace", tmp_path / "ws", "--mock-llm",
               "--n-samples", "2", "--lda-k", "3") == 2
    assert "missing prerequisite" in capsys.readouterr().err


def test_cli_eval_after_new_corpus_names_missing_artifact(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    records = [dict(r, id=f"b{i}") for i, r in enumerate(synthetic_records(3, seed=1))]
    other = write_jsonl(tmp_path / "other.jsonl", records)
    scale = ["--workspace", ws_root, "--mock-llm", "--n-samples", "2", "--lda-k", "3"]
    assert cli("ingest", "--input", other, *scale) == 0
    assert cli("probe", *scale) == 0
    capsys.readouterr()
    # The selections still name the first corpus's documents.
    assert cli("eval", *scale) == 2
    assert "missing prerequisite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--external-scores", "nope.json"],
        ["probe", "--config", "nope.json"],
        ["ingest", "--input", "a_directory"],
    ],
    ids=["eval-external-scores", "probe-config", "ingest-directory"],
)
def test_cli_bad_user_path_is_an_error_line(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_directory").mkdir()
    assert cli(*args, "--workspace", "ws", "--mock-llm", "--n-samples", "2", "--lda-k", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no ") and args[-1] in err


@pytest.mark.parametrize("workspace", ["a_file", "a_file/ws"], ids=["file", "under-a-file"])
def test_cli_workspace_naming_a_file_is_an_error_line(tmp_path, monkeypatch, capsys, workspace):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a_file").write_text("kept", encoding="utf-8")
    scale = ["--n-samples", "2", "--lda-k", "3"]
    assert cli("probe", "--workspace", workspace, "--mock-llm", *scale) == 2
    assert capsys.readouterr().err == f"error: no workspace directory at {workspace}\n"
    assert (tmp_path / "a_file").read_text(encoding="utf-8") == "kept"


CONFIG_FLAGS = [
    ("--seed", "seed", 11),
    ("--jobs", "jobs", 3),
    ("--n-samples", "n_samples", 4),
    ("--lda-k", "lda_k", 7),
    ("--lda-iterations", "lda_iterations", 17),
    ("--fold-in-iterations", "fold_in_iterations", 13),
    ("--max-retries", "max_retries", 5),
    ("--profile", "profile", "xsum"),
]


@pytest.mark.parametrize("flag, field, value", CONFIG_FLAGS, ids=[f[0] for f in CONFIG_FLAGS])
def test_cli_flag_reaches_the_config(tmp_path, monkeypatch, flag, field, value):
    received = []
    monkeypatch.setattr(
        cli_module, "stage_probe", lambda ws, cfg, client: received.append(cfg) or {}
    )
    scale = ["--n-samples", "2", "--lda-k", "3"]  # a later flag overrides these
    assert cli("probe", "--workspace", tmp_path / "ws", "--mock-llm", *scale, flag, value) == 0
    assert getattr(received[0], field) == value


@pytest.mark.parametrize(
    "config, flags",
    [
        ({}, ["--lda-k", "1"]),
        ({"phi_alpha": float("nan")}, []),
        ({"stopwords": "klingon"}, []),
        ({"min_df": 0}, []),
        ({}, ["--n-samples", "0"]),
        ({"lda_alpha": float("nan")}, []),
        ({"lda_beta": float("nan")}, []),
        ({"lda_alpha": float("inf")}, []),
        ({"max_retries": "3"}, []),
        ({"min_df": True}, []),
        ({}, ["--fold-in-iterations", "0"]),
        ({"lambda_summary": float("nan")}, []),
        ({"lambda_rationale": -1}, []),
        ({"lambda_summary": 0.0}, []),
        ({"max_doc_tokens": 0}, []),
        ({"max_summary_tokens": 0}, []),
        ({}, ["--jobs", "0"]),
        ({"jobs": -4}, []),
        ({"profile": "cnndm"}, []),
    ],
    ids=[
        "lda-k-1", "phi-alpha-nan", "stopwords-klingon", "min-df-0", "n-samples-0",
        "lda-alpha-nan", "lda-beta-nan", "lda-alpha-inf", "max-retries-str", "min-df-bool",
        "fold-in-iterations-0", "lambda-summary-nan", "lambda-rationale-negative",
        "lambda-summary-0", "max-doc-tokens-0", "max-summary-tokens-0", "jobs-0",
        "jobs-negative", "profile-key",
    ],
)
def test_cli_bad_config_fails_before_any_stage(tmp_path, corpus_file, capsys, config, flags):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config), encoding="utf-8")
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file), "--config", config_file, *flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not ws_root.exists()


@pytest.mark.parametrize("flag", ["--config", "--external-scores"])
@pytest.mark.parametrize(
    "content",
    [b"{not json", b'["a", "list"]', '{"note": "caf\u00e9"}'.encode("latin-1")],
    ids=["bad-json", "json-list", "not-utf8"],
)
def test_cli_bad_json_object_file_names_itself(tmp_path, corpus_file, capsys, flag, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file), flag, bad) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    if flag == "--config":
        assert not ws_root.exists()
    else:  # eval stops before its begin line
        assert Workspace(ws_root).last_entry("eval") == {}


def test_cli_input_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    record = {"id": "a", "document": "caf\u00e9 au lait", "summary": "caf\u00e9"}
    path.write_bytes(json.dumps(record, ensure_ascii=False).encode("latin-1") + b"\n")
    args = ["--workspace", tmp_path / "ws", "--input", path, "--n-samples", "2", "--lda-k", "3"]
    assert cli("ingest", *args) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid continuation byte)\n"


def test_cli_custom_profile_needs_scale(tmp_path, capsys):
    assert cli("probe", "--workspace", tmp_path / "ws", "--mock-llm") == 2
    assert "requires explicit" in capsys.readouterr().err


def test_cli_locked_workspace(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    ingest = ["ingest", "--workspace", ws_root, "--input", corpus_file,
              "--n-samples", "2", "--lda-k", "3"]
    with Workspace(ws_root).exclusive_lock():
        before = tree_hashes(ws_root)
        assert cli(*ingest) == 2
        assert tree_hashes(ws_root) == before
    assert "another writer" in capsys.readouterr().err
    assert cli(*ingest) == 0


_HOLD_LOCK = """
import sys, time
from aspectsum.workspace import Workspace
with Workspace(sys.argv[1]).exclusive_lock():
    print("locked", flush=True)
    time.sleep(60)
"""


def test_cli_lock_of_a_killed_writer_is_free(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    src = str(Path(aspectsum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    ingest = ["ingest", "--workspace", ws_root, "--input", corpus_file,
              "--n-samples", "2", "--lda-k", "3"]
    with subprocess.Popen(
        [sys.executable, "-c", _HOLD_LOCK, str(ws_root)],
        stdout=subprocess.PIPE,
        text=True,
        encoding="utf-8",
        env=dict(os.environ, PYTHONPATH=path),
    ) as writer:
        try:
            assert writer.stdout.readline() == "locked\n"
            assert cli(*ingest) == 2  # held by a live process
        finally:
            writer.kill()  # SIGKILL: no cleanup code runs
            writer.wait(timeout=10)
    assert "another writer" in capsys.readouterr().err
    assert (ws_root / ".lock").exists()
    assert cli(*ingest) == 0


def test_cli_eval_format_json(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    capsys.readouterr()
    assert cli(
        "eval", "--workspace", ws_root, "--format", "json", "--mock-llm",
        "--n-samples", "2", "--lda-k", "3", "--lda-iterations", "40",
        "--fold-in-iterations", "10", "--seed", "5",
    ) == 0
    out = capsys.readouterr().out
    assert "up to date" in out  # eval already ran inside run-all


def test_cli_external_scores_merged(tmp_path, corpus_file):
    ws_root = tmp_path / "ws"
    assert cli(*run_all_args(ws_root, corpus_file)) == 0
    external = tmp_path / "ext.json"
    external.write_text(json.dumps({"bertscore": {"doc-000": 0.91}}), encoding="utf-8")
    assert cli(
        "eval", "--workspace", ws_root, "--external-scores", external, "--mock-llm",
        "--n-samples", "2", "--lda-k", "3", "--lda-iterations", "40",
        "--fold-in-iterations", "10", "--seed", "5",
    ) == 0
    report = json.loads((ws_root / "eval" / "report.json").read_text(encoding="utf-8"))
    assert report["external"] == {"bertscore": {"doc-000": 0.91}}


def test_cli_jobs_parallel_matches_serial(tmp_path, corpus_file):
    ws1, ws2, ws3 = tmp_path / "ws1", tmp_path / "ws2", tmp_path / "ws3"
    assert cli(*run_all_args(ws1, corpus_file)) == 0
    assert cli(*run_all_args(ws2, corpus_file), "--jobs", "4") == 0
    assert cli(*run_all_args(ws3, corpus_file)) == 0
    # Every file is byte-identical, the cache included: only the stage's own
    # thread stores, in input order, whatever the worker threads finish first.
    assert tree_hashes(ws2) == tree_hashes(ws1)
    assert tree_hashes(ws3) == tree_hashes(ws1)
