from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from aspectsum.cli import main
from aspectsum.config import build_config
from aspectsum.curriculum import CANONICAL_STAGE_ORDER
from aspectsum.errors import (
    DuplicateId,
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
from aspectsum.workspace import Workspace
from conftest import synthetic_records, write_jsonl

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
    with pytest.raises(DuplicateId):
        stage_ingest(Workspace(tmp_path / "ws"), small_config(), path)


@pytest.mark.parametrize(
    "line,needle",
    [
        ("not json", "line 1"),
        ('{"id": "a", "document": "d"}', "summary"),
        ('{"id": "a", "document": 5, "summary": "s"}', "document"),
        ('{"id": "  ", "document": "d", "summary": "s"}', "id"),
        ('["not", "object"]', "object"),
    ],
)
def test_ingest_schema_errors(tmp_path, line, needle):
    path = tmp_path / "in.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        stage_ingest(Workspace(tmp_path / "ws"), small_config(), path)
    assert needle in str(err.value)


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
    ws.selections_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(MissingPrerequisite, match=f"candidate {cfg.n_samples} of document"):
        stage_eval(ws, cfg)


def test_joint_manifest_uses_configured_loss_weights(tmp_path, corpus_file):
    from aspectsum.pipeline import run_all

    ws = Workspace(tmp_path / "ws")
    cfg = small_config(lambda_rationale=0.5, lambda_summary=1.5)
    run_all(ws, cfg, corpus_file, MockLlmClient(seed=cfg.seed))
    meta = json.loads((ws.manifests_dir / "06_joint.meta.json").read_text())
    assert meta["loss_config"] == {"rationale": 0.5, "summary": 1.5}


def test_select_recovers_from_truncated_embedding_entry(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
    stage_select(ws, cfg, MockLlmClient(seed=cfg.seed))
    selections = ws.selections_path.read_bytes()

    entry = sorted((ws.cache_dir / "embeddings").rglob("*.json"))[0]
    entry.write_bytes(entry.read_bytes()[:20])
    (ws.state_dir / "select.json").unlink()
    client = MockLlmClient(seed=cfg.seed)
    stage_select(ws, cfg, client)
    assert client.embed_calls == 1  # only the corrupt entry is re-embedded
    assert ws.selections_path.read_bytes() == selections
    json.loads(entry.read_text())  # and rewritten whole


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

    # Simulate an interrupted probe: stage state and output gone, cache kept
    # except three entries.
    ws.candidates_path.unlink()
    (ws.state_dir / "probe.json").unlink()
    cached = sorted(ws.cache_dir.rglob("*.txt"))
    assert len(cached) == 6 * 2
    for path in cached[:3]:
        path.unlink()

    client = MockLlmClient(seed=cfg.seed)
    stage_probe(ws, cfg, client)
    assert client.completion_calls == 3


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
    entries = [json.loads(l) for l in ws.ledger_path.read_text().splitlines()]
    assert [e["command"] for e in entries] == ["ingest"]


def test_ledger_appends_only_on_effective_runs(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    stage_ingest(ws, cfg, corpus_file)
    stage_ingest(ws, cfg, corpus_file)  # skipped, no entry
    entries = [json.loads(l) for l in ws.ledger_path.read_text().splitlines()]
    assert [e["command"] for e in entries] == ["ingest"]
    assert entries[0]["seq"] == 0
    assert entries[0]["config_digest"] == cfg.digest()


def test_curriculum_stage_subset_and_override(tmp_path, corpus_file):
    ws = Workspace(tmp_path / "ws")
    cfg = small_config()
    client = MockLlmClient(seed=cfg.seed)
    stage_ingest(ws, cfg, corpus_file)
    stage_probe(ws, cfg, client)
    stage_select(ws, cfg, client)
    from aspectsum.curriculum import Stage
    from aspectsum.errors import StageOrderViolation

    with pytest.raises(StageOrderViolation):
        stage_curriculum(ws, cfg, stages=(Stage.JOINT,))
    result = stage_curriculum(ws, cfg, stages=(Stage.JOINT,), override_stage_order=True)
    assert result["stages"] == ["joint"]
    assert (ws.manifests_dir / "06_joint.jsonl").exists()


def test_seed_changes_probe_outputs(tmp_path, corpus_file):
    outputs = []
    for seed in (1, 2):
        ws = Workspace(tmp_path / f"ws{seed}")
        cfg = small_config(seed=seed)
        stage_ingest(ws, cfg, corpus_file)
        stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
        outputs.append(ws.candidates_path.read_text())
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
    selections = (ws_root / "selection" / "selections.jsonl").read_text().splitlines()
    assert len(selections) == 6  # one record per document
    assert (ws_root / "eval" / "report.json").exists()
    assert not (ws_root / ".lock").exists()


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


def test_cli_custom_profile_needs_scale(tmp_path, capsys):
    assert cli("probe", "--workspace", tmp_path / "ws", "--mock-llm") == 2
    assert "requires explicit" in capsys.readouterr().err


def test_cli_unknown_stage_name(tmp_path, capsys):
    assert cli(
        "curriculum", "--workspace", tmp_path / "ws", "--stages", "warmup",
        "--n-samples", "2", "--lda-k", "3",
    ) == 2
    assert "unknown stage" in capsys.readouterr().err


def test_cli_locked_workspace(tmp_path, corpus_file, capsys):
    ws_root = tmp_path / "ws"
    ws_root.mkdir()
    (ws_root / ".lock").write_text("123")
    assert cli("ingest", "--workspace", ws_root, "--input", corpus_file,
               "--n-samples", "2", "--lda-k", "3") == 2
    assert "another writer" in capsys.readouterr().err


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
    external.write_text(json.dumps({"bertscore": {"doc-000": 0.91}}))
    assert cli(
        "eval", "--workspace", ws_root, "--external-scores", external, "--mock-llm",
        "--n-samples", "2", "--lda-k", "3", "--lda-iterations", "40",
        "--fold-in-iterations", "10", "--seed", "5",
    ) == 0
    report = json.loads((ws_root / "eval" / "report.json").read_text())
    assert report["external"] == {"bertscore": {"doc-000": 0.91}}


def test_cli_jobs_parallel_matches_serial(tmp_path, corpus_file):
    ws1, ws2 = tmp_path / "ws1", tmp_path / "ws2"
    assert cli(*run_all_args(ws1, corpus_file)) == 0
    assert cli(*run_all_args(ws2, corpus_file), "--jobs", "4") == 0
    assert tree_hashes(ws1) == tree_hashes(ws2)
