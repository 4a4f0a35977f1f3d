"""scripts/scale.py runs every stage in its own process and records each one."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "scale.py"


def test_scale_script_records_every_stage(tmp_path):
    out = tmp_path / "scale.json"
    subprocess.run(
        [
            sys.executable, str(SCRIPT), "--docs", "50", "--out", str(out),
            "--vocabulary", "500", "--doc-words", "60", "--summary-words", "10",
        ],
        check=True,
        capture_output=True,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    (run,) = result["runs"]
    assert (run["src"], run["docs"]) == ("checkout", 50)
    assert list(run["stages"]) == ["ingest", "probe", "select", "curriculum", "eval"]
    for stage in run["stages"].values():
        assert stage["wall_s"] > 0 and stage["cpu_s"] > 0
        assert 10 < stage["max_rss_mib"] < 1024
    assert run["stages"]["ingest"]["report"]["ingested"] == 50
    assert run["stages"]["probe"]["report"]["candidates"] == 50 * 15  # the cnndm profile
    assert run["stages"]["eval"]["report"]["documents"] == 50
    assert run["workspace_bytes"]["selection"] > 0


def test_scale_main_records_each_stage_and_the_manifest_bytes(tmp_path):
    import importlib.util

    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    scale = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale)
    out = tmp_path / "scale.json"
    argv = ["--docs", "3", "--vocabulary", "40", "--doc-words", "20", "--summary-words", "4"]
    assert scale.main([*argv, "--out", str(out)]) == 0
    (run,) = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert list(run["stages"]) == list(scale.STAGES)
    for name, stage in run["stages"].items():
        assert stage["wall_s"] > 0 and stage["cpu_s"] > 0 and stage["max_rss_mib"] > 0, name
    assert run["workspace_bytes"]["manifests"] > 0
    # One response row per document, and one embedding row per distinct text:
    # a document's reference summary and its 15 candidates' rationales and summaries.
    assert run["cache_rows"]["responses"] == 3
    assert 3 < run["cache_rows"]["entries"] <= 3 * (1 + 2 * 15)
    digests = run["workspace_sha256"]
    manifests = [name for name in digests if name.startswith("manifests/")]
    assert len(manifests) == 12  # six examples files and six sidecars
    assert {"corpus/documents.jsonl", "ledger.jsonl", "curriculum/report.json"} <= set(digests)
    assert [name for name in digests if name.startswith("cache/")] == ["cache/cache.sqlite"]
    assert all(len(digest) == 64 for digest in digests.values())


def test_scale_jobs_runs_each_value_with_the_same_bytes_and_counts_helpers_apart(tmp_path):
    out = tmp_path / "scale.json"
    subprocess.run(
        [
            sys.executable, str(SCRIPT), "--docs", "20", "--jobs", "1", "2", "--out", str(out),
            "--vocabulary", "300", "--doc-words", "40", "--summary-words", "8",
        ],
        check=True,
        capture_output=True,
    )
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["settings"]["jobs"] == [1, 2]
    serial, parallel = result["runs"]
    assert (serial["jobs"], parallel["jobs"]) == (1, 2)
    assert parallel["workspace_sha256"] == serial["workspace_sha256"]
    for run in (serial, parallel):
        for name, stage in run["stages"].items():
            assert 10 < stage["max_rss_mib"] < 1024
            if run["jobs"] == 2 and name == "select":  # its fold-in helpers
                assert stage["helpers_max_rss_mib"] > 10
            else:
                helpers = (stage["helpers_max_rss_mib"], stage["helpers_cpu_s"])
                assert helpers == (0, 0), (run["jobs"], name)
