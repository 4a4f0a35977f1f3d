"""scripts/compare_artifacts.py names every artifact whose sha256 differs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_artifacts.py"


def _script():
    spec = importlib.util.spec_from_file_location("compare_artifacts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_names_changed_added_and_removed_artifacts():
    compare = _script()
    parent = {"ledger.jsonl": "a" * 64, "selection/selections.jsonl": "b" * 64, "old": "c" * 64}
    change = {"ledger.jsonl": "a" * 64, "selection/selections.jsonl": "d" * 64, "new": "c" * 64}
    assert compare.differing(parent, change) == ["new", "old", "selection/selections.jsonl"]
    assert compare.differing(parent, dict(parent)) == []


def test_report_prints_each_difference_and_the_workspace_bytes():
    compare = _script()
    digests = {"ledger.jsonl": "a" * 64, "eval/report.json": "b" * 64}
    lines, differ = compare.report("fanout-cold", (digests, 10655.72), (dict(digests), 10655.72))
    assert (lines, differ) == (["fanout-cold: ws_bytes_per_doc 10655.72 -> 10655.72"], False)
    # The same artifacts outside cache/ but another cache size is a difference.
    assert compare.report("w", (digests, 10.0), (digests, 10.5))[1]
    lines, differ = compare.report("w", (digests, 10.0), (dict(digests, **{"eval/report.json": "c"}), 10.0))
    assert differ and lines[0] == "w: eval/report.json differs"


def test_main_exits_1_on_a_difference(monkeypatch, capsys, tmp_path):
    compare = _script()
    runs = {
        (tmp_path / "parent", "fanout-cold"): ({"ledger.jsonl": "a"}, 1.0),
        (tmp_path / "change", "fanout-cold"): ({"ledger.jsonl": "b"}, 1.0),
    }
    monkeypatch.setattr(compare, "run_benchmark", lambda co, w: runs.get((co, w), ({}, 2.0)))
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    out = capsys.readouterr().out
    assert "fanout-cold: ledger.jsonl differs" in out and out.endswith("artifacts differ\n")
    runs[(tmp_path / "change", "fanout-cold")] = ({"ledger.jsonl": "a"}, 1.0)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 0
    assert capsys.readouterr().out.endswith("artifacts are byte-identical\n")
