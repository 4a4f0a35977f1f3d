"""Correctness checks, artifact digests and quality scores of one workspace.

Every check reads only the files the pipeline wrote, in the layout the
README documents, so it holds whatever the program does internally.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

MANIFESTS = (
    "01_singular_aspect",
    "02_singular_triple",
    "03_singular_summary",
    "04_concurrent_early",
    "05_concurrent_late",
    "06_joint",
)
# Examples per document in each manifest; concurrent_late has none for a
# document whose self-guided decode was skipped.
EXAMPLES_PER_DOC = (1, 1, 1, 3, 3, 1)


def _jsonl(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_workspace(root: Path, doc_ids: list[str]) -> tuple[set[str], list[str]]:
    """(ids of documents that fail a check, descriptions of the failures).

    A failure that cannot be pinned on one document fails them all.
    """
    failed: set[str] = set()
    problems: list[str] = []

    def fail(ids, why):
        failed.update(ids)
        problems.append(why)

    try:
        _check(root, doc_ids, fail)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        fail(doc_ids, f"unreadable artifact: {type(exc).__name__}: {exc}")
    return failed, problems


def _check(root: Path, doc_ids: list[str], fail) -> None:
    expected = set(doc_ids)
    corpus_ids = [r["id"] for r in _jsonl(root / "corpus" / "documents.jsonl")]
    missing = expected - set(corpus_ids)
    if missing:
        fail(missing, f"{len(missing)} documents not ingested")

    per_doc: dict[str, int] = {}
    for record in _jsonl(root / "selection" / "selections.jsonl"):
        doc_id = record["document_id"]
        per_doc[doc_id] = per_doc.get(doc_id, 0) + 1
        best = min(record["candidates"], key=lambda c: (-c["combined"], c["index"]))
        if record["golden_index"] != best["index"]:
            fail([doc_id], f"{doc_id}: golden_index is not the combined argmax")
    wrong = {d for d in expected if per_doc.get(d) != 1}
    if wrong or set(per_doc) - expected:
        fail(wrong or expected, "selection lines are not one per document")

    for name, per in zip(MANIFESTS, EXAMPLES_PER_DOC):
        jsonl = root / "manifests" / f"{name}.jsonl"
        meta = json.loads((root / "manifests" / f"{name}.meta.json").read_text(encoding="utf-8"))
        examples = _jsonl(jsonl)
        if _sha256(jsonl) != meta["digest"] or meta["example_count"] != len(examples):
            fail(expected, f"{name}: digest or example count differs from its meta")
            continue
        skipped = {s["document_id"] for s in meta["skipped"]}
        counts: dict[str, int] = {}
        for ex in examples:
            counts[ex["document_id"]] = counts.get(ex["document_id"], 0) + 1
        wrong = {d for d in expected if counts.get(d, 0) != (0 if d in skipped else per)}
        if wrong or set(counts) - expected:
            fail(wrong or expected, f"{name}: example counts inconsistent with documents and skips")

    report = json.loads((root / "eval" / "report.json").read_text(encoding="utf-8"))
    ids = report["document_ids"]
    if (
        report["count"] != len(doc_ids)
        or sorted(ids) != sorted(doc_ids)
        or len(report["documents"]) != len(ids)
    ):
        fail(expected, "eval report does not cover every document exactly once")
        return
    for doc_id, scores in zip(ids, report["documents"]):
        if not all(0.0 <= scores[m]["f1"] <= 1.0 for m in ("rouge1", "rouge2", "rougeL")):
            fail([doc_id], f"{doc_id}: ROUGE F1 outside [0, 1]")


def artifact_digests(root: Path) -> dict[str, str]:
    """sha256 of every workspace file outside cache/, by relative path."""
    digests = {}
    for path in sorted(root.rglob("*")):
        rel = path.relative_to(root).as_posix()
        if path.is_file() and not rel.startswith("cache/"):
            digests[rel] = _sha256(path)
    return digests


def workspace_size(root: Path) -> tuple[int, int]:
    """(files, bytes) under root."""
    files = size = 0
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def topic_recovery(model_path: Path, planted: list[list[str]], top_n: int = 10) -> float:
    """Mean over planted topics of the best top-n term overlap with a learned topic.

    Top terms come from the saved topic_word_counts, ties broken by term.
    """
    model = json.loads(model_path.read_text(encoding="utf-8"))
    terms = model["vocabulary"]["terms"]
    learned = []
    for row in model["topic_word_counts"]:
        order = sorted(range(len(terms)), key=lambda i: (-row[i], terms[i]))
        learned.append({terms[i] for i in order[:top_n]})
    return sum(max(len(top & set(p)) for top in learned) / top_n for p in planted) / len(planted)


def golden_rouge_l(root: Path) -> float:
    report = json.loads((root / "eval" / "report.json").read_text(encoding="utf-8"))
    return report["mean"]["rougeL"]["f1"]


def artifact_counters(root: Path) -> dict[str, int]:
    """Retries, discards, candidate failures, examples and skips, from the artifacts."""
    discards = _jsonl(root / "candidates" / "discards.jsonl")
    selections = _jsonl(root / "selection" / "selections.jsonl")
    metas = [
        json.loads((root / "manifests" / f"{name}.meta.json").read_text(encoding="utf-8"))
        for name in MANIFESTS
    ]
    return {
        # In a stage that succeeds, every discarded fresh completion
        # (attempt >= 0) was followed by another attempt.
        "probe.retries": sum(d["attempt"] >= 0 for d in discards),
        "probe.discards": len(discards),
        "selection.candidate_failures": sum(len(s["failures"]) for s in selections),
        "curriculum.examples": sum(m["example_count"] for m in metas),
        "curriculum.skips": sum(len(m["skipped"]) for m in metas),
    }
