"""Filesystem workspace: artifact stores, stage state, run ledger, lock.

Everything persisted is line-oriented text or JSON so downstream trainers
and humans can inspect every intermediate. All writes are deterministic
(sorted keys, no timestamps): two runs with the same inputs and seeds
produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

from .errors import WorkspaceLocked
from .rationale import (
    CandidateSet,
    Candidate,
    Document,
    rationale_from_json,
    rationale_to_json,
)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dump_json_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workspace:
    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------

    @property
    def corpus_path(self) -> Path:
        return self.root / "corpus" / "documents.jsonl"

    @property
    def ingest_report_path(self) -> Path:
        return self.root / "corpus" / "ingest_report.json"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def candidates_path(self) -> Path:
        return self.root / "candidates" / "candidates.jsonl"

    @property
    def discards_path(self) -> Path:
        return self.root / "candidates" / "discards.jsonl"

    @property
    def lda_model_path(self) -> Path:
        return self.root / "lda" / "model.json"

    @property
    def selections_path(self) -> Path:
        return self.root / "selection" / "selections.jsonl"

    @property
    def manifests_dir(self) -> Path:
        return self.root / "manifests"

    @property
    def curriculum_report_path(self) -> Path:
        return self.root / "curriculum" / "report.json"

    @property
    def eval_json_path(self) -> Path:
        return self.root / "eval" / "report.json"

    @property
    def eval_table_path(self) -> Path:
        return self.root / "eval" / "report.txt"

    @property
    def ledger_path(self) -> Path:
        return self.root / "ledger.jsonl"

    @property
    def state_dir(self) -> Path:
        return self.root / "state"

    @property
    def lock_path(self) -> Path:
        return self.root / ".lock"

    # -- plumbing ------------------------------------------------------------

    def write_text(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    @contextlib.contextmanager
    def exclusive_lock(self):
        """Single-writer lock; readers are unrestricted."""
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise WorkspaceLocked(
                f"{self.lock_path} exists; another writer is active "
                "(delete it if that process is gone)"
            ) from None
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield self
        finally:
            with contextlib.suppress(FileNotFoundError):
                self.lock_path.unlink()

    # -- stage state and ledger ------------------------------------------------

    def stage_digest(self, stage: str) -> str | None:
        path = self.state_dir / f"{stage}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8")).get("digest")

    def mark_stage(self, stage: str, digest: str) -> None:
        self.write_text(self.state_dir / f"{stage}.json", dump_json({"digest": digest}) + "\n")

    def append_ledger(self, command: str, config_digest: str, outputs: list[str]) -> None:
        seq = 0
        if self.ledger_path.exists():
            with self.ledger_path.open(encoding="utf-8") as fh:
                seq = sum(1 for _ in fh)
        entry = {
            "seq": seq,
            "command": command,
            "config_digest": config_digest,
            "outputs": sorted(outputs),
        }
        self.ledger_path.parent.mkdir(parents=True, exist_ok=True)
        with self.ledger_path.open("a", encoding="utf-8") as fh:
            fh.write(dump_json(entry) + "\n")

    # -- typed stores ----------------------------------------------------------

    def save_corpus(self, documents: list[Document]) -> None:
        lines = [
            dump_json(
                {"id": d.id, "text": d.text, "ground_truth_summary": d.ground_truth_summary}
            )
            for d in documents
        ]
        self.write_text(self.corpus_path, "\n".join(lines) + ("\n" if lines else ""))

    def load_corpus(self) -> list[Document]:
        documents = []
        for line in self.corpus_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            documents.append(Document(obj["id"], obj["text"], obj["ground_truth_summary"]))
        return documents

    def save_candidate_sets(self, sets: list[CandidateSet]) -> None:
        lines = []
        for cs in sets:
            lines.append(
                dump_json(
                    {
                        "document_id": cs.document_id,
                        "candidates": [
                            {
                                "index": c.index,
                                "rationale": rationale_to_json(c.rationale),
                                "summary": c.summary,
                            }
                            for c in cs.candidates
                        ],
                    }
                )
            )
        self.write_text(self.candidates_path, "\n".join(lines) + ("\n" if lines else ""))

    def load_candidate_sets(self) -> list[CandidateSet]:
        sets = []
        for line in self.candidates_path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            obj = json.loads(line)
            sets.append(
                CandidateSet(
                    document_id=obj["document_id"],
                    candidates=tuple(
                        Candidate(
                            index=c["index"],
                            rationale=rationale_from_json(c["rationale"]),
                            summary=c["summary"],
                        )
                        for c in obj["candidates"]
                    ),
                )
            )
        return sets

    def load_selections(self) -> list[dict]:
        return [
            json.loads(line)
            for line in self.selections_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
