"""Filesystem workspace: artifact stores, run ledger, lock.

Everything persisted is line-oriented text or JSON so downstream trainers
and humans can inspect every intermediate. All writes are deterministic
(sorted keys, no timestamps): two runs with the same inputs and seeds
produce byte-identical artifacts. A stage run appends a ledger line as it
begins and one as it ends, with the digest the next run's skip test compares.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path

from .errors import SchemaError, WorkspaceLocked
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
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):  # the path or a parent is a file
            raise SchemaError(f"no workspace directory at {self.root}") from None

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

    def manifest_paths(self, stage) -> tuple[Path, Path]:
        """The examples (.jsonl) and sidecar (.meta.json) files of a curriculum Stage."""
        from .curriculum import CANONICAL_STAGE_ORDER  # curriculum imports this module

        stem = f"{CANONICAL_STAGE_ORDER.index(stage) + 1:02d}_{stage.value}"
        return self.manifests_dir / f"{stem}.jsonl", self.manifests_dir / f"{stem}.meta.json"

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
    def lock_path(self) -> Path:
        return self.root / ".lock"

    # -- plumbing ------------------------------------------------------------

    def write_text(self, path: Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")

    @contextlib.contextmanager
    def exclusive_lock(self):
        """Single-writer lock (POSIX flock); readers are unrestricted. The kernel
        drops it when its holder exits, however it exits; `.lock` is never
        deleted, or two writers could lock two different files."""
        import fcntl  # POSIX only; the library imports without it

        with self.lock_path.open("a") as fh:
            try:
                fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise WorkspaceLocked(f"another writer holds {self.lock_path}") from None
            yield self

    # -- ledger: the only record of stage runs ---------------------------------

    def _ledger_bytes(self) -> bytes:
        return self.ledger_path.read_bytes() if self.ledger_path.exists() else b""

    def last_entry(self, stage: str) -> dict:
        """The stage's last ledger entry that parses, or {}; a line cut short is skipped."""
        for line in reversed(self._ledger_bytes().split(b"\n")):
            with contextlib.suppress(ValueError):
                entry = json.loads(line)
                if isinstance(entry, dict) and entry.get("command") == stage:
                    return entry
        return {}

    def append_ledger(self, stage: str, digest: str | None, config_digest: str, outputs: list[str]):
        """Append one line in one write (no fsync); digest None marks a stage run begun."""
        text = self._ledger_bytes()
        head = b"\n" if text and not text.endswith(b"\n") else b""  # ends a cut-short line
        entry = {
            "seq": (text + head).count(b"\n"),
            "command": stage,
            "digest": digest,
            "config_digest": config_digest,
            "outputs": sorted(outputs),
        }
        with self.ledger_path.open("ab") as fh:
            fh.write(head + (dump_json(entry) + "\n").encode("utf-8"))

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

    def load_candidate_summaries(self) -> dict[str, list[str]]:
        """Each document's candidate summaries in index order; no rationale is rebuilt."""
        summaries = {}
        for line in self.candidates_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                obj = json.loads(line)
                summaries[obj["document_id"]] = [c["summary"] for c in obj["candidates"]]
        return summaries

    def load_selections(self) -> list[dict]:
        return [
            json.loads(line)
            for line in self.selections_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
