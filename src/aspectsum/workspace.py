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
import os
from collections.abc import Iterable, Iterator
from pathlib import Path

from .errors import AspectsumError, MissingPrerequisite, SchemaError, WorkspaceLocked
from .rationale import CandidateSet, Document, candidate_set_from_json, rationale_from_json


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def dump_json_pretty(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def jsonl_lines(records) -> Iterator[str]:
    """JSON Lines, the form of every artifact: one compact object per line, ending at \\n."""
    return (dump_json(record) + "\n" for record in records)


def jsonl_text(records) -> str:
    return "".join(jsonl_lines(records))


def dump_json_pretty_chunks(obj: dict) -> Iterator[str]:
    """dump_json_pretty(obj) in pieces; a value that is an iterator is written
    as a JSON list, one element at a time, so the list is never held."""

    def nested(value, level: int) -> str:  # the text of value where it sits, level deep
        return dump_json_pretty(value)[:-1].replace("\n", "\n" + "  " * level)

    yield "{"
    for i, (key, value) in enumerate(sorted(obj.items())):
        yield f'{"," if i else ""}\n  {dump_json(key)}: '
        if not isinstance(value, Iterator):
            yield nested(value, 1)
            continue
        opening = "["
        for element in value:
            yield f"{opening}\n    {nested(element, 2)}"
            opening = ","
        yield "[]" if opening == "[" else "\n  ]"
    yield "\n}\n"


def checked(obj: dict, **kinds: type) -> dict:
    """obj, once each named field (str or int) holds its kind; a missing one raises KeyError."""
    for key, kind in kinds.items():
        if not isinstance(obj[key], kind):
            raise SchemaError(f"field {key!r} is not {'a string' if kind is str else 'an integer'}")
    return obj


def read_json_object(path: Path, what: str) -> dict:
    """The JSON object a user-given file holds, such as a config file; else SchemaError."""
    if not Path(path).is_file():
        raise SchemaError(f"no {what} at {path}")
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise SchemaError(f"{what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{what} {path} does not hold a JSON object")
    return obj


def next_with_id(items: Iterator, wanted: str, item_id, missing: str):
    """The next of items whose item_id is wanted, skipping the ones before it.

    Artifacts follow corpus order (probe writes candidate sets in it, and
    select and curriculum keep it), so one pass over each file pairs them.
    An item not found further on, such as one a hand edit moved, raises
    MissingPrerequisite(missing).
    """
    for item in items:
        if item_id(item) == wanted:
            return item
    raise MissingPrerequisite(missing)


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):  # 1 MiB at a time
            digest.update(block)
    return digest.hexdigest()


class Workspace:
    def __init__(self, root: Path):
        self.root = Path(root)
        # The files hashed for stage digests: absolute path -> ((st_size,
        # st_mtime_ns, st_ino), sha256). write_text drops the entry of each
        # file it replaces. Nothing of it is persisted.
        self.file_hashes: dict[str, tuple[tuple[int, int, int], str]] = {}
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

    def write_text(self, path: Path, text: str | Iterable[str]) -> None:
        """Write text, a str or str pieces, to `<name>.part`, then rename it over path.

        path changes only once every piece is written. If a piece cannot be
        made or written, the part file goes, and so does path's directory
        if this write made it: a failed write leaves the workspace as it was.
        """
        pieces = iter([text] if isinstance(text, str) else text)
        part = path.with_name(path.name + ".part")
        made_dir = not path.parent.exists()
        try:
            first = next(pieces, "")  # no directory or file until a piece is made
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(part, "w", encoding="utf-8") as fh:
                fh.write(first)
                fh.writelines(pieces)
            os.replace(part, path)
            self.file_hashes.pop(os.path.abspath(path), None)
        except BaseException:
            part.unlink(missing_ok=True)
            if made_dir:
                with contextlib.suppress(OSError):  # not empty: an earlier write made it too
                    path.parent.rmdir()
            raise

    def write_jsonl(self, path: Path, records) -> None:
        self.write_text(path, jsonl_lines(records))

    def read_jsonl(self, path: Path, record=lambda obj: obj) -> Iterator:
        """Yield record(obj) for each object line of the file; a bad line raises SchemaError.

        The file is opened at the first record asked for and read a line at
        a time, so a caller holds only the records it keeps. It is closed
        once the last record is read, on an error, or when the caller drops
        the reader before its end. Lines end at \\n (as \\r\\n and \\r read),
        never at U+2028, U+2029 or U+0085 as str.splitlines() does: dump_json
        leaves those raw in strings.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                for line_no, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    where = f"{path}, line {line_no}"
                    try:
                        obj = json.loads(line)
                        if not isinstance(obj, dict):
                            raise SchemaError("record is not a JSON object")
                        value = record(obj)
                    except json.JSONDecodeError as exc:
                        raise SchemaError(f"{where}: invalid JSON: {exc.msg}") from None
                    except KeyError as exc:
                        raise SchemaError(f"{where}: missing field {exc}") from None
                    except (TypeError, ValueError, AspectsumError) as exc:
                        raise SchemaError(f"{where}: {exc}") from None
                    yield value
        except UnicodeDecodeError as exc:  # raised by read-ahead, so no line is named
            raise SchemaError(f"{path}: not UTF-8 text ({exc.reason})") from None

    @contextlib.contextmanager
    def exclusive_lock(self):
        """Single-writer lock (POSIX flock); readers are unrestricted. The kernel
        drops it when its holder exits, however it exits; `.lock` is never
        deleted, or two writers could lock two different files."""
        import fcntl  # POSIX only; the library imports without it

        with self.lock_path.open("ab") as fh:
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

    # -- typed stores: lazy readers, and the loaders the benchmark's tracer wraps

    def corpus(self) -> Iterator[Document]:
        return self.read_jsonl(
            self.corpus_path, lambda o: Document(o["id"], o["text"], o["ground_truth_summary"])
        )

    def candidate_sets(self) -> Iterator[CandidateSet]:
        return self.read_jsonl(self.candidates_path, candidate_set_from_json)

    def selections(self) -> Iterator[dict]:
        def selection(obj: dict) -> dict:
            rationale_from_json(checked(obj, document_id=str, golden_index=int)["golden_rationale"])
            return obj

        return self.read_jsonl(self.selections_path, selection)

    def manifest_examples(self, stage) -> Iterator[dict]:
        """The lines of a curriculum Stage's manifest, each with its full `input`.

        A line's `input_without_article` is joined with the text of the
        corpus document its `document_id` names (curriculum.with_article).
        Manifests follow corpus order, so the corpus is read once, in step
        with the file. The join holds only for the corpus the manifest was
        built from: a sidecar whose `corpus_sha256` is not that of the corpus
        on disk, or that has none, raises MissingPrerequisite, as does a missing
        corpus; a sidecar that is missing or not a JSON object raises SchemaError.
        """
        from .curriculum import ARTICLE_TOKEN, with_article  # curriculum imports this module

        jsonl, meta = self.manifest_paths(stage)
        built_from = read_json_object(meta, "manifest sidecar").get("corpus_sha256")
        try:
            corpus_sha256 = file_sha256(self.corpus_path)
        except FileNotFoundError:
            raise MissingPrerequisite("corpus") from None
        if built_from != corpus_sha256:
            raise MissingPrerequisite(
                f"{stage.value} manifest built from the current corpus; re-run curriculum"
            )

        def line(obj: dict) -> dict:
            checked(obj, document_id=str, input_without_article=str)
            if ARTICLE_TOKEN not in obj["input_without_article"]:
                raise SchemaError(f"input_without_article has no {ARTICLE_TOKEN}")
            return obj

        documents = self.corpus()
        doc = None
        for obj in self.read_jsonl(jsonl, line):
            wanted = obj["document_id"]
            if doc is None or doc.id != wanted:
                missing = f"corpus document {wanted}, in corpus order"
                doc = next_with_id(documents, wanted, lambda d: d.id, missing)
            obj["input"] = with_article(obj.pop("input_without_article"), doc.text)
            yield obj

    def load_corpus(self) -> list[Document]:
        return list(self.corpus())

    def load_candidate_sets(self) -> list[CandidateSet]:
        return list(self.candidate_sets())

    def load_selections(self) -> list[dict]:
        return list(self.selections())
