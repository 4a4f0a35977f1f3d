"""The probe prompt template, n-sample rationale probing, and the SQLite caches.

The template ships as an editable text asset under ``aspectsum/templates/``;
its named placeholders are substituted in a single pass, so
placeholder-looking text inside a document can never be re-substituted.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import re
import sqlite3
import threading
import zlib
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clients import LlmClient
from .curriculum import find_reserved_token
from .errors import EmptyField, InsufficientValidSamples, MalformedRationale, SchemaError
from .rationale import (
    Candidate,
    CandidateSet,
    Document,
    Rationale,
    parse_probe_response,
    serialize_rationale,
)

_PLACEHOLDER_RE = re.compile(r"\{(document|ground_truth_summary)\}")


@dataclass(frozen=True)
class PromptTemplate:
    body: str

    def __post_init__(self):
        for placeholder in ("{document}", "{ground_truth_summary}"):
            count = self.body.count(placeholder)
            if count != 1:
                raise ValueError(
                    f"probe template must contain {placeholder} exactly once, found {count}"
                )

    def render(self, values: dict[str, str]) -> str:
        # Single pass over the template: substituted text is never rescanned.
        return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], self.body)

    @classmethod
    @functools.cache
    def load(cls) -> "PromptTemplate":
        """The bundled probe template, read once per process."""
        body = (
            resources.files("aspectsum.templates")
            .joinpath("rationale_probe.txt")
            .read_text(encoding="utf-8")
        )
        return cls(body)


def render_probe_prompt(d: Document) -> str:
    """The three-step aspects/triples/summary probing prompt."""
    if not d.text:
        raise EmptyField("document text is empty")
    if not d.ground_truth_summary:
        raise EmptyField("ground-truth summary is empty")
    return PromptTemplate.load().render(
        {"document": d.text, "ground_truth_summary": d.ground_truth_summary}
    )


@dataclass(frozen=True)
class ProbeConfig:
    n_samples: int
    max_retries: int = 2

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


# PRAGMA user_version of a cache file made by this code. A file whose
# `entries` hold rows and that reads 0 was written when each response had a
# row of its own there.
CACHE_FORMAT = 1
_SCHEMA = (
    # Embedding vectors; and, in a file made before CACHE_FORMAT 1, responses.
    "CREATE TABLE IF NOT EXISTS entries (key BLOB PRIMARY KEY, value BLOB NOT NULL) WITHOUT ROWID",
    # A prompt's responses, a row each. A rowid table keeps a value of up to
    # about 4 KB on its b-tree page; a WITHOUT ROWID table keeps about 1 KB
    # and moves the rest to an overflow page of its own, mostly empty.
    "CREATE TABLE IF NOT EXISTS responses (key BLOB PRIMARY KEY, value BLOB NOT NULL)",
)


def _cache_key(*parts: str) -> bytes:
    return hashlib.sha256("\x00".join(parts).encode("utf-8")).digest()


def _decompressed(value: bytes | None) -> bytes | None:
    """A stored value's bytes, or None when it is absent or does not decompress."""
    try:
        return zlib.decompress(value) if value is not None else None
    except zlib.error:
        return None


class _Store:
    """One kind of cache entry in the workspace's one SQLite file, `<root>/cache.sqlite`.

    An entry is a row of the kind's `table`. Its key is the sha256 of the
    NUL-joined kind, provider namespace and key parts; its value is
    zlib-compressed bytes. Stores are not
    durable until commit() or close(), and a commit is atomic, so a killed
    run loses only uncommitted entries and never leaves a torn one. The
    stages use it only from their own thread, in input order, so its bytes
    do not depend on `--jobs`; one lock still guards the one connection
    for any caller. The workspace lock keeps other processes out.
    """

    kind = ""
    table = "entries"

    def __init__(self, root: Path):
        self.path = Path(root) / "cache.sqlite"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        try:
            # WAL with synchronous=NORMAL: a commit costs no fsync, and a
            # crash can lose the last commits but not corrupt the file.
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            for statement in _SCHEMA:
                self._db.execute(statement)
            (version,) = self._db.execute("PRAGMA user_version").fetchone()
            if version == 0 and not self._db.execute("SELECT 1 FROM entries LIMIT 1").fetchone():
                self._db.execute(f"PRAGMA user_version = {CACHE_FORMAT}")
                version = CACHE_FORMAT
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise SchemaError(f"no cache database at {self.path}: {exc}") from None
        self._legacy = version == 0

    def _key(self, namespace: str, *parts: str) -> bytes:
        return _cache_key(self.kind, namespace, *parts)

    @contextlib.contextmanager
    def _connection(self):
        """The connection, under the lock. A damaged file raises SchemaError naming
        it; an OperationalError (an I/O failure, a full disk) propagates as it is."""
        with self._lock:
            try:
                yield self._db
            except sqlite3.OperationalError:
                raise
            except sqlite3.DatabaseError as exc:
                raise SchemaError(
                    f"damaged cache database {self.path} ({exc}); delete it to go on, "
                    "at the cost of asking the provider again for what it held"
                ) from None

    def _get(self, key: bytes, table: str | None = None) -> bytes | None:
        """The stored bytes, or None when absent or damaged (store() overwrites them)."""
        with self._connection() as db:
            row = db.execute(
                f"SELECT value FROM {table or self.table} WHERE key = ?", (key,)
            ).fetchone()
        return _decompressed(row[0] if row is not None else None)

    def _put(self, key: bytes, data: bytes) -> None:
        value = zlib.compress(data)
        with self._connection() as db:
            db.execute(f"INSERT OR REPLACE INTO {self.table} VALUES (?, ?)", (key, value))

    def commit(self) -> None:
        with self._connection() as db:
            db.commit()

    def close(self) -> None:
        """Commit what was stored and close; the last close folds the WAL into the file."""
        with self._connection() as db:
            try:
                db.commit()
            finally:
                db.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ResponseCache(_Store):
    """Verbatim responses: one row of the `responses` table per (namespace, prompt).

    A row's value is a JSON array with one element per sample slot: the
    slot's response, or null for a slot not yet filled. A response is
    reused only for the prompt and provider that produced it, so an edited
    document, summary or template misses. A row that does not decompress,
    or is not such an array, is a miss for every slot; the next store()
    replaces it. In a file made before this layout (user_version 0), a slot
    the row does not hold is read from the slot's own row of `entries`,
    whose key is the sha256 of the NUL-joined `response`, namespace, prompt
    and slot. Those rows are never written, but a row looked up and then
    stored holds what they gave it. I/O failures propagate as sqlite3.Error.
    """

    kind = "responses"
    table = "responses"

    def _legacy_lookup(self, namespace: str, prompt: str, slot: int) -> str | None:
        data = self._get(_cache_key("response", namespace, prompt, str(slot)), "entries")
        try:
            return data.decode("utf-8") if data is not None else None
        except UnicodeDecodeError:
            return None

    def lookup(self, namespace: str, prompt: str, n_samples: int) -> list[str | None] | None:
        """The prompt's row, padded with None to n_samples slots; None when no slot is filled."""
        with self._lock:
            try:
                row = json.loads(self._get(self._key(namespace, prompt)) or b"[]")
            except ValueError:  # also bytes that are not UTF-8
                row = []
            if not (isinstance(row, list) and all(r is None or isinstance(r, str) for r in row)):
                row = []
            row += [None] * (n_samples - len(row))
            if self._legacy:
                row = [
                    self._legacy_lookup(namespace, prompt, slot) if r is None else r
                    for slot, r in enumerate(row)
                ]
        return row if any(r is not None for r in row) else None

    def store(self, namespace: str, prompt: str, row: list[str | None]) -> None:
        """Replace the prompt's row, without its trailing empty slots."""
        while row and row[-1] is None:
            row = row[:-1]
        data = json.dumps(row, ensure_ascii=False, separators=(",", ":"))
        self._put(self._key(namespace, prompt), data.encode("utf-8"))


# Keys one read-ahead statement binds, and so the most rows held ahead of
# their lookups: with 1,536-d provider vectors, about 0.7 MB of compressed
# float64 values. Well under SQLite's host-parameter limit (999 before 3.32).
_READ_AHEAD_KEYS = 64


class EmbeddingCache(_Store):
    """Embedding vectors, as float64 bytes, keyed by (provider namespace, text).

    read_ahead(namespace, texts) names the texts that lookup() will be asked
    for next, in that order. A lookup of the next named text reads its row
    and those of up to _READ_AHEAD_KEYS - 1 texts after it in one statement,
    and each lookup of a text so read takes its row from memory. A lookup out
    of that order reads its own row, as without read_ahead.
    """

    kind = "embedding"

    def __init__(self, root: Path):
        super().__init__(root)
        # (namespace, text) pairs named and not read yet, the next one last;
        # and the rows read ahead and not looked up yet, None when absent.
        self._ahead: list[tuple[str, str]] = []
        self._rows: dict[tuple[str, str], bytes | None] = {}

    def read_ahead(self, namespace: str, texts: list[str]) -> None:
        with self._lock:
            self._ahead = [(namespace, text) for text in reversed(texts)]
            self._rows = {}

    def _read_next(self) -> None:
        names = self._ahead[-_READ_AHEAD_KEYS:][::-1]
        del self._ahead[-_READ_AHEAD_KEYS:]
        keys = {self._key(*name): name for name in names}
        self._rows.update(dict.fromkeys(names))
        marks = ",".join("?" * len(keys))
        with self._connection() as db:
            for key, value in db.execute(
                f"SELECT key, value FROM entries WHERE key IN ({marks})", list(keys)
            ):
                self._rows[keys[key]] = value

    def lookup(self, namespace: str, text: str) -> np.ndarray | None:
        name = (namespace, text)
        with self._lock:
            if name not in self._rows and self._ahead and self._ahead[-1] == name:
                self._read_next()
            if name in self._rows:
                data = _decompressed(self._rows.pop(name))
            else:
                data = self._get(self._key(namespace, text))
        if not data or len(data) % 8:
            return None  # a damaged entry is a miss; the caller re-embeds and stores
        return np.frombuffer(data, dtype="<f8").astype(np.float64)

    def store(self, namespace: str, text: str, vector: np.ndarray) -> None:
        with self._lock:
            self._rows.pop((namespace, text), None)
            self._put(self._key(namespace, text), np.asarray(vector, dtype="<f8").tobytes())


@dataclass(frozen=True)
class DiscardRecord:
    """One discarded probe response, kept for the audit trail."""

    document_id: str
    sample_index: int
    attempt: int
    reason: str
    response: str


def probe_rationales(
    client: LlmClient,
    document: Document,
    config: ProbeConfig,
    row: list[str | None] | None = None,
    discards: list[DiscardRecord] | None = None,
    prompt: str | None = None,
) -> CandidateSet:
    """Collect exactly config.n_samples parseable (rationale, summary) pairs.

    row, if given, holds a cached response or None for each slot, as
    ResponseCache.lookup returns it. A slot's cached response is attempt -1;
    it uses no retry. Then the slots without one that parses are filled in
    rounds 0 to config.max_retries: each round asks client.complete_many
    once, for every slot still open, in slot order, and a fresh response
    that parses is written into its slot of row. A response that does not
    parse, or whose rationale holds a reserved curriculum token, is recorded
    as discarded with its slot and its round as the attempt, never silently
    repaired; so the discards come round by round, each round in slot order.
    A slot still open after the last round stops the document, naming the
    lowest such slot. Transport failures propagate immediately. prompt, if
    given, is render_probe_prompt(document), already rendered.
    """
    if prompt is None:
        prompt = render_probe_prompt(document)
    accepted: dict[int, tuple[Rationale, str]] = {}

    def accept(slot: int, attempt: int, response: str) -> bool:
        try:
            rationale, summary = parse_probe_response(response)
            token = find_reserved_token(serialize_rationale(rationale))
            if token is not None:  # the curriculum could not tell its segments apart
                raise MalformedRationale(f"rationale contains reserved token {token}")
        except MalformedRationale as exc:
            if discards is not None:
                discards.append(DiscardRecord(document.id, slot, attempt, str(exc), response))
            return False
        accepted[slot] = (rationale, summary)
        return True

    open_slots = []
    for slot in range(config.n_samples):
        cached = row[slot] if row is not None else None
        if cached is None or not accept(slot, -1, cached):
            open_slots.append(slot)
    for attempt in range(1 + config.max_retries):
        if not open_slots:
            break
        responses = client.complete_many(prompt, len(open_slots))
        still_open = []
        for slot, response in zip(open_slots, responses, strict=True):
            if not accept(slot, attempt, response):
                still_open.append(slot)
            elif row is not None:
                row[slot] = response
        open_slots = still_open
    if open_slots:
        raise InsufficientValidSamples(
            f"document {document.id}: sample {open_slots[0]} did not parse "
            f"after {config.max_retries} retries"
        )
    return CandidateSet(
        document_id=document.id,
        candidates=tuple(
            Candidate(index=slot, rationale=r, summary=s)
            for slot, (r, s) in sorted(accepted.items())
        ),
    )
