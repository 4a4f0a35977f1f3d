"""The probe prompt template, n-sample rationale probing, and the SQLite caches.

The template ships as an editable text asset under ``aspectsum/templates/``;
its named placeholders are substituted in a single pass, so
placeholder-looking text inside a document can never be re-substituted.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
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


class _Store:
    """One kind of cache entry in the workspace's one SQLite file, `<root>/cache.sqlite`.

    An entry's key is the sha256 of the NUL-joined kind, provider namespace
    and key parts; its value is zlib-compressed bytes. Stores are not
    durable until commit() or close(), and a commit is atomic, so a killed
    run loses only uncommitted entries and never leaves a torn one. The
    stages use it only from their own thread, in input order, so its bytes
    do not depend on `--jobs`; one lock still guards the one connection
    for any caller. The workspace lock keeps other processes out.
    """

    kind = ""

    def __init__(self, root: Path):
        self.path = Path(root) / "cache.sqlite"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._db = sqlite3.connect(self.path, check_same_thread=False)
        try:
            # WAL with synchronous=NORMAL: a commit costs no fsync, and a
            # crash can lose the last commits but not corrupt the file.
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute(
                "CREATE TABLE IF NOT EXISTS entries "
                "(key BLOB PRIMARY KEY, value BLOB NOT NULL) WITHOUT ROWID"
            )
        except sqlite3.DatabaseError as exc:
            self._db.close()
            raise SchemaError(f"no cache database at {self.path}: {exc}") from None

    def _key(self, namespace: str, *parts: str) -> bytes:
        return hashlib.sha256("\x00".join((self.kind, namespace, *parts)).encode("utf-8")).digest()

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

    def _get(self, key: bytes) -> bytes | None:
        """The stored bytes, or None when absent or damaged (store() overwrites them)."""
        with self._connection() as db:
            row = db.execute("SELECT value FROM entries WHERE key = ?", (key,)).fetchone()
        try:
            return zlib.decompress(row[0]) if row is not None else None
        except zlib.error:
            return None

    def _put(self, key: bytes, data: bytes) -> None:
        value = zlib.compress(data)
        with self._connection() as db:
            db.execute("INSERT OR REPLACE INTO entries VALUES (?, ?)", (key, value))

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
    """Verbatim responses keyed by (provider namespace, rendered prompt, sample slot).

    A response is reused only for the prompt and provider that produced it,
    so an edited document, summary or template misses. I/O failures
    propagate as sqlite3.Error.
    """

    kind = "response"

    def lookup(self, namespace: str, prompt: str, slot: int) -> str | None:
        data = self._get(self._key(namespace, prompt, str(slot)))
        try:
            return data.decode("utf-8") if data is not None else None
        except UnicodeDecodeError:
            return None

    def store(self, namespace: str, prompt: str, slot: int, response: str) -> None:
        self._put(self._key(namespace, prompt, str(slot)), response.encode("utf-8"))


class PrefetchedResponses:
    """One prompt's slots for a probe on a worker thread, which stands in for the cache.

    The cached responses are looked up when this is made, on the thread
    that owns the cache; lookup() returns them, and store() only keeps a
    fresh response. write_to(cache) then stores the kept ones, in slot
    order, on the cache's thread. The namespace and prompt are the ones
    given here, and the arguments of lookup() and store() name the same.
    """

    def __init__(self, cache: ResponseCache, namespace: str, prompt: str, n_samples: int):
        self.prompt = prompt
        self._cached = [cache.lookup(namespace, prompt, slot) for slot in range(n_samples)]
        self._fresh: list[tuple[str, str, int, str]] = []

    def lookup(self, namespace: str, prompt: str, slot: int) -> str | None:
        return self._cached[slot]

    def store(self, namespace: str, prompt: str, slot: int, response: str) -> None:
        self._fresh.append((namespace, prompt, slot, response))

    def write_to(self, cache: ResponseCache) -> None:
        for entry in self._fresh:
            cache.store(*entry)
        self._fresh.clear()


class EmbeddingCache(_Store):
    """Embedding vectors, as float64 bytes, keyed by (provider namespace, text)."""

    kind = "embedding"

    def lookup(self, namespace: str, text: str) -> np.ndarray | None:
        data = self._get(self._key(namespace, text))
        if not data or len(data) % 8:
            return None  # a damaged entry is a miss; the caller re-embeds and stores
        return np.frombuffer(data, dtype="<f8").astype(np.float64)

    def store(self, namespace: str, text: str, vector: np.ndarray) -> None:
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
    cache: ResponseCache | PrefetchedResponses | None = None,
    discards: list[DiscardRecord] | None = None,
    prompt: str | None = None,
) -> CandidateSet:
    """Collect exactly config.n_samples parseable (rationale, summary) pairs.

    Each sample slot runs one loop of attempts. Attempt -1 is the cached
    response, if any, which uses no retry and is never stored again; attempts
    0 to config.max_retries are fresh completions, and the first that parses
    is stored. A response that does not parse, or whose rationale holds a
    reserved curriculum token, is recorded as discarded with its attempt
    number, never silently repaired. The document stops at its
    first slot that never parses. Transport failures propagate immediately.
    prompt, if given, is render_probe_prompt(document), already rendered.
    """
    if prompt is None:
        prompt = render_probe_prompt(document)
    namespace = client.cache_namespace

    accepted: list[tuple[Rationale, str]] = []
    for slot in range(config.n_samples):
        cached = cache.lookup(namespace, prompt, slot) if cache else None
        for attempt in range(-1 if cached is not None else 0, 1 + config.max_retries):
            response = cached if attempt < 0 else client.complete(prompt)
            try:
                rationale, summary = parse_probe_response(response)
                token = find_reserved_token(serialize_rationale(rationale))
                if token is not None:  # the curriculum could not tell its segments apart
                    raise MalformedRationale(f"rationale contains reserved token {token}")
                accepted.append((rationale, summary))
            except MalformedRationale as exc:
                if discards is not None:
                    discards.append(DiscardRecord(document.id, slot, attempt, str(exc), response))
                continue
            if attempt >= 0 and cache is not None:
                cache.store(namespace, prompt, slot, response)
            break
        else:
            raise InsufficientValidSamples(
                f"document {document.id}: sample {slot} did not parse "
                f"after {config.max_retries} retries"
            )
    return CandidateSet(
        document_id=document.id,
        candidates=tuple(
            Candidate(index=i, rationale=r, summary=s) for i, (r, s) in enumerate(accepted)
        ),
    )
