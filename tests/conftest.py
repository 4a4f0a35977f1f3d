"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import contextlib
import hashlib
import json
import random
import sqlite3
import zlib
from pathlib import Path

import pytest

from aspectsum.probe import probe_rationales, render_probe_prompt
from aspectsum.rationale import Aspect, Document, Rationale, Triple

# Word pools for generated rationales. Aspect words may contain anything but
# ";" and line breaks; triple words additionally avoid "|" and brackets.
_TRIPLE_WORDS = [
    "cat", "dog", "Fox", "Z9", "it's", "co-op", "x.y,", "(q)", "e—f",
    "ü漢", "a;b", "semi;colon", "tail5", "NOISE", "0",
]
_ASPECT_WORDS = _TRIPLE_WORDS_NO_SEMI = [w for w in _TRIPLE_WORDS if ";" not in w] + [
    "br[ack]ets", "pi|pe", "odd{X}", "<tag>",
]


def random_field(rng: random.Random, pool: list[str]) -> str:
    # Joining with single spaces keeps fields strip-stable by construction.
    return " ".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))


def random_rationale(rng: random.Random) -> Rationale:
    aspects = tuple(
        Aspect(random_field(rng, _ASPECT_WORDS)) for _ in range(rng.randint(1, 5))
    )
    triples = tuple(
        Triple(
            random_field(rng, _TRIPLE_WORDS),
            random_field(rng, _TRIPLE_WORDS),
            random_field(rng, _TRIPLE_WORDS),
        )
        for _ in range(rng.randint(1, 6))
    )
    return Rationale(aspects, triples)


THEMES = [
    ["storm", "flood", "rain", "river", "levee", "rescue", "crew", "damage"],
    ["election", "vote", "senate", "campaign", "ballot", "poll", "margin", "debate"],
    ["telescope", "galaxy", "orbit", "launch", "probe", "astronomer", "star", "lens"],
]


def synthetic_records(n: int, seed: int = 42, doc_words: int = 40, summary_words: int = 10):
    """Thematic JSONL-ready records, deterministic for a seed."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        theme = THEMES[i % len(THEMES)]
        records.append(
            {
                "id": f"doc-{i:03d}",
                "document": " ".join(rng.choice(theme) for _ in range(doc_words)),
                "summary": " ".join(rng.choice(theme) for _ in range(summary_words)),
            }
        )
    return records


def write_jsonl(path: Path, records) -> Path:
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return path


def cache_rows(cache_dir: Path, table: str = "entries") -> dict[bytes, bytes]:
    """Every committed (key, value) row of a table of the cache file in cache_dir, by key.

    `entries` holds the embeddings (and the responses of a legacy file),
    `responses` a row of responses per prompt.
    """
    with contextlib.closing(sqlite3.connect(Path(cache_dir) / "cache.sqlite")) as db:
        return dict(db.execute(f"SELECT key, value FROM {table} ORDER BY key"))


def write_cache_rows(
    cache_dir: Path, changes: dict[bytes, bytes | None], table: str = "entries"
) -> None:
    """Rewrite (a value) or delete (None) rows of a table of the cache file, as damage would."""
    with contextlib.closing(sqlite3.connect(Path(cache_dir) / "cache.sqlite")) as db, db:
        for key, value in changes.items():
            if value is None:
                db.execute(f"DELETE FROM {table} WHERE key = ?", (key,))
            else:
                db.execute(f"UPDATE {table} SET value = ? WHERE key = ?", (value, key))


def legacy_key(namespace: str, prompt: str, slot: int) -> bytes:
    """A response's key when each had a row of its own: its slot was a key part."""
    return hashlib.sha256(f"response\x00{namespace}\x00{prompt}\x00{slot}".encode()).digest()


def write_legacy_cache(cache_dir: Path, responses: dict[tuple[str, str, int], str]) -> None:
    """A cache file as written when each response had its own row: user_version 0."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.closing(sqlite3.connect(cache_dir / "cache.sqlite")) as db, db:
        db.execute(
            "CREATE TABLE entries (key BLOB PRIMARY KEY, value BLOB NOT NULL) WITHOUT ROWID"
        )
        db.executemany(
            "INSERT INTO entries VALUES (?, ?)",
            [(legacy_key(*k), zlib.compress(r.encode())) for k, r in responses.items()],
        )


def user_version(cache_dir: Path) -> int:
    """The cache file's PRAGMA user_version: 1 once responses share a row, 0 before."""
    with contextlib.closing(sqlite3.connect(cache_dir / "cache.sqlite")) as db:
        return db.execute("PRAGMA user_version").fetchone()[0]


def probe_with_cache(client, document, config, cache, **kwargs):
    """probe_rationales over the cached row of the document's prompt, as the probe
    stage runs it: look the row up, probe with a copy, and store the copy if it changed."""
    prompt = render_probe_prompt(document)
    n = config.n_samples
    cached = cache.lookup(client.cache_namespace, prompt, n) or [None] * n
    row = list(cached)
    try:
        return probe_rationales(client, document, config, row=row, prompt=prompt, **kwargs)
    finally:
        if row != cached:
            cache.store(client.cache_namespace, prompt, row)


@pytest.fixture
def sample_document() -> Document:
    return Document(
        "doc-1",
        "A fire erupted on an offshore oil rig near the coast and crews "
        "contained the blaze after several hours",
        "Crews contained an oil rig fire after several hours",
    )


@pytest.fixture
def sample_rationale() -> Rationale:
    return Rationale(
        aspects=(Aspect("oil rig fire"), Aspect("containment effort")),
        triples=(
            Triple("fire", "erupted on", "oil rig"),
            Triple("crews", "contained", "blaze"),
        ),
    )
