"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

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
