"""Seeded planted-topic corpora for the benchmark.

Every planted topic owns a disjoint set of terms ``t{t}w{ii}``; a document
and its summary draw words from one topic only, as in the planted-topic
recovery criterion of the acceptance suite. The pipeline sees only the
JSON Lines file this module writes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORDS_PER_TOPIC = 20


def planted_topics(n_topics: int) -> list[list[str]]:
    return [[f"t{t}w{i:02d}" for i in range(WORDS_PER_TOPIC)] for t in range(n_topics)]


def generate(
    seed: int, n_docs: int, doc_words: int, summary_words: int, n_topics: int
) -> list[dict]:
    """Records {id, document, summary}; the same arguments give the same records."""
    rng = random.Random(seed)
    topics = planted_topics(n_topics)
    records = []
    for d in range(n_docs):
        topic = topics[d % n_topics]
        records.append(
            {
                "id": f"doc-{d:05d}",
                "document": " ".join(rng.choice(topic) for _ in range(doc_words)),
                "summary": " ".join(rng.choice(topic) for _ in range(summary_words)),
            }
        )
    return records


def write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records), encoding="utf-8"
    )
