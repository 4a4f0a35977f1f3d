"""Deterministic mock providers for tests and offline pipeline runs.

The mock LLM derives every response from (seed, prompt, per-prompt call
index) through sha256-seeded RNG, so repeated runs are byte-identical and
successive calls with the same prompt give the diverse samples that real
providers would produce by sampling. Builtin hash() is never used: it is
randomized per process.
"""

from __future__ import annotations

import hashlib
import random
import threading

import numpy as np

from .clients import LlmClient
from .curriculum import TaskKind, TrainerAdapter, StageManifest, article_segment
from .errors import DecodeFailure
from .rationale import Rationale, serialize_aspects, serialize_triples
from .textutil import stable_seed, words

_STRIP_CHARS = dict.fromkeys(map(ord, "|[]<>;{}:"))


def _source_words(prompt: str) -> list[str]:
    out = []
    for token in prompt.split():
        cleaned = token.translate(_STRIP_CHARS)
        if cleaned:
            out.append(cleaned)
    return out or ["text"]


class MockLlmClient(LlmClient):
    """Seeded fake provider; thread safe and free of any network I/O.

    complete() emits a well-formed aspects/triples/summary response assembled
    from words of the prompt. embed() is a pure function of the text: word
    counts hashed into a fixed number of buckets, so identical texts embed
    identically and overlapping texts have positive cosine similarity.
    """

    def __init__(self, seed: int = 0, dimension: int = 64):
        self.seed = seed
        self._dimension = dimension
        self.cache_namespace = f"mock-d{dimension}"
        self.completion_calls = 0
        self.embed_calls = 0
        self._per_prompt: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> str:
        digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        with self._lock:
            call_index = self._per_prompt.get(digest, 0)
            self._per_prompt[digest] = call_index + 1
            self.completion_calls += 1
        rng = random.Random(stable_seed(str(self.seed), digest, str(call_index)))
        vocab = _source_words(prompt)

        def phrase(min_words: int, max_words: int) -> str:
            return " ".join(rng.choice(vocab) for _ in range(rng.randint(min_words, max_words)))

        aspects = "; ".join(phrase(1, 3) for _ in range(rng.randint(2, 4)))
        triples = "\n".join(
            f"[{phrase(1, 2)} | {phrase(1, 1)} | {phrase(1, 2)}]"
            for _ in range(rng.randint(2, 5))
        )
        summary = phrase(8, 15)
        return f"Aspects: {aspects}\nTriples: {triples}\nSummary: {summary}"

    def embed(self, text: str) -> np.ndarray:
        with self._lock:
            self.embed_calls += 1
        vec = np.zeros(self._dimension, dtype=np.float64)
        tokens = words(text)
        for token in tokens:
            bucket = int.from_bytes(
                hashlib.md5(token.encode("utf-8")).digest()[:4], "big"
            ) % self._dimension
            vec[bucket] += 1.0
        if not tokens:
            vec[stable_seed(text) % self._dimension] = 1.0
        return vec


class EchoTrainerAdapter(TrainerAdapter):
    """Mock trainer whose greedy decode echoes the golden rationale.

    Built from (document, rationale) pairs; decode looks the document up by
    the verbatim article segment of the input. Instrumented with call
    counters so tests can assert the decode contract.
    """

    def __init__(self, pairs):
        self._by_text: dict[str, Rationale] = {d.text: r for d, r in pairs}
        self.decode_calls = 0
        self.decode_calls_by_task: dict[TaskKind, int] = {}
        self.trained_stages: list[str] = []
        self._lock = threading.Lock()

    def train(self, manifest: StageManifest) -> dict:
        with self._lock:
            self.trained_stages.append(manifest.stage.value)
        return {
            "examples": len(manifest.examples),
            "total_target_chars": sum(len(ex.target) for ex in manifest.examples),
        }

    def greedy_decode(self, task: TaskKind, input: str) -> str:
        with self._lock:
            self.decode_calls += 1
            self.decode_calls_by_task[task] = self.decode_calls_by_task.get(task, 0) + 1
        try:
            rationale = self._by_text[article_segment(input)]
        except (KeyError, ValueError) as exc:
            raise DecodeFailure(f"unknown article segment: {exc}") from exc
        if task is TaskKind.ASP_EXT:
            return serialize_aspects(rationale.aspects)
        if task is TaskKind.TRI_EXT:
            return serialize_triples(rationale.triples)
        raise DecodeFailure(f"echo adapter does not decode task {task.value}")
