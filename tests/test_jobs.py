"""What `--jobs` changes: how many completions run at once, and nothing in the workspace."""

from __future__ import annotations

import functools
import hashlib
import inspect
import threading

from aspectsum import pipeline
from aspectsum.config import build_config
from aspectsum.mock import MockLlmClient
from aspectsum.probe import EmbeddingCache, ResponseCache, _Store
from aspectsum.workspace import Workspace
from conftest import synthetic_records, write_jsonl

# The topic-heavy benchmark's sizes: 64 documents of 120 words, 4 samples each.
TOPIC_HEAVY = dict(n_samples=4, lda_k=32, lda_iterations=20, fold_in_iterations=20, seed=7)


def test_cache_file_is_byte_identical_under_any_jobs(tmp_path):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl", synthetic_records(64, doc_words=120, summary_words=12)
    )

    def cache_sha256(name: str, jobs: int) -> str:
        ws = Workspace(tmp_path / name)
        cfg = build_config("custom", overrides=dict(TOPIC_HEAVY, jobs=jobs))
        pipeline.run_all(ws, cfg, corpus, MockLlmClient(seed=cfg.seed))
        return hashlib.sha256((ws.cache_dir / "cache.sqlite").read_bytes()).hexdigest()

    serial = cache_sha256("serial", 1)
    assert {cache_sha256(f"parallel{i}", 2) for i in range(6)} == {serial}


def test_only_the_calling_thread_uses_the_cache_and_select_starts_no_thread(
    tmp_path, monkeypatch
):
    callers: set[threading.Thread] = set()

    def recording(fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            callers.add(threading.current_thread())
            return fn(*args, **kwargs)

        return recorded

    for cls in (_Store, ResponseCache, EmbeddingCache):
        for name, fn in list(vars(cls).items()):
            if inspect.isfunction(fn):
                monkeypatch.setattr(cls, name, recording(fn))

    current = [None]  # the stage running now
    starts: list[str] = []  # the stage of each thread started
    real_start = threading.Thread.start

    def start(thread):
        starts.append(current[0])
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    for stage in ("ingest", "probe", "select", "curriculum", "eval"):
        real_stage = getattr(pipeline, f"stage_{stage}")

        def in_stage(*args, stage=stage, real_stage=real_stage, **kwargs):
            current[0] = stage
            return real_stage(*args, **kwargs)

        monkeypatch.setattr(pipeline, f"stage_{stage}", in_stage)

    ws = Workspace(tmp_path / "ws")
    cfg = build_config(
        "custom", overrides=dict(n_samples=2, lda_k=3, lda_iterations=5, seed=5, jobs=2)
    )
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))
    pipeline.run_all(ws, cfg, corpus, MockLlmClient(seed=cfg.seed))
    assert callers == {threading.current_thread()}
    assert set(starts) == {"probe"}  # probe's two workers, which run the completions
