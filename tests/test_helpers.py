"""Helper processes under `--jobs`: LDA training during probe, fold-in beside embeddings."""

from __future__ import annotations

import errno
import hashlib
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aspectsum import helpers, pipeline
from aspectsum.config import build_config
from aspectsum.errors import EmptyVocabulary, InsufficientValidSamples, TransportError
from aspectsum.helpers import Helper
from aspectsum.mock import MockLlmClient
from aspectsum.topics import fold_in_helpers, infer_topics_batch, start_fold_in, train_lda
from aspectsum.workspace import Workspace
from conftest import synthetic_records, write_jsonl

# The topic-heavy benchmark's sizes: 64 documents of 120 words, 4 samples each.
TOPIC_HEAVY = dict(n_samples=4, lda_k=32, lda_iterations=20, fold_in_iterations=20, seed=7)
SMALL = dict(n_samples=2, lda_k=3, lda_iterations=5, fold_in_iterations=5, seed=5)


@pytest.fixture
def started(monkeypatch) -> list[int]:
    """The pid of each helper started from here on."""
    pids = []
    real_init = Helper.__init__

    def recording_init(self, fn):
        real_init(self, fn)
        pids.append(self._process.pid)

    monkeypatch.setattr(Helper, "__init__", recording_init)
    return pids


def assert_all_reaped(pids: list[int]) -> None:
    assert multiprocessing.active_children() == []
    for pid in pids:  # a zombie still takes signal 0
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def tree_sha256(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_every_workspace_byte_is_the_same_under_jobs_1_2_and_3(tmp_path, started):
    corpus = write_jsonl(
        tmp_path / "corpus.jsonl", synthetic_records(64, doc_words=120, summary_words=12)
    )

    def workspace(jobs: int) -> dict[str, str]:
        ws = Workspace(tmp_path / f"jobs{jobs}")
        cfg = build_config("custom", overrides=dict(TOPIC_HEAVY, jobs=jobs))
        pipeline.run_all(ws, cfg, corpus, MockLlmClient(seed=cfg.seed))
        return tree_sha256(ws.root)

    serial = workspace(1)
    assert {"ledger.jsonl", "cache/cache.sqlite", "lda/model.json"} <= set(serial)
    assert not started
    assert workspace(2) == serial
    assert len(started) == 1 + 2  # the trainer, then a fold-in helper per job
    assert workspace(3) == serial
    assert len(started) == 3 + 1 + 3
    assert_all_reaped(started)


def test_a_failed_fork_leaves_the_work_to_the_stage(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))

    def workspace(jobs: int) -> dict[str, str]:
        ws = Workspace(tmp_path / f"jobs{jobs}")
        cfg = build_config("custom", overrides=dict(SMALL, jobs=jobs))
        pipeline.run_all(ws, cfg, corpus, MockLlmClient(seed=cfg.seed))
        return tree_sha256(ws.root)

    serial = workspace(1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert workspace(2) == serial
    assert multiprocessing.active_children() == []
    assert helpers._caller_ends == set()


def test_jobs_1_starts_no_process(tmp_path, monkeypatch):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))
    cfg = build_config("custom", overrides=dict(SMALL, jobs=1))
    pipeline.run_all(Workspace(tmp_path / "ws"), cfg, corpus, MockLlmClient(seed=cfg.seed))
    assert forks == []


def test_no_helper_survives_a_probe_that_raises(tmp_path, started):
    class Garbles(MockLlmClient):
        def complete_many(self, prompt, n):
            return ["garbled"] * n

    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))
    cfg = build_config("custom", overrides=dict(SMALL, jobs=2, max_retries=1))
    with pytest.raises(InsufficientValidSamples):
        pipeline.run_all(Workspace(tmp_path / "ws"), cfg, corpus, Garbles(seed=cfg.seed))
    assert len(started) == 1  # the trainer, stopped while probe failed
    assert_all_reaped(started)


def test_no_helper_survives_an_embedding_call_that_raises(tmp_path, started):
    class EmbedDown(MockLlmClient):
        def embed(self, text):
            raise TransportError("embeddings down")

    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))
    cfg = build_config("custom", overrides=dict(SMALL, jobs=2))
    ws = Workspace(tmp_path / "ws")
    with pytest.raises(TransportError, match="embeddings down"):
        pipeline.run_all(ws, cfg, corpus, EmbedDown(seed=cfg.seed))
    assert len(started) == 1 + 2
    assert_all_reaped(started)
    assert ws.lda_model_path.exists()  # written by the parent, from the trainer's model


def test_a_training_error_is_raised_as_under_jobs_1(tmp_path, started):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))

    def failure(jobs: int) -> tuple[type, str, bytes]:
        ws = Workspace(tmp_path / f"jobs{jobs}")
        # No term is in 1,000 documents, so no vocabulary is left.
        cfg = build_config("custom", overrides=dict(SMALL, jobs=jobs, min_df=1000))
        with pytest.raises(EmptyVocabulary) as caught:
            pipeline.run_all(ws, cfg, corpus, MockLlmClient(seed=cfg.seed))
        return type(caught.value), str(caught.value), ws.ledger_path.read_bytes()

    serial = failure(1)
    assert failure(2) == serial
    assert len(started) == 1  # the trainer, whose error select raised again itself
    last = serial[2].splitlines()[-1]  # the lda stage's opening line, and no closing one
    assert last.startswith(b'{"command":"lda",') and b'"digest":null' in last
    assert_all_reaped(started)


def test_select_takes_no_model_trained_for_another_digest(tmp_path, started):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(12))
    cfg = build_config("custom", overrides=dict(SMALL, jobs=2))
    ws = Workspace(tmp_path / "ws")
    pipeline.stage_ingest(ws, cfg, corpus)
    training = pipeline._start_training(ws, cfg)
    with training.helper:
        pipeline.stage_probe(ws, cfg, MockLlmClient(seed=cfg.seed))
        training.helper.result = lambda compute: pytest.fail("took the model")
        stale = training._replace(digest="another")
        pipeline.stage_select(ws, cfg, MockLlmClient(seed=cfg.seed), training=stale)
    assert ws.lda_model_path.exists()
    assert_all_reaped(started)


def test_fold_in_split_between_helpers_equals_one_batch(started):
    texts = [" ".join(words) for words in (
        ["storm", "flood"] * 20, ["vote"], [], ["star", "orbit", "storm"], ["nothing"] * 3,
        ["launch", "probe", "galaxy"] * 7, ["rain"],
    )]
    model = train_lda([r["document"] for r in synthetic_records(9)], k=3, iterations=5, seed=1)
    whole = infer_topics_batch(model, texts, 7)
    for n in (1, 2, 3, 9):  # 9 helpers for 7 texts: some get none
        with fold_in_helpers(model, 7, n) as workers:
            assert len(workers) == (0 if n == 1 else n)
            rows = start_fold_in(model, texts, 7, workers)
            assert np.array_equal(rows(), whole)
            assert np.array_equal(start_fold_in(model, [], 7, workers)(), whole[:0])
    assert len(started) == 2 + 3 + 9
    assert_all_reaped(started)


def test_a_failed_helper_leaves_the_work_to_its_caller(started):
    def fails(request):
        raise ValueError(f"cannot {request}")

    with Helper(fails) as failing, Helper(lambda request: request * 2) as doubling:
        failing.submit(3)
        assert failing.result(lambda: "computed") == "computed"
        failing.submit(4)  # the helper has exited: the caller computes
        assert failing.result(lambda: "again") == "again"
        doubling.submit(21)
        assert doubling.result(lambda: pytest.fail("computed")) == 42
        doubling._process.kill()
        doubling._process.join()
        doubling.submit(1)
        assert doubling.result(lambda: "after a kill") == "after a kill"
    assert_all_reaped(started)


def test_each_helper_exits_once_its_callers_end_closes(started):
    # A helper holds no copy of its own caller's end, nor of one forked
    # before it, so each sees the end of its pipe and exits by itself.
    first, second = Helper(str), Helper(str)
    for helper in (first, second):
        helper._conn.close()
        helper._process.join(timeout=30)
        assert helper._process.exitcode == 0
        helpers._caller_ends.discard(helper._conn)
        helper._process.close()
    assert_all_reaped(started)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the parent-death signal is Linux's"
)
def test_a_busy_helper_dies_with_its_caller(tmp_path):
    script = (
        "import sys, time\n"
        "from aspectsum.helpers import Helper\n"
        "helper = Helper(time.sleep)\n"
        "helper.submit(120)\n"
        "print(helper._process.pid, flush=True)\n"
        "time.sleep(120)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(helpers.__file__).parents[1]))
    caller = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env)
    try:
        pid = int(caller.stdout.readline())
    finally:
        caller.kill()
        caller.wait()
        caller.stdout.close()
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:  # the state field follows the parenthesized command name
            if stat.read_text(encoding="ascii").rsplit(")", 1)[1].split()[0] == "Z":
                break
        except (FileNotFoundError, ProcessLookupError):
            break
        time.sleep(0.05)
    else:
        pytest.fail(f"helper {pid} outlived its caller")
