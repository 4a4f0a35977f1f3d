"""Seeded end-to-end benchmark of the aspectsum pipeline.

    python3 perfbench/run.py --workload fanout-cold --seed 1 --seconds 30 --trace 0

Each iteration generates a planted-topic corpus from the seed, prepares a
fresh workspace under ``perfbench/work/`` and times one ``pipeline.run_all``
with the mock provider and mock trainer (a closed loop: one process, one
corpus at a time). Iterations repeat until ``--seconds`` have passed, at
least MIN_ITERATIONS times, and every one is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics. The last
stdout line is one JSON object; per-iteration figures, artifact digests and
spans go to ``perfbench/results/``. See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "work"
RESULTS_DIR = HERE / "results"
MIN_ITERATIONS = 3
# lambda_cs of the fanout-rescore timed run (the priming run uses the
# default 1.5): it changes every stage digest but not the LDA digest.
RESCORE_LAMBDA_CS = 0.75


@dataclasses.dataclass(frozen=True)
class Workload:
    docs: int
    doc_words: int
    summary_words: int
    planted_topics: int
    config: dict
    rescore: bool = False


WORKLOADS = {
    # Few long documents and many topics: LDA training and fold-in dominate.
    "topic-heavy": Workload(
        docs=64, doc_words=120, summary_words=12, planted_topics=8,
        config=dict(n_samples=4, lda_k=32, lda_iterations=20, fold_in_iterations=20, jobs=2),
    ),
    # Many short documents and eight samples each: the provider, response
    # parsing and the file-per-entry caches dominate. lda_alpha=1 recovers
    # the three planted topics in 10 sweeps on every seed; the 50/k default
    # sometimes merges two of them.
    "fanout-cold": Workload(
        docs=200, doc_words=40, summary_words=10, planted_topics=3,
        config=dict(
            n_samples=8, lda_k=3, lda_alpha=1.0, lda_iterations=10, fold_in_iterations=5, jobs=1
        ),
    ),
}
# fanout-cold's corpus, primed by a cold run in set-up; the timed run
# changes only lambda_cs, so it reads every cache and the saved LDA model.
WORKLOADS["fanout-rescore"] = dataclasses.replace(WORKLOADS["fanout-cold"], rescore=True)


def import_program():
    """Import the pipeline from the checkout's src/, never from elsewhere."""
    if not (SRC / "aspectsum" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'aspectsum'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import aspectsum

    if Path(aspectsum.__file__).resolve().parent != SRC / "aspectsum":
        raise SystemExit(f"error: imported aspectsum from {aspectsum.__file__}, not {SRC}")


def mark_top_directory(path: Path) -> bool:
    """Set the ext2/3/4 "top of directory hierarchy" attribute (chattr +T).

    Without a journal, ext4 skips inodes freed in the last minute (up to six
    while their inode table block is dirty) when it allocates new ones, and
    it allocates a directory's files next to the directory. Each workspace
    would then be created where the previous one was just deleted, and file
    creation would cost 10x more for a time set by the benchmark's own
    clean-up. Under a top directory each new workspace is placed like a
    fresh top-level directory instead. Other filesystems reject the request,
    which is harmless.
    """
    fs_ioc_getflags, fs_ioc_setflags, fs_topdir_fl = 0x80086601, 0x40086602, 0x00020000
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("l", fcntl.ioctl(fd, fs_ioc_getflags, struct.pack("l", 0)))[0]
        fcntl.ioctl(fd, fs_ioc_setflags, struct.pack("l", flags | fs_topdir_fl))
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


@dataclasses.dataclass
class Iteration:
    setup_s: float
    run_s: float
    traced: bool
    failed: int
    problems: list
    requests: int = 0
    run_cpu_s: tuple = (0.0, 0.0)  # (user, system) CPU seconds of the timed run
    digests: dict = dataclasses.field(default_factory=dict)
    files: int = 0
    bytes: int = 0
    rouge_l: float = 0.0
    recovery: float = 0.0
    layers: dict = dataclasses.field(default_factory=dict)


def iteration(w: Workload, seed: int, root: Path, tracer=None) -> Iteration:
    """Set up a fresh workspace, time one run_all, then check and measure it."""
    from aspectsum import pipeline
    from aspectsum.config import build_config
    from aspectsum.mock import MockLlmClient
    from aspectsum.workspace import Workspace

    import checks
    import corpus
    import tracing

    work = root.parent
    records = []
    setup_s = run_s = 0.0
    try:
        t0 = perf_counter()
        records = corpus.generate(seed, w.docs, w.doc_words, w.summary_words, w.planted_topics)
        input_path = work / "input.jsonl"
        corpus.write_jsonl(input_path, records)
        ws = Workspace(root)
        cfg = build_config("custom", overrides={**w.config, "seed": seed})
        requests = 0
        if w.rescore:
            primer = MockLlmClient(seed=seed)
            pipeline.run_all(ws, cfg, input_path, primer)
            requests = primer.completion_calls + primer.embed_calls
            cfg = dataclasses.replace(cfg, lambda_cs=RESCORE_LAMBDA_CS)
        setup_s = perf_counter() - t0

        client = MockLlmClient(seed=seed)
        patches = tracing.install(tracer, client) if tracer else None
        run_all = tracer.wrap("pipeline.run_all", pipeline.run_all) if tracer else pipeline.run_all
        try:
            cpu0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = perf_counter()
            run_all(ws, cfg, input_path, client)
            run_s = perf_counter() - t0
            cpu1 = resource.getrusage(resource.RUSAGE_SELF)
        finally:
            if patches:
                patches.restore()

        ids = [r["id"] for r in records]
        failed, problems = checks.check_workspace(root, ids)
        timed_requests = client.completion_calls + client.embed_calls
        if w.rescore and timed_requests:
            failed = set(ids)
            problems.append(f"rescore run made {timed_requests} provider requests")
        files, size = checks.workspace_size(root)
        it = Iteration(
            setup_s=setup_s,
            run_s=run_s,
            run_cpu_s=(cpu1.ru_utime - cpu0.ru_utime, cpu1.ru_stime - cpu0.ru_stime),
            traced=tracer is not None,
            failed=len(failed),
            problems=problems,
            requests=requests + timed_requests,
            digests=checks.artifact_digests(root),
            files=files,
            bytes=size,
            rouge_l=checks.golden_rouge_l(root),
            recovery=checks.topic_recovery(
                root / "lda" / "model.json", corpus.planted_topics(w.planted_topics)
            ),
        )
        if tracer:
            it.layers = tracing.layer_metrics(tracer.spans, len(ids))
            it.layers.update(checks.artifact_counters(root))
        return it
    except Exception:  # a run that raises fails every document
        problem = traceback.format_exc(limit=-3)
        return Iteration(setup_s, run_s, tracer is not None, max(len(records), w.docs), [problem])
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """(result line, details): iterate for `seconds`, checking every run."""
    import tracing

    work.mkdir(parents=True, exist_ok=True)
    top_directory = mark_top_directory(work)
    iterations: list[Iteration] = []
    last_tracer = None
    deadline = perf_counter() + seconds
    while len(iterations) < MIN_ITERATIONS or perf_counter() < deadline:
        tracer = tracing.Tracer() if trace and len(iterations) % 2 == 1 else None
        # A name never used before: ext4 starts its search for a top-level
        # directory's place at a hash of the name.
        it = iteration(w, seed, work / f"ws-{os.getpid()}-{len(iterations)}", tracer)
        if iterations and it.digests != iterations[0].digests and not it.failed:
            it.failed = w.docs
            it.problems.append("artifact digests differ from the first run")
        iterations.append(it)
        last_tracer = tracer or last_tracer

    ok = [it for it in iterations if not it.failed]
    attempted = w.docs * len(iterations)
    failed = sum(it.failed for it in iterations)

    def median(values):
        return statistics.median(values) if values else 0.0

    plain = [it for it in ok if not it.traced]
    traced = [it for it in ok if it.traced]
    if trace:
        metrics = {
            key: median([it.layers[key] for it in traced])
            for key in (traced[0].layers if traced else {})
        }
        metrics["trace.overhead_frac"] = (
            median([it.run_s for it in traced]) / median([it.run_s for it in plain]) - 1.0
            if traced and plain
            else 0.0
        )
    else:
        metrics = {
            "docs_per_s": median([w.docs / it.run_s for it in plain]),
            "setup_s": median([it.setup_s for it in iterations]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "provider_requests_per_doc": median([it.requests / w.docs for it in ok]),
            "ws_files_per_doc": median([it.files / w.docs for it in ok]),
            "ws_bytes_per_doc": median([it.bytes / w.docs for it in ok]),
            "doc_pass_frac": 1.0 - failed / attempted,
            "golden_rougeL_f1": median([it.rouge_l for it in ok]),
            "lda_topic_recovery": median([it.recovery for it in ok]),
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    details = {
        "iterations": [
            {k: v for k, v in dataclasses.asdict(it).items() if k not in ("digests", "layers")}
            for it in iterations
        ],
        "digests": iterations[0].digests,
        "top_directory": top_directory,
    }
    return result, details, last_tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    import_program()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    try:
        result, details, tracer = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = result["metrics"]
    # A run whose every traced iteration failed has no layer figures; it
    # still prints a result, with zeros.
    unlisted, missing = set(metrics) - set(units), set(units) - set(metrics)
    if unlisted or (missing and result["correct"]):
        raise SystemExit(
            f"error: metrics {sorted(unlisted | missing)} "
            "are emitted or listed in BENCHMARK.json, not both"
        )
    result["metrics"] = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": units[name]} for name in units
    }

    results = RESULTS_DIR
    results.mkdir(parents=True, exist_ok=True)
    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        result=result,
        sizes=dataclasses.asdict(WORKLOADS[args.workload]),
    )
    (results / f"{tag}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        tracer.dump(results / f"{tag}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
