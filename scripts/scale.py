"""Run every stage on a seeded Zipf corpus and record each stage's cost.

    python scripts/scale.py --docs 2000 8000 --out scale.json

For each corpus size, the script writes a synthetic corpus, then runs each
stage as its own ``aspectsum <stage> --mock-llm --profile cnndm`` process on
one fresh workspace. It records the stage's wall time, CPU time and maximum
resident set size, read with ``os.wait4`` so that each figure is that one
process's own, and at the end the bytes of each workspace entry, the rows
of each table of ``cache/cache.sqlite``, and the sha256 of each workspace
file, ``cache/cache.sqlite`` included (its bytes do not depend on
``--jobs``), so that two checkouts run on the same corpus can be compared
byte for byte. The result is one JSON file.

Documents draw ``--doc-words`` words from ``--vocabulary`` word types with
Zipf (1/rank) weights; a summary draws ``--summary-words`` words from its
document. ``--src NAME=PATH`` (repeatable) runs the package found under PATH,
so two checkouts can be measured on the same corpus; by default it runs this
checkout's ``src``. Every stage runs with the seed and jobs below, and select
trains with ``--lda-iterations 2`` and folds in with ``--fold-in-iterations 5``,
which keeps LDA from dominating.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import random
import sqlite3
import string
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("ingest", "probe", "select", "curriculum", "eval")
SEED = 11  # of the corpus and of the pipeline
JOBS = 1
LDA_ITERATIONS = 2
FOLD_IN_ITERATIONS = 5


def word_types(n: int) -> list[str]:
    """n distinct lowercase words, shortest first: a .. z, aa, ab, .."""
    types = []
    for length in itertools.count(1):
        for letters in itertools.product(string.ascii_lowercase, repeat=length):
            if len(types) == n:
                return types
            types.append("".join(letters))
    raise AssertionError("unreachable")


def write_corpus(path: Path, docs: int, vocabulary: int, doc_words: int,
                 summary_words: int, seed: int) -> None:
    rng = random.Random(seed)
    types = word_types(vocabulary)
    cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, vocabulary + 1)))
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(docs):
            document = rng.choices(types, cum_weights=cum_weights, k=doc_words)
            summary = rng.choices(document, k=summary_words)
            record = {"id": f"doc-{i:06d}", "document": " ".join(document),
                      "summary": " ".join(summary)}
            fh.write(json.dumps(record) + "\n")


def run_stage(src: Path, stage: str, flags: list[str], log: Path) -> dict:
    """One stage in its own process: wall and CPU seconds, max RSS, its report line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "aspectsum.cli", stage, *flags]
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = log.read_text(encoding="utf-8")
    if proc.returncode != 0:
        raise SystemExit(f"error: {stage} exited with {proc.returncode}:\n{output}")
    first = output.splitlines()[0]  # "[stage] {...}", or "[stage] up to date; skipped"
    report = first.split("] ", 1)[1]
    return {
        "wall_s": round(wall_s, 3),
        "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
        "max_rss_mib": round(usage.ru_maxrss / 1024, 2),  # ru_maxrss is in KiB on Linux
        "report": json.loads(report) if report.startswith("{") else report,
    }


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def cache_rows(ws: Path) -> dict[str, int]:
    """The rows of each table of the workspace's cache file, by table name."""
    with contextlib.closing(sqlite3.connect(ws / "cache" / "cache.sqlite")) as db:
        tables = db.execute("SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name")
        return {t: db.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0] for (t,) in list(tables)}


def file_digests(ws: Path) -> dict[str, str]:
    """The sha256 of each workspace file, by its path in the workspace.

    Each file is read 1 MiB at a time: a stage process starts from a fork of
    this one, and the maximum RSS it reports is never below what this
    process held when it forked.
    """
    digests = {}
    for path in sorted(ws.rglob("*")):
        if path.is_file():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            digests[path.relative_to(ws).as_posix()] = digest.hexdigest()
    return digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--docs", type=int, nargs="+", required=True, help="corpus sizes")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--vocabulary", type=int, default=20_000, help="word types")
    parser.add_argument("--doc-words", type=int, default=400)
    parser.add_argument("--summary-words", type=int, default=30)
    parser.add_argument("--src", action="append", metavar="NAME=PATH",
                        help="a package source directory to run (default: this checkout's)")
    args = parser.parse_args(argv)
    sources = {}
    for item in args.src or [f"checkout={ROOT / 'src'}"]:
        name, _, path = item.partition("=")
        sources[name] = Path(path).resolve()

    settings = {key: value for key, value in vars(args).items() if key not in ("out", "src")}
    settings.update(
        seed=SEED, jobs=JOBS, lda_iterations=LDA_ITERATIONS,
        fold_in_iterations=FOLD_IN_ITERATIONS, profile="cnndm",
        python=sys.version.split()[0], cpus=os.cpu_count(),
    )
    runs = []
    with tempfile.TemporaryDirectory(prefix="aspectsum-scale-") as tmp:
        tmp = Path(tmp)
        for docs in args.docs:
            corpus = tmp / f"corpus-{docs}.jsonl"
            write_corpus(corpus, docs, args.vocabulary, args.doc_words, args.summary_words, SEED)
            for name, src in sources.items():
                ws = tmp / f"ws-{name}-{docs}"
                flags = [
                    "--workspace", str(ws), "--mock-llm", "--profile", "cnndm",
                    "--seed", str(SEED), "--jobs", str(JOBS),
                    "--lda-iterations", str(LDA_ITERATIONS),
                    "--fold-in-iterations", str(FOLD_IN_ITERATIONS),
                ]
                stages = {}
                for stage in STAGES:
                    extra = ["--input", str(corpus)] if stage == "ingest" else []
                    stages[stage] = run_stage(src, stage, [*flags, *extra], tmp / "stage.log")
                    print(f"{name} {docs} {stage} {stages[stage]['wall_s']} s "
                          f"{stages[stage]['max_rss_mib']} MiB", file=sys.stderr)
                runs.append({
                    "src": name,
                    "docs": docs,
                    "corpus_bytes": corpus.stat().st_size,
                    "stages": stages,
                    "workspace_bytes": {p.name: tree_bytes(p) for p in sorted(ws.iterdir())},
                    "cache_rows": cache_rows(ws),
                    "workspace_sha256": file_digests(ws),
                })
    args.out.write_text(json.dumps({"settings": settings, "runs": runs}, indent=1) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
