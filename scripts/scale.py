"""Run every stage on a seeded Zipf corpus and record each stage's cost.

    python scripts/scale.py --docs 2000 8000 --jobs 1 2 --out scale.json

For each corpus size and each ``--jobs`` value, the script writes a
synthetic corpus, then runs each stage as its own ``aspectsum <stage>
--mock-llm --profile cnndm --jobs N`` process on one fresh workspace. It
records the stage's wall time, and the CPU time and maximum resident set
size that the stage process reads with ``getrusage`` as it ends: its own
(``RUSAGE_SELF``), and apart from that its helper processes'
(``RUSAGE_CHILDREN``, the helpers' summed CPU time and the largest one's
RSS; zero when none ran). At the end it records the bytes of each
workspace entry, the rows of each table of ``cache/cache.sqlite``, and
the sha256 of each workspace file, ``cache/cache.sqlite`` included (its
bytes do not depend on ``--jobs``), so that two checkouts, or two
``--jobs`` values, run on the same corpus can be compared byte for byte.
The result is one JSON file.

Documents draw ``--doc-words`` words from ``--vocabulary`` word types with
Zipf (1/rank) weights; a summary draws ``--summary-words`` words from its
document. ``--src NAME=PATH`` (repeatable) runs the package found under PATH,
so two checkouts can be measured on the same corpus; by default it runs this
checkout's ``src``. Every stage runs with the seed below, and select
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


# Runs `aspectsum.cli.main(argv[2:])`, then writes to the file argv[1] the
# CPU seconds and max RSS (KiB on Linux) of this process and of its reaped
# children, the stage's helpers.
STAGE_RUNNER = """
import json, resource, sys
from aspectsum.cli import main
code = main(sys.argv[2:])
usage = {who: resource.getrusage(getattr(resource, "RUSAGE_" + who.upper()))
         for who in ("self", "children")}
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({who: [u.ru_utime + u.ru_stime, u.ru_maxrss] for who, u in usage.items()}, fh)
sys.exit(code)
"""


def run_stage(src: Path, stage: str, flags: list[str], log: Path) -> dict:
    """One stage in its own process: wall seconds, its own and its helpers'
    CPU seconds and max RSS, and its report line."""
    env = dict(os.environ, PYTHONPATH=str(src))
    usage_path = log.with_suffix(".usage.json")
    cmd = [sys.executable, "-c", STAGE_RUNNER, str(usage_path), stage, *flags]
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        returncode = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT, env=env).returncode
        wall_s = time.perf_counter() - t0
    output = log.read_text(encoding="utf-8")
    if returncode != 0:
        raise SystemExit(f"error: {stage} exited with {returncode}:\n{output}")
    usage = json.loads(usage_path.read_text(encoding="utf-8"))
    first = output.splitlines()[0]  # "[stage] {...}", or "[stage] up to date; skipped"
    report = first.split("] ", 1)[1]
    return {
        "wall_s": round(wall_s, 3),
        "cpu_s": round(usage["self"][0], 3),
        "max_rss_mib": round(usage["self"][1] / 1024, 2),
        "helpers_cpu_s": round(usage["children"][0], 3),
        "helpers_max_rss_mib": round(usage["children"][1] / 1024, 2),
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
    parser.add_argument("--jobs", type=int, nargs="+", default=[1],
                        help="the --jobs values to run each stage with, in order (default: 1)")
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
        seed=SEED, lda_iterations=LDA_ITERATIONS,
        fold_in_iterations=FOLD_IN_ITERATIONS, profile="cnndm",
        python=sys.version.split()[0], cpus=os.cpu_count(),
    )
    runs = []
    with tempfile.TemporaryDirectory(prefix="aspectsum-scale-") as tmp:
        tmp = Path(tmp)
        for docs in args.docs:
            corpus = tmp / f"corpus-{docs}.jsonl"
            write_corpus(corpus, docs, args.vocabulary, args.doc_words, args.summary_words, SEED)
            runs_of_size = itertools.product(sources.items(), args.jobs)
            for i, ((name, src), jobs) in enumerate(runs_of_size):  # a repeated value runs again
                ws = tmp / f"ws-{name}-{docs}-{i}"
                flags = [
                    "--workspace", str(ws), "--mock-llm", "--profile", "cnndm",
                    "--seed", str(SEED), "--jobs", str(jobs),
                    "--lda-iterations", str(LDA_ITERATIONS),
                    "--fold-in-iterations", str(FOLD_IN_ITERATIONS),
                ]
                stages = {}
                for stage in STAGES:
                    extra = ["--input", str(corpus)] if stage == "ingest" else []
                    stages[stage] = run_stage(src, stage, [*flags, *extra], tmp / "stage.log")
                    print(f"{name} {docs} jobs {jobs} {stage} {stages[stage]['wall_s']} s "
                          f"{stages[stage]['max_rss_mib']} MiB", file=sys.stderr)
                runs.append({
                    "src": name,
                    "docs": docs,
                    "jobs": jobs,
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
