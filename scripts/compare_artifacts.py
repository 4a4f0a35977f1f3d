"""Compare the benchmark artifacts of two checkouts byte for byte.

    python scripts/compare_artifacts.py PARENT CHANGE

For each benchmark workload, the script runs each checkout's own
``perfbench/run.py --workload W --seed 7 --seconds 0 --trace 0`` in that
checkout. It reads the artifact digests the run records in
``perfbench/results/``: the sha256 of every workspace file outside
``cache/``. It prints each artifact whose sha256 differs, or that only one
side has, and each side's ``ws_bytes_per_doc``, which counts
``cache/cache.sqlite`` too. It exits 1 when a digest or ``ws_bytes_per_doc``
differs, and 0 when the two checkouts wrote the same artifacts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("topic-heavy", "fanout-cold", "fanout-rescore")
SEED = 7


def run_benchmark(checkout: Path, workload: str) -> tuple[dict[str, str], float]:
    """(artifact sha256 by workspace path, ws_bytes_per_doc) of one seed-7 run."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(SEED), "--seconds", "0", "--trace", "0",
    ]
    run = subprocess.run(command, cwd=checkout, check=True, capture_output=True, encoding="utf-8")
    result = json.loads(run.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {checkout}: the {workload} run failed its checks")
    results = checkout / "perfbench" / "results" / f"{workload}-seed{SEED}-trace0.json"
    details = json.loads(results.read_text(encoding="utf-8"))
    return details["digests"], result["metrics"]["ws_bytes_per_doc"]["value"]


def differing(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """The paths whose sha256 differs, or that only one side has, in sorted order."""
    return sorted(path for path in parent.keys() | change.keys() if parent.get(path) != change.get(path))


def report(
    workload: str, parent: tuple[dict[str, str], float], change: tuple[dict[str, str], float]
) -> tuple[list[str], bool]:
    """(the lines printed for one workload, whether its artifacts differ)."""
    paths = differing(parent[0], change[0])
    lines = [f"{workload}: {path} differs" for path in paths]
    lines.append(f"{workload}: ws_bytes_per_doc {parent[1]} -> {change[1]}")
    return lines, bool(paths) or parent[1] != change[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout compared against")
    parser.add_argument("change", type=Path, help="the checkout compared")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    any_differ = False
    for workload in WORKLOADS:
        lines, differ = report(
            workload, run_benchmark(parent, workload), run_benchmark(change, workload)
        )
        print("\n".join(lines), flush=True)
        any_differ |= differ
    print("artifacts differ" if any_differ else "artifacts are byte-identical")
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main())
