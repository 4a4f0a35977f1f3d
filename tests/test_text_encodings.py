"""Every text file the program opens names its encoding (the determinism contract)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import aspectsum
from conftest import synthetic_records, write_jsonl

# -X warn_default_encoding warns at each open() in text mode without an
# encoding; -W error makes that warning an exception, so main() exits 1.
_RUN = "import sys, aspectsum.cli; sys.exit(aspectsum.cli.main({argv!r}))"


def test_run_all_opens_no_text_file_with_the_locale_encoding(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(6))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lda_iterations": 10}), encoding="utf-8")
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"bertscore": 0.5}), encoding="utf-8")
    argv = [
        "run-all", "--workspace", str(tmp_path / "ws"), "--input", str(corpus), "--mock-llm",
        "--n-samples", "2", "--lda-k", "3", "--config", str(config),
        "--external-scores", str(scores),
    ]
    src = str(Path(aspectsum.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [
            sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-c", _RUN.format(argv=argv),
        ],
        capture_output=True, encoding="utf-8", cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0, run.stderr
    assert "[eval]" in run.stdout
