"""The README's examples run as written, and its tree and flags match the program."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from aspectsum.cli import build_parser
from aspectsum.config import build_config
from aspectsum.mock import MockLlmClient
from aspectsum.pipeline import run_all
from aspectsum.workspace import Workspace
from conftest import synthetic_records, write_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_workspace_tree_names_every_top_level_entry(tmp_path):
    tree = re.search(r"```\nws/\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    documented = {line.split()[0].split("/")[0] for line in tree.group(1).splitlines()}
    cfg = build_config(
        profile="custom",
        overrides=dict(n_samples=2, lda_k=3, lda_iterations=5, fold_in_iterations=5, seed=1),
    )
    ws = Workspace(tmp_path / "ws")
    corpus = write_jsonl(tmp_path / "corpus.jsonl", synthetic_records(4))
    run_all(ws, cfg, corpus, MockLlmClient(seed=cfg.seed))
    assert {path.name for path in ws.root.iterdir()} == documented


def test_command_line_section_names_every_flag():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ")[0]
    shared, own = section.split("Each subcommand's own flags:")
    flags = re.compile(r"`(--[a-z][a-z-]*)")
    documented = {}
    for item in re.findall(r"^- (.*?)(?=^- |^$)", own, re.MULTILINE | re.DOTALL):
        names, text = item.split(":", 1)
        for name in re.findall(r"`([a-z-]+)`", names):
            documented[name] = set(flags.findall(shared)) | set(flags.findall(text))
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    accepted = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subcommands.choices.items()
    }
    assert documented == accepted
