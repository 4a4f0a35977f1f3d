"""Command line entry point: composable pipeline subcommands over a workspace."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .clients import OpenAiCompatClient
from .config import PROFILE_DEFAULTS, PipelineConfig, build_config
from .errors import AspectsumError
from .mock import MockLlmClient
from .pipeline import (
    run_all,
    stage_curriculum,
    stage_eval,
    stage_ingest,
    stage_probe,
    stage_select,
)
from .workspace import Workspace, dump_json


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", required=True, type=Path, help="workspace directory")
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument(
        "--profile",
        default="custom",
        choices=[*PROFILE_DEFAULTS, "custom"],
        help="dataset profile carrying default n_samples and lda_k",
    )
    common.add_argument("--seed", type=int, help="base RNG seed")
    common.add_argument(
        "--jobs",
        type=int,
        help=(
            "worker threads for probe's completion requests; from 2, and where fork is "
            "available, also helper processes that train the LDA model during run-all's "
            "probe and fold in select's texts; no artifact byte depends on it"
        ),
    )
    common.add_argument("--n-samples", type=int)
    common.add_argument("--lda-k", type=int)
    common.add_argument("--lda-iterations", type=int)
    common.add_argument("--fold-in-iterations", type=int)
    common.add_argument("--max-retries", type=int)
    common.add_argument(
        "--mock-llm",
        action="store_true",
        help="use the bundled deterministic mock provider instead of an HTTP client",
    )

    eval_flags = argparse.ArgumentParser(add_help=False)
    eval_flags.add_argument("--format", choices=["json", "table"], default="table")
    eval_flags.add_argument("--external-scores", type=Path)

    parser = argparse.ArgumentParser(
        prog="aspectsum",
        description="Aspect-triple rationale distillation pipeline for summarization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", parents=[common], help="validate and store a corpus")
    p_ingest.add_argument("--input", required=True, type=Path, help="JSONL corpus file")

    sub.add_parser("probe", parents=[common], help="probe rationale-summary candidates")
    sub.add_parser("select", parents=[common], help="select golden rationales")
    sub.add_parser("curriculum", parents=[common], help="build training manifests")
    sub.add_parser("eval", parents=[common, eval_flags], help="ROUGE-score golden summaries")
    p_all = sub.add_parser("run-all", parents=[common, eval_flags], help="run every stage in order")
    p_all.add_argument("--input", required=True, type=Path)
    return parser


def _build_client(args, cfg):
    if args.mock_llm:
        return MockLlmClient(seed=cfg.seed)
    return OpenAiCompatClient(cfg.endpoint_url, cfg.model_id, cfg.embedding_model_id)


def _print_eval_report(ws: Workspace, fmt: str) -> None:
    path = ws.eval_json_path if fmt == "json" else ws.eval_table_path
    if path.exists():
        print(path.read_text(encoding="utf-8"), end="")


def _report(name: str, result: dict) -> None:
    if result.get("config_changed"):
        print(f"[{name}] warning: config digest changed since the last run", file=sys.stderr)
    if result.get("skipped"):
        print(f"[{name}] up to date; skipped")
    else:
        shown = {k: v for k, v in result.items() if k not in ("skipped", "config_changed")}
        print(f"[{name}] {dump_json(shown)}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fields = {f.name for f in dataclasses.fields(PipelineConfig)} - {"profile"}
    overrides = {key: value for key, value in vars(args).items() if key in fields}
    try:
        cfg = build_config(profile=args.profile, config_file=args.config, overrides=overrides)
        ws = Workspace(args.workspace)
        with ws.exclusive_lock():
            if args.command == "ingest":
                _report("ingest", stage_ingest(ws, cfg, args.input))
            elif args.command == "probe":
                _report("probe", stage_probe(ws, cfg, _build_client(args, cfg)))
            elif args.command == "select":
                _report("select", stage_select(ws, cfg, _build_client(args, cfg)))
            elif args.command == "curriculum":
                _report("curriculum", stage_curriculum(ws, cfg))
            elif args.command == "eval":
                result = stage_eval(ws, cfg, external_scores=args.external_scores)
                _report("eval", result)
                _print_eval_report(ws, args.format)
            elif args.command == "run-all":
                results = run_all(
                    ws,
                    cfg,
                    args.input,
                    _build_client(args, cfg),
                    external_scores=args.external_scores,
                )
                for name, result in results.items():
                    _report(name, result)
                _print_eval_report(ws, args.format)
    except (AspectsumError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
