"""Command line entry point: composable pipeline subcommands over a workspace."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .clients import OpenAiCompatClient
from .config import build_config
from .curriculum import Stage
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


def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workspace", required=True, type=Path, help="workspace directory")
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument(
        "--profile",
        default="custom",
        choices=["cnndm", "xsum", "clinicaltrial", "custom"],
        help="dataset profile carrying default n_samples and lda_k",
    )
    common.add_argument("--seed", type=int, help="base RNG seed")
    common.add_argument("--jobs", type=int, help="worker pool size for probe/select")
    common.add_argument("--n-samples", type=int, dest="n_samples")
    common.add_argument("--lda-k", type=int, dest="lda_k")
    common.add_argument("--lda-iterations", type=int, dest="lda_iterations")
    common.add_argument("--fold-in-iterations", type=int, dest="fold_in_iterations")
    common.add_argument("--max-retries", type=int, dest="max_retries")
    common.add_argument(
        "--mock-llm",
        action="store_true",
        help="use the bundled deterministic mock provider instead of an HTTP client",
    )
    return common


def _parse_stages(spec: str) -> tuple[Stage, ...]:
    stages = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        try:
            stages.append(Stage(name))
        except ValueError:
            valid = ", ".join(s.value for s in Stage)
            raise AspectsumError(f"unknown stage {name!r}; valid stages: {valid}") from None
    return tuple(stages)


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
    parser = argparse.ArgumentParser(
        prog="aspectsum",
        description="Aspect-triple rationale distillation pipeline for summarization.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", parents=[common], help="validate and store a corpus")
    p_ingest.add_argument("--input", required=True, type=Path, help="JSONL corpus file")

    sub.add_parser("probe", parents=[common], help="probe rationale-summary candidates")
    sub.add_parser("select", parents=[common], help="select golden rationales")

    p_curr = sub.add_parser("curriculum", parents=[common], help="build training manifests")
    p_curr.add_argument("--stages", help="comma-separated stage subset (canonical order)")
    p_curr.add_argument("--override-stage-order", action="store_true")

    p_eval = sub.add_parser("eval", parents=[common], help="ROUGE-score golden summaries")
    p_eval.add_argument("--format", choices=["json", "table"], default="table")
    p_eval.add_argument("--external-scores", type=Path)

    p_all = sub.add_parser("run-all", parents=[common], help="run every stage in order")
    p_all.add_argument("--input", required=True, type=Path)
    p_all.add_argument("--format", choices=["json", "table"], default="table")
    p_all.add_argument("--external-scores", type=Path)

    args = parser.parse_args(argv)
    try:
        overrides = {
            key: getattr(args, key)
            for key in (
                "seed",
                "jobs",
                "n_samples",
                "lda_k",
                "lda_iterations",
                "fold_in_iterations",
                "max_retries",
            )
        }
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
                stages = _parse_stages(args.stages) if args.stages else None
                _report(
                    "curriculum",
                    stage_curriculum(
                        ws,
                        cfg,
                        stages=stages,
                        override_stage_order=args.override_stage_order,
                    ),
                )
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
