"""Command-line entry point.

Subcommands: gen-synthetic, pretrain, train-adapter, train-fusion, finetune,
eval, ablate, report. Exit codes: 0 success, 1 config or validation error,
2 numerical failure (non-finite loss), 3 frozen-group contract violation.

`eval` and `ablate` write each report as JSON and TSV under reports/. A stored
report carries its language split, so `report` re-renders its JSON into the
TSV that `eval` or `ablate` wrote, byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ablation import run_ablation
from .adapters import KINDS, LARGE
from .autodiff import NumericError
from .errors import ConfigError, ContractViolation
from .evaluation import MetricReport, emit_report
from .pipeline import PROFILES, TASKS, PipelineConfig, Workspace, run_stage

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CONTRACT = 0, 1, 2, 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgadapters",
        description="Knowledge-adapter workflow: pretrain, integrate, fuse, "
                    "finetune, evaluate.")
    parser.add_argument("--config", type=Path, help="JSON pipeline config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        help="hyperparameter profile")
    parser.add_argument("--out", type=Path, help="override the run directory")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-synthetic", help="generate the synthetic benchmark")
    sub.add_parser("pretrain", help="MLM-pretrain the backbone")
    p = sub.add_parser("train-adapter", help="integrate one knowledge adapter")
    p.add_argument("--kind", required=True, choices=[k.lower() for k in (*KINDS, LARGE)])
    p = sub.add_parser("train-fusion", help="train the fusion layer on a task")
    p.add_argument("--task", required=True, choices=TASKS)
    p = sub.add_parser("finetune", help="full-model finetuning on a task")
    p.add_argument("--task", required=True, choices=TASKS)
    p = sub.add_parser("eval", help="evaluate a checkpoint on a task")
    p.add_argument("--task", required=True, choices=TASKS)
    p.add_argument("--checkpoint", default=None,
                   help="checkpoint name under checkpoints/ (default fused_<task>)")
    p = sub.add_parser("ablate", help="run every configured variant on each task")
    p.add_argument("--tasks", nargs="+", default=list(TASKS), choices=TASKS)
    p = sub.add_parser("report", help="re-emit a stored JSON report as TSV")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    return parser


def load_config(args) -> PipelineConfig:
    if args.config:
        config = PipelineConfig.from_json(args.config)
    else:
        if args.out is None:
            raise ConfigError("either --config or --out is required")
        config = PipelineConfig(out_dir=str(args.out))
    if args.seed is not None:
        config.seed = args.seed
    if args.profile is not None:
        config.profile = args.profile
    if args.out is not None:
        config.out_dir = str(args.out)
    return config


def _emit(ws: Workspace, name: str, reports) -> None:
    emit_report(reports, "json", ws.report_dir / f"{name}.json")
    emit_report(reports, "tsv", ws.report_dir / f"{name}.tsv")
    print((ws.report_dir / f"{name}.tsv").read_text(encoding="utf-8"))


def run(args) -> int:
    if args.command == "report":
        payload = json.loads(args.input.read_text(encoding="utf-8"))
        try:
            reports = [MetricReport.from_dict(r)
                       for r in (payload if isinstance(payload, list) else [payload])]
        except (AttributeError, KeyError, TypeError):
            raise ConfigError(f"{args.input} holds no metric report (the ablation's "
                              f"reports are in reports/ablation_<task>.json)") from None
        emit_report(reports, "tsv", args.output)
        return EXIT_OK

    config = load_config(args)
    ws = Workspace(config)

    if args.command == "gen-synthetic":
        path = run_stage(ws, "gen-synthetic")
        print(f"synthetic benchmark written to {path}")
    elif args.command == "pretrain":
        path = run_stage(ws, "pretrain")
        print(f"pretrained backbone checkpoint: {path}")
    elif args.command == "train-adapter":
        path = run_stage(ws, "integrate", kind=args.kind.upper())
        print(f"integrated adapter checkpoint: {path}")
    elif args.command == "train-fusion":
        path = run_stage(ws, "fuse", task=args.task)
        print(f"fused checkpoint: {path}")
    elif args.command == "finetune":
        path = run_stage(ws, "finetune", task=args.task)
        print(f"finetuned checkpoint: {path}")
    elif args.command == "eval":
        report = run_stage(ws, "eval", task=args.task, checkpoint=args.checkpoint)
        _emit(ws, f"eval_{args.task}_{report.variant}", [report])
    elif args.command == "ablate":
        report = run_ablation(ws, tasks=tuple(args.tasks))
        out = ws.report_dir / "ablation.json"
        out.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                       + "\n", encoding="utf-8")
        for task in args.tasks:
            _emit(ws, f"ablation_{task}",
                  [report.variants[v][task] for v in sorted(report.variants)])
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
