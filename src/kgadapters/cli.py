"""Command-line entry point.

Subcommands: gen-synthetic, pretrain, train-adapter, train-fusion, finetune,
eval, ablate, report. Exit codes: 0 success, 1 config, data-file or I/O error,
2 numerical failure (non-finite loss), 3 frozen-group contract violation.

Every command but `report` runs one pipeline stage through
`pipeline.run_stage`. `eval` writes its report to
reports/eval_<task>_<checkpoint>.json and .tsv, `ablate` the reports of every
variant on a task to reports/ablation_<task>.json and .tsv, each JSON an
`emit_report` list. A stored report carries its language split, so `report`
re-renders such a list into the TSV that `eval` or `ablate` wrote, byte for
byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .adapters import KINDS, LARGE
from .autodiff import NumericError
from .errors import ConfigError, ContractViolation
from .evaluation import MetricReport, emit_report
from .pipeline import PROFILES, TASKS, PipelineConfig, Workspace, run_stage

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_CONTRACT = 0, 1, 2, 3

# command that writes a stage's output -> (stage, the line printed with its path)
_WRITERS = {"gen-synthetic": ("gen-synthetic", "synthetic benchmark written to {}"),
            "pretrain": ("pretrain", "pretrained backbone checkpoint: {}"),
            "train-adapter": ("integrate", "integrated adapter checkpoint: {}"),
            "train-fusion": ("fuse", "fused checkpoint: {}"),
            "finetune": ("finetune", "finetuned checkpoint: {}")}


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
    elif args.out is None:
        raise ConfigError("either --config or --out is required")
    else:
        config = PipelineConfig(out_dir=str(args.out))
    overrides = {"seed": args.seed, "profile": args.profile,
                 "out_dir": None if args.out is None else str(args.out)}
    # replace() re-runs the config checks against the overridden profile
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def _emit(ws: Workspace, name: str, reports) -> None:
    emit_report(reports, "json", ws.report_dir / f"{name}.json")
    emit_report(reports, "tsv", ws.report_dir / f"{name}.tsv")
    print((ws.report_dir / f"{name}.tsv").read_text(encoding="utf-8"))


def run(args) -> int:
    if args.command == "report":
        try:
            payload = json.loads(args.input.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"report file {args.input} is not JSON: {exc}") from None
        try:
            # emit_report writes a non-empty list of report dicts; the items of
            # any other JSON value are not dicts, so from_dict fails on them
            reports = [MetricReport.from_dict(r) for r in payload]
        except (AttributeError, KeyError, TypeError):
            reports = []
        except ConfigError as exc:
            raise ConfigError(f"{args.input}: {exc}") from None
        if not reports:
            raise ConfigError(f"{args.input} holds no list of metric reports")
        emit_report(reports, "tsv", args.output)
        return EXIT_OK

    config = load_config(args)
    ws = Workspace(config)

    if args.command in _WRITERS:
        stage, line = _WRITERS[args.command]
        kw = {k: v for k, v in vars(args).items() if k in ("kind", "task")}
        print(line.format(run_stage(ws, stage, **kw)))
    elif args.command == "eval":
        report = run_stage(ws, "eval", task=args.task, checkpoint=args.checkpoint)
        _emit(ws, f"eval_{args.task}_{report.variant}", [report])
    elif args.command == "ablate":
        grid = run_stage(ws, "ablate", tasks=tuple(args.tasks))
        for task in args.tasks:
            _emit(ws, f"ablation_{task}", [grid[v][task] for v in sorted(grid)])
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # every training path turns a non-finite value into a NumericError, so
        # numpy's overflow warnings would only precede its one line on stderr
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return run(args)
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
