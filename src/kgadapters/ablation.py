"""Variant orchestration: the ablation grid.

All variants share one pretrained backbone, one data split, and identical
task-training budgets and seeds. Every variant is a pipeline checkpoint read
through `pipeline.model_from_checkpoint`: base is `pretrain`, a single
adapter is its `integrate` checkpoint, LARGE is the `integrate(LARGE)`
checkpoint, which `build_variant` trains on first use through
`pipeline.run_stage`, and FUSION is `pipeline.assemble_fused`.
Task training and evaluation are `pipeline.train_task` with the fuse
budget and `pipeline.evaluate`. Task training touches each variant's
task-adaptable parameter group, which `train_task` reads from the model's
mode, itself read from the parameter names: the whole encoder for the
no-adapter base, the adapter itself for single-adapter variants, and the
fusion layer for the fused model (whose backbone and adapters stay frozen).

`run_ablation` returns variant -> task -> MetricReport; `cli ablate` writes
each task's reports as one list to reports/ablation_<task>.json and .tsv.
"""

from __future__ import annotations

from .adapters import LARGE, AdaptedEncoder
from .errors import ConfigError
from .evaluation import MetricReport
from .pipeline import Workspace, assemble_fused, evaluate, load_model, run_stage, train_task
from .synthetic import SyntheticDataset
from .vocab import Vocab


def _configured_variants(ws: Workspace) -> tuple[str, ...]:
    return ("base", *ws.config.adapter_kinds, LARGE, "FUSION")


def build_variant(ws: Workspace, variant: str) -> AdaptedEncoder:
    """Assemble one evaluation-ready model (before task training).

    LARGE, one adapter with the four-adapter + fusion parameter budget
    trained on all four objectives at once (rotating per batch), is
    integrated here on first use: the `integrate(LARGE)` stage runs only if
    its checkpoint is missing.
    """
    if variant == "base":
        return load_model(ws, "pretrain", "ablate")[0]
    if variant == "FUSION":
        return assemble_fused(ws)
    if variant == LARGE and not ws.ckpt(f"adapter_{LARGE}").exists():
        run_stage(ws, "integrate", kind=LARGE)
    if variant in (*ws.config.adapter_kinds, LARGE):
        return load_model(ws, f"adapter_{variant}", "ablate")[0]
    raise ConfigError(f"unknown variant {variant!r} (have {_configured_variants(ws)})")


def task_train_and_eval(ws: Workspace, ds: SyntheticDataset, vocab: Vocab,
                        model: AdaptedEncoder, variant: str, task: str) -> MetricReport:
    """Identical task-training budget for every variant, then evaluation."""
    trained, _ = train_task(ws, ds, vocab, model, task, "fuse")
    return evaluate(ws, ds, vocab, trained, task, variant, trained.params.checksum())


def run_ablation(ws: Workspace, tasks=("completion", "alignment")
                 ) -> dict[str, dict[str, MetricReport]]:
    """variant -> task -> MetricReport for every variant on every task (base,
    each configured adapter, LARGE and FUSION), on identical splits and seeds."""
    ds, vocab = ws.load_data()
    grid = {}
    for variant in _configured_variants(ws):
        model = build_variant(ws, variant)
        grid[variant] = {
            task: task_train_and_eval(ws, ds, vocab, model, variant, task) for task in tasks}
    return grid
