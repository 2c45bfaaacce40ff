"""Variant orchestration: zero-shot transfer benchmark and the ablation grid.

All variants share one pretrained backbone, one data split, and identical
task-training budgets and seeds. Every variant is a pipeline checkpoint read
through `pipeline.model_from_checkpoint`: base is `pretrain`, a single
adapter is its `integrate` checkpoint, LARGE is the `integrate(LARGE)`
checkpoint (trained on first use) and FUSION is `pipeline.assemble_fused`.
Task training and evaluation are `pipeline.train_task` and
`pipeline.evaluate`. Task training touches each variant's task-adaptable
parameter group: the whole encoder for the no-adapter base, the adapter
itself for single-adapter variants, and the fusion layer for the fused
model (whose backbone and adapters stay frozen).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .adapters import LARGE, AdaptedEncoder
from .errors import ConfigError
from .evaluation import MetricReport
from .pipeline import Workspace, assemble_fused, evaluate, load_model, run_stage, train_task
from .synthetic import SyntheticDataset
from .vocab import Vocab


@dataclass
class AblationReport:
    """variant -> task -> MetricReport, evaluated on identical splits and seeds."""

    variants: dict[str, dict[str, MetricReport]] = field(default_factory=dict)
    seed: int = 0
    config_hash: str = ""

    def to_dict(self) -> dict:
        return {"seed": self.seed, "config_hash": self.config_hash,
                "variants": {v: {t: r.to_dict() for t, r in tasks.items()}
                             for v, tasks in sorted(self.variants.items())}}


def train_large_adapter(ws: Workspace) -> AdaptedEncoder:
    """Single adapter with the four-adapter + fusion parameter budget,
    trained on all four objectives at once (rotating per batch); the
    `integrate(LARGE)` stage runs only if its checkpoint is missing."""
    if not ws.ckpt(f"adapter_{LARGE}").exists():
        run_stage(ws, "integrate", kind=LARGE)
    return load_model(ws, f"adapter_{LARGE}", "ablate")


def _configured_variants(ws: Workspace) -> tuple[str, ...]:
    return ("base", *ws.config.adapter_kinds, LARGE, "FUSION")


def build_variant(ws: Workspace, variant: str) -> AdaptedEncoder:
    """Assemble one evaluation-ready model (before task training)."""
    if variant == "base":
        return load_model(ws, "pretrain", "ablate")
    if variant == "FUSION":
        return assemble_fused(ws)
    if variant == LARGE:
        return train_large_adapter(ws)
    if variant in ws.config.adapter_kinds:
        return load_model(ws, f"adapter_{variant}", "ablate")
    raise ConfigError(f"unknown variant {variant!r} (have {_configured_variants(ws)})")


def variant_train_groups(variant: str) -> list[str]:
    if variant == "base":
        return ["encoder."]
    if variant == "FUSION":
        return ["fusion."]
    return [f"adapter.{variant}."]


def task_train_and_eval(ws: Workspace, ds: SyntheticDataset, vocab: Vocab,
                        model: AdaptedEncoder, variant: str, task: str) -> MetricReport:
    """Identical task-training budget for every variant, then evaluation."""
    trained, _ = train_task(ws, ds, vocab, model, task, "fuse", variant_train_groups(variant))
    return evaluate(ws, ds, vocab, trained, task, variant, trained.params.checksum())


def run_transfer_benchmark(ws: Workspace, task: str,
                           kinds: list[str]) -> dict[str, MetricReport]:
    """Fusion over a subset of adapters vs the identically trained baseline."""
    ds, vocab = ws.load_data()
    return {
        "baseline": task_train_and_eval(ws, ds, vocab, build_variant(ws, "base"), "base", task),
        "fusion": task_train_and_eval(ws, ds, vocab, assemble_fused(ws, kinds=kinds),
                                      "FUSION", task),
    }


def run_ablation(ws: Workspace, tasks=("completion", "alignment"),
                 variants=None) -> AblationReport:
    """Every variant on every task; by default base, each configured adapter,
    LARGE and FUSION."""
    if variants is None:
        variants = _configured_variants(ws)
    ds, vocab = ws.load_data()
    report = AblationReport(seed=ws.config.seed, config_hash=ws.config.config_hash())
    for variant in variants:
        model = build_variant(ws, variant)
        report.variants[variant] = {
            task: task_train_and_eval(ws, ds, vocab, model, variant, task) for task in tasks}
    return report
