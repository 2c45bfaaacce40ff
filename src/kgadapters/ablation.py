"""Variant orchestration: zero-shot transfer benchmark and the ablation grid.

All variants share one pretrained backbone, one data split, and identical
task-training budgets and seeds. Task training touches each variant's
task-adaptable parameter group: the whole encoder for the no-adapter base,
the adapter itself for single-adapter variants, and the fusion layer for
the fused model (whose backbone and adapters stay frozen).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .adapters import AdaptedEncoder, insert_adapters, init_fusion, make_large_adapter
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError
from .evaluation import MetricReport, finetune_contrastive
from .objectives import train_adapter
from .pipeline import (Workspace, _insert_seed, _task_args, assemble_fused,
                       load_backbone, make_sampler, _provenance)

VARIANTS = ("base", "EP", "TP", "ES", "TS", "LARGE", "FUSION")


@dataclass
class AblationReport:
    """variant -> task -> MetricReport, evaluated on identical splits and seeds."""

    variants: dict[str, dict[str, MetricReport]] = field(default_factory=dict)
    seed: int = 0
    config_hash: str = ""

    def hit1(self, variant: str, task: str) -> float:
        return self.variants[variant][task].overall().hit1

    def mrr(self, variant: str, task: str) -> float:
        return self.variants[variant][task].overall().mrr

    def to_dict(self, split=None) -> dict:
        return {"seed": self.seed, "config_hash": self.config_hash,
                "variants": {v: {t: r.to_dict(split) for t, r in tasks.items()}
                             for v, tasks in sorted(self.variants.items())}}


def train_large_adapter(ws: Workspace) -> AdaptedEncoder:
    """Single adapter with the four-adapter + fusion parameter budget,
    trained on all four objectives at once (rotating per batch)."""
    ds, vocab = ws.load_data()
    config = ws.encoder_config(vocab)
    backbone = load_backbone(ws)
    path = ws.ckpt("adapter_LARGE")
    if path.exists():
        params, manifest = load_checkpoint(path)
        b = manifest["provenance"]["bottleneck"]
        return AdaptedEncoder(config=config, params=params, kinds=["LARGE"],
                              bottlenecks={"LARGE": b}, mode="single",
                              single_kind="LARGE")
    reference = insert_adapters(backbone, list(ws.config.adapter_kinds),
                                ws.config.bottleneck, _insert_seed(ws.config), config)
    reference = init_fusion(reference, _insert_seed(ws.config) + 1)
    model = make_large_adapter(reference, backbone, _insert_seed(ws.config))
    hyper = ws.config.hyper("adapter", len(ds.train_triples))
    hyper.seed = ws.config.seed + sum(ord(c) for c in "LARGE")
    sampler = make_sampler(ds, "LARGE", hyper)
    trained, curve = train_adapter(model, "LARGE", sampler, vocab, hyper)
    ws.write_curve("integrate_LARGE", curve)
    prov = _provenance(ws, "integrate", kind="LARGE")
    prov["bottleneck"] = model.bottlenecks["LARGE"]
    save_checkpoint(path, trained.params, prov)
    return trained


def build_variant(ws: Workspace, variant: str) -> AdaptedEncoder:
    """Assemble one evaluation-ready model (before task training)."""
    _, vocab = ws.load_data()
    config = ws.encoder_config(vocab)
    if variant == "base":
        return AdaptedEncoder(config=config, params=load_backbone(ws), kinds=[],
                              bottlenecks={}, mode="none")
    if variant == "FUSION":
        return assemble_fused(ws)
    if variant == "LARGE":
        return train_large_adapter(ws)
    if variant in ws.config.adapter_kinds:
        path = ws.require_ckpt(f"adapter_{variant}", "ablate")
        params, manifest = load_checkpoint(path)
        kinds = manifest["provenance"]["adapter_kinds"]
        b = manifest["provenance"]["bottleneck"]
        return AdaptedEncoder(config=config, params=params, kinds=list(kinds),
                              bottlenecks={k: b for k in kinds}, mode="single",
                              single_kind=variant)
    raise ConfigError(f"unknown variant {variant!r} (have {VARIANTS})")


def variant_train_groups(variant: str) -> list[str]:
    if variant == "base":
        return ["encoder."]
    if variant == "FUSION":
        return ["fusion."]
    return [f"adapter.{variant}."]


def task_train_and_eval(ws: Workspace, model: AdaptedEncoder, variant: str,
                        task: str) -> MetricReport:
    """Identical task-training budget for every variant, then evaluation."""
    ds, vocab = ws.load_data()
    sampler_fn, train_data, eval_fn, test_data = _task_args(ws, ds, task)
    hyper = ws.config.hyper(f"fuse_{task}", len(train_data))
    hyper.seed = ws.config.seed + 101
    trained, _ = finetune_contrastive(model, sampler_fn(ds.mlkg, train_data), vocab, hyper,
                                      train_groups=variant_train_groups(variant))
    report = eval_fn(trained, ds.mlkg, test_data, vocab, k=ws.config.eval_k)
    report.variant = variant
    report.seed = ws.config.seed
    report.profile = ws.config.profile
    report.checkpoint_hash = trained.params.checksum()
    report.config_hash = ws.config.config_hash()
    return report


def run_transfer_benchmark(ws: Workspace, task: str,
                           kinds: list[str]) -> dict[str, MetricReport]:
    """Fusion over a subset of adapters vs the identically trained baseline."""
    ds, vocab = ws.load_data()
    config = ws.encoder_config(vocab)
    baseline = AdaptedEncoder(config=config, params=load_backbone(ws), kinds=[],
                              bottlenecks={}, mode="none")
    fused = assemble_fused(ws, kinds=kinds)
    return {
        "baseline": task_train_and_eval(ws, baseline, "base", task),
        "fusion": task_train_and_eval(ws, fused, "FUSION", task),
    }


def run_ablation(ws: Workspace, tasks=("completion", "alignment"),
                 variants=None) -> AblationReport:
    """Every variant on every task; by default base, each configured adapter,
    LARGE and FUSION."""
    if variants is None:
        variants = ("base", *ws.config.adapter_kinds, "LARGE", "FUSION")
    report = AblationReport(seed=ws.config.seed, config_hash=ws.config.config_hash())
    for variant in variants:
        model = build_variant(ws, variant)
        report.variants[variant] = {
            task: task_train_and_eval(ws, model, variant, task) for task in tasks}
    return report
