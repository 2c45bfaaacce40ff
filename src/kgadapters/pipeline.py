"""Stage orchestration for the four-step enhancement workflow.

Stages and their freezing contracts (verified by checksums, not assumed):
  pretrain          trains the backbone (MLM)
  integrate(kind)   backbone frozen, trains exactly one adapter
  integrate(LARGE)  backbone frozen, trains one adapter sized to the budget of
                    all configured adapters plus fusion, on all four objectives
  fuse(task)        backbone + adapters frozen, trains fusion on task pairs
  finetune(task)    full unfreeze of the fused model on task pairs

Every stage reads its prerequisite checkpoint from the run directory and
writes a new one; nothing is mutated in place. `model_from_checkpoint` is the
one way from a checkpoint to a model, for the stages, eval and the ablation
alike. Two runs with the same config and seed produce byte-identical
checkpoints and reports (run logs carry wall-clock timestamps and are
excluded from that guarantee).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .adapters import LARGE, AdaptedEncoder, init_fusion, insert_adapters, make_large_adapter
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import EncoderConfig, mlm_pretrain
from .errors import ConfigError, DataError
from .evaluation import (MetricReport, alignment_item_sampler, completion_item_sampler,
                         eval_alignment, eval_completion, finetune_contrastive)
from .hyper import TrainHyper
from .objectives import (ep_pair_universe, es_eligible, sample_ep_batch, sample_es_batch,
                         sample_tp_batch, sample_ts_batch, train_adapter, ts_ingest)
from .params import ParamSet
from .synthetic import (SyntheticConfig, SyntheticDataset, gen_synthetic,
                        load_dataset, save_dataset, vocab_corpus)
from .vocab import Vocab, build_vocab

TASKS = ("completion", "alignment")
# checkpoint name prefix -> the stage that writes it
_CKPT_STAGE = {"pretrain": "pretrain", "adapter": "integrate", "fused": "fuse",
               "finetuned": "finetune"}

PROFILES: dict[str, dict[str, TrainHyper]] = {
    # Full-scale settings: integration batch 128, lr 1e-4, 1e4 warmup steps,
    # 10 epochs; downstream batch 8, lr 1e-8, 10 epochs for completion and
    # 1 for alignment. Pretraining values are placeholders (the full-scale
    # recipe starts from an already pretrained encoder).
    "paper": {
        "pretrain": TrainHyper(batch_size=128, steps=10_000, base_lr=1e-4,
                               warmup_steps=10_000, mask_rate=0.15),
        "adapter": TrainHyper(batch_size=128, epochs=10, base_lr=1e-4,
                              warmup_steps=10_000, tau=0.05, p_cs=0.5),
        "fuse_completion": TrainHyper(batch_size=8, epochs=10, base_lr=1e-8, warmup_steps=1),
        "fuse_alignment": TrainHyper(batch_size=8, epochs=1, base_lr=1e-8, warmup_steps=1),
        "finetune_completion": TrainHyper(batch_size=8, epochs=10, base_lr=1e-8, warmup_steps=1),
        "finetune_alignment": TrainHyper(batch_size=8, epochs=1, base_lr=1e-8, warmup_steps=1),
    },
    # Desk-scale settings sized for minutes-long CPU runs.
    "desk": {
        "pretrain": TrainHyper(batch_size=32, steps=500, base_lr=2e-3,
                               warmup_steps=50, mask_rate=0.15),
        "adapter": TrainHyper(batch_size=32, steps=300, base_lr=2e-3,
                              warmup_steps=30, tau=0.05, p_cs=0.5),
        "fuse_completion": TrainHyper(batch_size=32, steps=150, base_lr=2e-3, warmup_steps=15),
        "fuse_alignment": TrainHyper(batch_size=32, steps=150, base_lr=2e-3, warmup_steps=15),
        "finetune_completion": TrainHyper(batch_size=32, steps=150, base_lr=2e-3, warmup_steps=15),
        "finetune_alignment": TrainHyper(batch_size=32, steps=150, base_lr=2e-3, warmup_steps=15),
    },
}


@dataclass
class PipelineConfig:
    out_dir: str
    seed: int = 7
    profile: str = "desk"
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    encoder: dict = field(default_factory=lambda: {
        "layers": 2, "d_model": 64, "n_heads": 4, "ff_dim": 128, "max_seq_len": 24})
    adapter_kinds: list[str] = field(default_factory=lambda: ["EP", "TP", "ES", "TS"])
    bottleneck: int = 8
    eval_k: int = 10
    hyper_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r} (have {sorted(PROFILES)})")
        if not self.adapter_kinds:
            raise ConfigError("adapter_kinds must be non-empty")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if "synthetic" in raw:
            raw["synthetic"] = SyntheticConfig(**raw["synthetic"])
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from None

    def canonical_json(self) -> str:
        d = dataclasses.asdict(self)
        d.pop("out_dir")        # a location, not an experiment parameter
        return json.dumps(d, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def hyper(self, stage: str, data_size: int = 0) -> TrainHyper:
        """Profile hyper for a stage with overrides applied; epochs resolve to steps."""
        base = PROFILES[self.profile][stage]
        values = dataclasses.asdict(base)
        values.update(self.hyper_overrides.get(stage, {}))
        h = TrainHyper(**values)
        if h.steps == 0 and h.epochs > 0:
            if data_size <= 0:
                raise ConfigError(f"stage {stage}: epochs given but data size unknown")
            h.steps = h.epochs * max(1, data_size // h.batch_size)
        return h


class RunLog:
    """Append-only metric log; step must be monotone within a stage."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._last_step: dict[str, int] = {}

    def record(self, stage: str, step: int, metric: str, value: float) -> None:
        last = self._last_step.get(stage, -1)
        if step < last:
            raise ValueError(f"non-monotone step {step} < {last} in stage {stage!r}")
        self._last_step[stage] = step
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"ts": time.time(), "stage": stage, "step": step,
                                 "metric": metric, "value": value}) + "\n")


class Workspace:
    """Filesystem layout of one run directory."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.root = Path(config.out_dir)
        self.data_dir = self.root / "data"
        self.ckpt_dir = self.root / "checkpoints"
        self.log_dir = self.root / "logs"
        self.report_dir = self.root / "reports"
        self.runlog = RunLog(self.log_dir / "runlog.jsonl")

    def ensure_dirs(self) -> None:
        for d in (self.data_dir, self.ckpt_dir, self.log_dir, self.report_dir):
            d.mkdir(parents=True, exist_ok=True)

    def ckpt(self, name: str) -> Path:
        return self.ckpt_dir / f"{name}.ckpt"

    def require_ckpt(self, name: str, needed_for: str) -> Path:
        p = self.ckpt(name)
        if not p.exists():
            prefix = name.split("_")[0]
            raise ConfigError(
                f"stage {needed_for!r} requires checkpoint {p.name} "
                f"(run the {_CKPT_STAGE.get(prefix, prefix)!r} stage first)")
        return p

    def write_curve(self, name: str, curve: list[tuple[int, float, float]]) -> None:
        path = self.log_dir / f"{name}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("step,lr,loss\n")
            for step, lr, loss in curve:
                fh.write(f"{step},{lr:.10g},{loss:.10g}\n")
        for step, _, loss in curve:
            self.runlog.record(name, step, "loss", loss)

    def load_data(self) -> tuple[SyntheticDataset, Vocab]:
        if not (self.data_dir / "config.json").exists():
            raise ConfigError("run the 'gen-synthetic' stage first (no data directory)")
        ds = load_dataset(self.data_dir)
        vocab = Vocab.load(self.data_dir / "vocab.txt")
        return ds, vocab

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab_size=vocab_size, **self.config.encoder)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_gen(ws: Workspace) -> Path:
    ws.ensure_dirs()
    ds = gen_synthetic(ws.config.synthetic)
    save_dataset(ds, ws.data_dir)
    vocab = build_vocab(vocab_corpus(ds))
    vocab.save(ws.data_dir / "vocab.txt")
    ws.runlog.record("gen-synthetic", 0, "entities", len(ds.mlkg.entities))
    return ws.data_dir


def stage_pretrain(ws: Workspace) -> Path:
    ws.ensure_dirs()
    ds, vocab = ws.load_data()
    config = ws.encoder_config(len(vocab))
    hyper = ws.config.hyper("pretrain", len(ds.mlm_corpus))
    params, curve = mlm_pretrain(ds.mlm_corpus, config, hyper, ws.config.seed, vocab)
    ws.write_curve("pretrain", curve)
    path = ws.ckpt("pretrain")
    save_checkpoint(path, params, _provenance(ws, "pretrain"))
    return path


def _provenance(ws: Workspace, stage: str, **extra) -> dict:
    return {"stage": stage, "seed": ws.config.seed, "profile": ws.config.profile,
            "config_hash": ws.config.config_hash(),
            "adapter_kinds": list(ws.config.adapter_kinds),
            "bottleneck": ws.config.bottleneck, "encoder": dict(ws.config.encoder),
            **extra}


def _insert_seed(config: PipelineConfig) -> int:
    return config.seed + 1009


def _fusion_seed(config: PipelineConfig) -> int:
    return config.seed + 2003


def load_model(ws: Workspace, name: str, needed_for: str) -> AdaptedEncoder:
    """The model of checkpoint `name`, which stage `needed_for` requires."""
    params, manifest = load_checkpoint(ws.require_ckpt(name, needed_for))
    return model_from_checkpoint(ws, params, manifest)


def make_sampler(ds: SyntheticDataset, kind: str, hyper: TrainHyper):
    """Bind one adapter kind's objective to the benchmark data.

    What a sampler draws from is built here, once per stage, not per batch.
    """
    langs = ds.split.adapter_langs
    if kind == "EP":
        universe = ep_pair_universe(ds.mlkg, langs)
        return lambda b, rng: sample_ep_batch(ds.mlkg, universe, b, rng)
    if kind == "TP":
        return lambda b, rng: sample_tp_batch(ds.mlkg, ds.train_triples, langs, b,
                                              hyper.p_cs, rng)
    if kind == "ES":
        eligible = es_eligible(ds.c1, ds.mlkg, langs)
        return lambda b, rng: sample_es_batch(ds.c1, ds.mlkg, eligible, b, rng)
    if kind == "TS":
        records = ts_ingest(ds.c2)
        return lambda b, rng: sample_ts_batch(records, ds.base_lang, b, rng)
    if kind == "LARGE":
        # one adapter integrating every knowledge type: rotate objectives per batch
        samplers = [make_sampler(ds, k, hyper) for k in ("EP", "TP", "ES", "TS")]
        counter = {"i": 0}

        def mixed(b, rng):
            s = samplers[counter["i"] % 4]
            counter["i"] += 1
            return s(b, rng)

        return mixed
    raise ConfigError(f"unknown adapter kind {kind!r}")


def stage_integrate(ws: Workspace, kind: str) -> Path:
    ws.ensure_dirs()
    kind = kind.upper()
    if kind not in (*ws.config.adapter_kinds, LARGE):
        raise ConfigError(f"kind {kind!r} not in configured adapters "
                          f"{ws.config.adapter_kinds} or {LARGE}")
    ds, vocab = ws.load_data()
    base = load_model(ws, "pretrain", "integrate")
    adapted = insert_adapters(base.params, ws.config.adapter_kinds, ws.config.bottleneck,
                              _insert_seed(ws.config), base.config)
    if kind == LARGE:
        # sized to the parameter budget of every configured adapter plus fusion
        reference = init_fusion(adapted, _insert_seed(ws.config) + 1)
        adapted = make_large_adapter(reference, base.params, _insert_seed(ws.config))
    hyper = ws.config.hyper("adapter", _adapter_data_size(ds, kind))
    hyper.seed = ws.config.seed + sum(ord(c) for c in kind)
    sampler = make_sampler(ds, kind, hyper)
    trained, curve = train_adapter(adapted, kind, sampler, vocab, hyper)
    ws.write_curve(f"integrate_{kind}", curve)
    path = ws.ckpt(f"adapter_{kind}")
    save_checkpoint(path, trained.params, _provenance(
        ws, "integrate", kind=kind, adapter_kinds=trained.kinds,
        bottleneck=trained.bottlenecks[kind]))
    return path


def _adapter_data_size(ds: SyntheticDataset, kind: str) -> int:
    return {"EP": len(ds.mlkg.entities) * len(ds.split.adapter_langs),
            "TP": len(ds.train_triples), "ES": len(ds.c1), "TS": len(ds.c2),
            "LARGE": len(ds.train_triples)}.get(kind, 0)


def assemble_fused(ws: Workspace, kinds: list[str] | None = None) -> AdaptedEncoder:
    """Backbone + every trained adapter group + fresh fusion parameters.

    Every kind needs its integrated adapter checkpoint; a missing one is an
    error rather than a randomly initialized adapter in the fusion.
    """
    kinds = kinds or list(ws.config.adapter_kinds)
    base = load_model(ws, "pretrain", "fuse")
    backbone_hash = base.params.checksum("encoder.")
    adapted = insert_adapters(base.params, kinds, ws.config.bottleneck,
                              _insert_seed(ws.config), base.config)
    for kind in kinds:
        path = ws.require_ckpt(f"adapter_{kind}", "fuse")
        trained, _ = load_checkpoint(path)
        if trained.checksum("encoder.") != backbone_hash:
            raise DataError(f"{path.name}: backbone differs from pretrain checkpoint")
        adapted.params.merge(trained, f"adapter.{kind}.")
    return init_fusion(adapted, _fusion_seed(ws.config)).with_mode("fusion")


def _task_args(ds: SyntheticDataset, task: str):
    """(item-sampler factory, train data, eval function, test data) of a task."""
    if task == "completion":
        return completion_item_sampler, ds.comp_train, eval_completion, ds.comp_test
    if task == "alignment":
        return alignment_item_sampler, ds.align_train, eval_alignment, ds.align_test
    raise ConfigError(f"unknown task {task!r} (have {TASKS})")


def train_task(ws: Workspace, ds: SyntheticDataset, vocab: Vocab, model: AdaptedEncoder,
               task: str, stage: str, groups: list[str]
               ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """Train `groups` of a copy of the model on the task's training pairs with
    the `<stage>_<task>` hyper; returns (trained model, loss curve)."""
    sampler_fn, train_data, _, _ = _task_args(ds, task)
    hyper = ws.config.hyper(f"{stage}_{task}", len(train_data))
    hyper.seed = ws.config.seed + {"fuse": 101, "finetune": 211}[stage]
    return finetune_contrastive(model, sampler_fn(ds.mlkg, train_data), vocab, hyper,
                                train_groups=groups)


def evaluate(ws: Workspace, ds: SyntheticDataset, vocab: Vocab, model: AdaptedEncoder,
             task: str, variant: str, checkpoint_hash: str) -> MetricReport:
    """Score the model on the task's test split; the report names the variant,
    the seed, the profile, the weight and config hashes and the language split."""
    _, _, eval_fn, test_data = _task_args(ds, task)
    before = model.params.checksum()
    report = eval_fn(model, ds.mlkg, test_data, vocab, k=ws.config.eval_k)
    if model.params.checksum() != before:
        raise RuntimeError("evaluation mutated model parameters")
    return dataclasses.replace(report, variant=variant, seed=ws.config.seed,
                               profile=ws.config.profile, checkpoint_hash=checkpoint_hash,
                               config_hash=ws.config.config_hash(), split=ds.split)


def stage_fuse(ws: Workspace, task: str) -> Path:
    """Stage 3: train fusion parameters only, on the task's Sup training pairs."""
    ws.ensure_dirs()
    ds, vocab = ws.load_data()
    trained, curve = train_task(ws, ds, vocab, assemble_fused(ws), task, "fuse", ["fusion."])
    ws.write_curve(f"fuse_{task}", curve)
    path = ws.ckpt(f"fused_{task}")
    save_checkpoint(path, trained.params, _provenance(ws, "fuse", task=task))
    return path


def stage_finetune(ws: Workspace, task: str) -> Path:
    """Stage 4: unfreeze everything on top of the fused checkpoint."""
    ws.ensure_dirs()
    ds, vocab = ws.load_data()
    model = load_model(ws, f"fused_{task}", "finetune")
    trained, curve = train_task(ws, ds, vocab, model, task, "finetune",
                                ["encoder.", "adapter.", "fusion."])
    ws.write_curve(f"finetune_{task}", curve)
    path = ws.ckpt(f"finetuned_{task}")
    save_checkpoint(path, trained.params, _provenance(ws, "finetune", task=task))
    return path


def model_from_checkpoint(ws: Workspace, params: ParamSet, manifest: dict) -> AdaptedEncoder:
    """The one way from a checkpoint to a model.

    The vocabulary size is the row count of the token embedding, the adapter
    kinds and bottleneck come from provenance, and the mode from what the
    checkpoint holds: fusion if it has fusion parameters, the integrated
    adapter alone for an `integrate` checkpoint, else the bare backbone.
    """
    prov = manifest["provenance"]
    config = ws.encoder_config(params.get("encoder.emb.tok").shape[0])
    kinds = [k for k in prov.get("adapter_kinds", []) if params.names(f"adapter.{k}.")]
    b = prov.get("bottleneck", ws.config.bottleneck)
    model = AdaptedEncoder(config=config, params=params, kinds=kinds,
                           bottlenecks={k: b for k in kinds})
    if model.has_fusion:
        return model.with_mode("fusion")
    if prov.get("stage") == "integrate":
        if prov["kind"] not in kinds:
            raise DataError(f"checkpoint provenance lists adapters {prov.get('adapter_kinds')} "
                            f"but not its own {prov['kind']!r}: re-run its integrate stage")
        return model.with_mode("single", prov["kind"])
    return model


def stage_eval(ws: Workspace, task: str, checkpoint: str) -> MetricReport:
    ws.ensure_dirs()
    ds, vocab = ws.load_data()
    params, manifest = load_checkpoint(ws.require_ckpt(checkpoint, "eval"))
    model = model_from_checkpoint(ws, params, manifest)
    return evaluate(ws, ds, vocab, model, task, checkpoint, manifest["blob_sha256"])


STAGE_ORDER = ("gen-synthetic", "pretrain", "integrate", "fuse", "finetune", "eval")


def run_stage(ws: Workspace, stage: str, **kw):
    """Dispatch a named stage; prerequisite checkpoints are checked inside."""
    if stage == "gen-synthetic":
        return stage_gen(ws)
    if stage == "pretrain":
        return stage_pretrain(ws)
    if stage == "integrate":
        return stage_integrate(ws, kw["kind"])
    if stage == "fuse":
        return stage_fuse(ws, kw["task"])
    if stage == "finetune":
        return stage_finetune(ws, kw["task"])
    if stage == "eval":
        return stage_eval(ws, kw["task"], kw.get("checkpoint") or f"fused_{kw['task']}")
    raise ConfigError(f"unknown stage {stage!r} (have {STAGE_ORDER})")

