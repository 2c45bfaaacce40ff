"""Stage orchestration for the four-step enhancement workflow.

Stages and their freezing contracts (verified by checksums, not assumed):
  pretrain          trains the backbone (MLM)
  integrate(kind)   backbone frozen, inserts and trains the one adapter `kind`;
                    the checkpoint holds encoder.* and adapter.<kind>.* only
  integrate(LARGE)  the same for one adapter sized to the budget of all
                    configured adapters plus fusion, on all four objectives
  fuse(task)        the pretrain backbone plus every trained adapter group,
                    frozen; trains fresh fusion parameters on task pairs
  finetune(task)    full unfreeze of the fused model on task pairs

`run_stage` is the one entry point: the CLI, the ablation and the benchmark
run every stage through it by name. Every stage reads its prerequisite
checkpoint from the run directory and writes a new one; nothing is mutated
in place. `model_from_checkpoint` is the one way from a checkpoint to a
model, for the stages, eval and the ablation alike, and reads the model from
the checkpoint's parameters (and the head count from its manifest). Two runs
with the same config and seed produce byte-identical checkpoints and reports
(run logs carry wall-clock timestamps and are excluded from that guarantee).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from .adapters import (KINDS, LARGE, AdaptedEncoder, init_fusion, insert_adapters,
                       large_bottleneck)
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import EncoderConfig, mlm_pretrain
from .errors import ConfigError, DataError, check_number_fields
from .evaluation import MetricReport, eval_alignment, eval_completion, finetune_contrastive
from .hyper import TrainHyper
from .objectives import (P_CS, alignment_item_sampler, completion_item_sampler,
                         ep_pair_universe, es_eligible, sample_ep_batch, sample_es_batch,
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
    # recipe starts from an already pretrained encoder). The paper trains
    # every adapter with the same hyperparameters, so a value no stage varies
    # is a constant, not a field: the InfoNCE temperature objectives.TAU
    # (0.05), the TP code-switch rate objectives.P_CS (0.5) and the MLM mask
    # rate encoder.MASK_RATE (0.15, as in BERT).
    "paper": {
        "pretrain": TrainHyper(batch_size=128, steps=10_000, base_lr=1e-4, warmup_steps=10_000),
        "adapter": TrainHyper(batch_size=128, epochs=10, base_lr=1e-4, warmup_steps=10_000),
        "fuse_completion": TrainHyper(batch_size=8, epochs=10, base_lr=1e-8, warmup_steps=1),
        "fuse_alignment": TrainHyper(batch_size=8, epochs=1, base_lr=1e-8, warmup_steps=1),
        "finetune_completion": TrainHyper(batch_size=8, epochs=10, base_lr=1e-8, warmup_steps=1),
        "finetune_alignment": TrainHyper(batch_size=8, epochs=1, base_lr=1e-8, warmup_steps=1),
    },
    # Desk-scale settings sized for minutes-long CPU runs.
    "desk": {
        "pretrain": TrainHyper(batch_size=32, steps=500, base_lr=2e-3, warmup_steps=50),
        "adapter": TrainHyper(batch_size=32, steps=300, base_lr=2e-3, warmup_steps=30),
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
        """Every fault a stage would hit in the config is a ConfigError here."""
        check_number_fields(self)
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r} (have {sorted(PROFILES)})")
        if not self.adapter_kinds or len(set(self.adapter_kinds)) != len(self.adapter_kinds) \
                or not set(self.adapter_kinds) <= set(KINDS):
            raise ConfigError(f"adapter_kinds {self.adapter_kinds} must be distinct "
                              f"kinds of {list(KINDS)}, at least one")
        for name, least in (("seed", 0), ("bottleneck", 1), ("eval_k", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        try:
            # as Workspace.encoder_config builds it; vocab_size comes from vocab.txt
            EncoderConfig(vocab_size=0, **self.encoder)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"encoder: {exc}") from None
        unknown = sorted(set(self.hyper_overrides) - set(PROFILES[self.profile]))
        if unknown:
            raise ConfigError(f"hyper_overrides: unknown stage(s) {unknown} "
                              f"(have {sorted(PROFILES[self.profile])})")
        for stage in PROFILES[self.profile]:
            h = self._stage_hyper(stage)
            if h.steps == 0 and h.epochs == 0:
                raise ConfigError(f"stage {stage}: steps and epochs are both 0")

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:
            raise ConfigError(f"config file {path} is not JSON: {exc}") from None
        try:
            if "synthetic" in raw:
                raw["synthetic"] = SyntheticConfig(**raw["synthetic"])
            return cls(**raw)
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from None

    def canonical_json(self) -> str:
        d = dataclasses.asdict(self)
        d.pop("out_dir")        # a location, not an experiment parameter
        return json.dumps(d, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def _stage_hyper(self, stage: str) -> TrainHyper:
        """Profile hyper for a stage with its overrides applied."""
        values = dataclasses.asdict(PROFILES[self.profile][stage])
        try:
            values.update(self.hyper_overrides.get(stage, {}))
            return TrainHyper(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"hyper_overrides.{stage}: {exc}") from None

    def hyper(self, stage: str, data_size: int = 0) -> TrainHyper:
        """Profile hyper for a stage with overrides applied; epochs resolve to steps."""
        h = self._stage_hyper(stage)
        if h.steps == 0 and h.epochs > 0:
            if data_size <= 0:
                raise ConfigError(f"stage {stage}: epochs given but data size unknown")
            h = dataclasses.replace(h, steps=h.epochs * max(1, data_size // h.batch_size))
        return h


class RunLog:
    """Append-only metric log; a re-run stage appends its records after the
    earlier run's."""

    def __init__(self, path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(self, stage: str, step: int, metric: str, value: float) -> None:
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
            stage = _CKPT_STAGE.get(name.split("_")[0])
            hint = (f"run the {stage!r} stage first" if stage
                    else f"no such checkpoint exists under {self.ckpt_dir}")
            raise ConfigError(f"stage {needed_for!r} requires checkpoint {p.name} ({hint})")
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
    ds = gen_synthetic(ws.config.synthetic)
    save_dataset(ds, ws.data_dir)
    vocab = build_vocab(vocab_corpus(ds))
    vocab.save(ws.data_dir / "vocab.txt")
    ws.runlog.record("gen-synthetic", 0, "entities", len(ds.mlkg.entities))
    return ws.data_dir


def stage_pretrain(ws: Workspace) -> Path:
    ds, vocab = ws.load_data()
    config = ws.encoder_config(len(vocab))
    hyper = ws.config.hyper("pretrain", len(ds.mlm_corpus))
    params, curve = mlm_pretrain(ds.mlm_corpus, config, hyper, ws.config.seed, vocab)
    return _save_stage(ws, "pretrain", "pretrain", params, curve)


def _save_stage(ws: Workspace, stage: str, ckpt: str, params: ParamSet,
                curve: list[tuple[int, float, float]], **extra) -> Path:
    """Write a training stage's loss curve, named by the stage and the values
    of `extra`, and its checkpoint `ckpt` with its provenance; return its path."""
    ws.write_curve("_".join((stage, *extra.values())), curve)
    path = ws.ckpt(ckpt)
    save_checkpoint(path, params, {
        "stage": stage, "seed": ws.config.seed, "profile": ws.config.profile,
        "config_hash": ws.config.config_hash(), "adapter_kinds": list(ws.config.adapter_kinds),
        "bottleneck": ws.config.bottleneck, "encoder": dict(ws.config.encoder), **extra})
    return path


def load_model(ws: Workspace, name: str, needed_for: str) -> tuple[AdaptedEncoder, dict]:
    """The model and manifest of checkpoint `name`, which stage `needed_for`
    requires; a checkpoint that holds no model of the run config names itself."""
    path = ws.require_ckpt(name, needed_for)
    params, manifest = load_checkpoint(path)
    try:
        return model_from_checkpoint(ws, params, manifest), manifest
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def make_sampler(ds: SyntheticDataset, kind: str):
    """Bind one adapter kind's objective to the benchmark data.

    What a sampler draws from is built here, once per stage, not per batch.
    """
    langs = ds.split.adapter_langs
    if kind == "EP":
        universe = ep_pair_universe(ds.mlkg, langs)
        return lambda b, rng: sample_ep_batch(ds.mlkg, universe, b, rng)
    if kind == "TP":
        triples = ds.train_triples
        return lambda b, rng: sample_tp_batch(ds.mlkg, triples, langs, b, P_CS, rng)
    if kind == "ES":
        eligible = es_eligible(ds.c1, ds.mlkg, langs)
        return lambda b, rng: sample_es_batch(ds.c1, ds.mlkg, eligible, b, rng)
    if kind == "TS":
        records = ts_ingest(ds.c2)
        return lambda b, rng: sample_ts_batch(records, ds.base_lang, b, rng)
    if kind == LARGE:
        # one adapter integrating every knowledge type: rotate objectives per batch
        samplers = itertools.cycle([make_sampler(ds, k) for k in KINDS])
        return lambda b, rng: next(samplers)(b, rng)
    raise ConfigError(f"unknown adapter kind {kind!r}")


def stage_integrate(ws: Workspace, kind: str) -> Path:
    kind = kind.upper()
    if kind not in (*ws.config.adapter_kinds, LARGE):
        raise ConfigError(f"kind {kind!r} not in configured adapters "
                          f"{ws.config.adapter_kinds} or {LARGE}")
    ds, vocab = ws.load_data()
    base, _ = load_model(ws, "pretrain", "integrate")
    # LARGE is sized to the parameter budget of every configured adapter plus fusion
    b = (large_bottleneck(base.config, len(ws.config.adapter_kinds), ws.config.bottleneck)
         if kind == LARGE else ws.config.bottleneck)
    adapted = insert_adapters(base.params, [kind], b, ws.config.seed + 1009, base.config)
    hyper = ws.config.hyper("adapter", _adapter_data_size(ds, kind))
    trained, curve = train_adapter(adapted, make_sampler(ds, kind), vocab, hyper,
                                   ws.config.seed + sum(ord(c) for c in kind))
    return _save_stage(ws, "integrate", f"adapter_{kind}", trained.params, curve, kind=kind)


def _adapter_data_size(ds: SyntheticDataset, kind: str) -> int:
    return {"EP": len(ds.mlkg.entities) * len(ds.split.adapter_langs),
            "TP": len(ds.train_triples), "ES": len(ds.c1), "TS": len(ds.c2),
            "LARGE": len(ds.train_triples)}.get(kind, 0)


def assemble_fused(ws: Workspace) -> AdaptedEncoder:
    """The pretrain backbone + each configured kind's trained adapter group +
    fresh fusion parameters, with the adapters in KINDS order whatever the
    configured order.

    Every kind needs its integrated adapter checkpoint; a missing one is an
    error rather than a randomly initialized adapter in the fusion.
    """
    base, _ = load_model(ws, "pretrain", "fuse")
    backbone_hash = base.params.checksum("encoder.")
    for kind in sorted(ws.config.adapter_kinds, key=KINDS.index):
        path = ws.require_ckpt(f"adapter_{kind}", "fuse")
        trained, _ = load_checkpoint(path)
        if trained.checksum("encoder.") != backbone_hash:
            raise DataError(f"{path.name}: backbone differs from pretrain checkpoint")
        base.params.merge(trained, f"adapter.{kind}.")
    return init_fusion(base, ws.config.seed + 2003)


def _task_args(ds: SyntheticDataset, task: str):
    """(item-sampler factory, train data, eval function, test data) of a task."""
    if task == "completion":
        return completion_item_sampler, ds.comp_train, eval_completion, ds.comp_test
    if task == "alignment":
        return alignment_item_sampler, ds.align_train, eval_alignment, ds.align_test
    raise ConfigError(f"unknown task {task!r} (have {TASKS})")


def train_task(ws: Workspace, ds: SyntheticDataset, vocab: Vocab, model: AdaptedEncoder,
               task: str, stage: str
               ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """Train a copy of the model on the task's training pairs with the
    `<stage>_<task>` hyper; returns (trained model, loss curve).

    finetune trains every parameter. fuse trains the group the model's mode
    adapts: the fusion layer of a fused model, the adapter of a
    single-adapter model and the whole encoder of the bare backbone.
    """
    sampler_fn, train_data, _, _ = _task_args(ds, task)
    hyper = ws.config.hyper(f"{stage}_{task}", len(train_data))
    groups = [""] if stage == "finetune" else [
        {"none": "encoder.", "single": "adapter.", "fusion": "fusion."}[model.mode]]
    return finetune_contrastive(model, sampler_fn(ds.mlkg, train_data), vocab, hyper,
                                ws.config.seed + {"fuse": 101, "finetune": 211}[stage], groups)


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
    ds, vocab = ws.load_data()
    trained, curve = train_task(ws, ds, vocab, assemble_fused(ws), task, "fuse")
    return _save_stage(ws, "fuse", f"fused_{task}", trained.params, curve, task=task)


def stage_finetune(ws: Workspace, task: str) -> Path:
    """Stage 4: unfreeze everything on top of the fused checkpoint."""
    ds, vocab = ws.load_data()
    model, _ = load_model(ws, f"fused_{task}", "finetune")
    trained, curve = train_task(ws, ds, vocab, model, task, "finetune")
    return _save_stage(ws, "finetune", f"finetuned_{task}", trained.params, curve, task=task)


def model_from_checkpoint(ws: Workspace, params: ParamSet, manifest: dict) -> AdaptedEncoder:
    """The one way from a checkpoint to a model, read from its parameters.

    The vocabulary size is the row count of the token embedding; the model's
    adapter kinds and mode come from its parameter names (`AdaptedEncoder`).
    Several adapters without fusion (an integrate checkpoint written before
    each held only its own adapter) are an error. So is a run config whose
    encoder differs from the parameters' shapes, which would train a
    truncated model or fail inside `encode`, or from the head count, which
    leaves no trace in the shapes, that every stage records in the
    manifest's `provenance.encoder` (if that is absent, the head count is
    not checked).
    """
    config = ws.encoder_config(params.get("encoder.emb.tok").shape[0])
    in_ckpt = {"layers": sum(n.endswith(".ln1.g") for n in params.names("encoder.")),
               "d_model": params.get("encoder.emb.tok").shape[1],
               "ff_dim": params.get("encoder.0.ff.w1").shape[1],
               "max_seq_len": params.get("encoder.emb.pos").shape[0]}
    recorded = manifest.get("provenance", {}).get("encoder")
    if recorded is not None:
        in_ckpt["n_heads"] = recorded.get("n_heads", EncoderConfig.n_heads)
    for name, found in in_ckpt.items():
        if getattr(config, name) != found:
            raise DataError(f"encoder.{name} is {getattr(config, name)} in the run config "
                            f"but {found} in the checkpoint: re-run pretrain")
    model = AdaptedEncoder(config, params)
    if len(model.kinds) > 1 and not model.has_fusion:
        raise DataError(f"checkpoint holds adapters {model.kinds} and no fusion: an integrate "
                        f"checkpoint holds only its own adapter, so re-run integrate")
    return model


def stage_eval(ws: Workspace, task: str, checkpoint: str | None) -> MetricReport:
    """Score `checkpoint`, by default `fused_<task>`, on the task's test split."""
    checkpoint = checkpoint or f"fused_{task}"
    ds, vocab = ws.load_data()
    model, manifest = load_model(ws, checkpoint, "eval")
    return evaluate(ws, ds, vocab, model, task, checkpoint, manifest["blob_sha256"])


STAGES = {"gen-synthetic": stage_gen, "pretrain": stage_pretrain,
          "integrate": stage_integrate, "fuse": stage_fuse, "finetune": stage_finetune,
          "eval": stage_eval}


def run_stage(ws: Workspace, stage: str, **kw):
    """Run the named stage with its keyword arguments (kind, task,
    checkpoint); prerequisite checkpoints are checked inside."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r} (have {tuple(STAGES)})")
    ws.ensure_dirs()
    return STAGES[stage](ws, **kw)
