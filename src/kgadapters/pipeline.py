"""Stage orchestration for the four-step enhancement workflow.

Stages and their freezing contracts, all held by `optim.frozen`, the one frozen
check: a training stage trains one group prefix through `optim.train`, which
holds every other parameter, and `evaluate` holds the whole model:
  pretrain          trains the backbone (MLM)
  integrate(kind)   backbone frozen, inserts and trains the one adapter `kind`;
                    the checkpoint holds encoder.* and adapter.<kind>.* only
  integrate(LARGE)  the same for one adapter sized to the budget of all
                    configured adapters plus fusion, on all four objectives
  fuse(task)        the pretrain backbone plus every trained adapter group,
                    frozen; trains fresh fusion parameters on task pairs
  finetune(task)    full unfreeze of the fused model on task pairs
  eval(task)        scores one checkpoint on the task's test split
  ablate(tasks)     trains base, each adapter, LARGE and FUSION under one
                    task budget and scores each on every task

`run_stage` is the one entry point: the CLI and the benchmark run every
stage through it by name. Every training stage reads its prerequisite
checkpoint from the run directory and writes a new one; nothing is mutated
in place. `load_model` is the one reader of model checkpoints, for every
stage alike. Every checkpoint records the SHA-256 of the data it was trained
on, `vocab.txt` included; `load_model` checks that lineage first, then
`model_from_checkpoint` reads the model from the checkpoint's parameters (and
the head count from its manifest). A `Workspace` parses its data directory
once per fingerprint, so the stages run on one `Workspace` share one parse.
Two runs with the same config and seed produce byte-identical checkpoints and
reports (run logs carry wall-clock timestamps and are excluded from that
guarantee).
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
from .errors import ConfigError, DataError, check_fields, check_type
from .evaluation import MetricReport, eval_alignment, eval_completion, finetune_contrastive
from .objectives import (P_CS, Sampler, ep_pair_universe, es_eligible, sample_completion_batch,
                         sample_ep_batch, sample_es_batch, sample_tp_batch, sample_ts_batch,
                         train_adapter, ts_ingest)
from .optim import TrainHyper, frozen
from .params import ParamSet
from .synthetic import (DATASET_FILES, SyntheticConfig, SyntheticDataset, gen_synthetic,
                        load_dataset, save_dataset, vocab_corpus)
from .vocab import Vocab, build_vocab

TASKS = ("completion", "alignment")
# the files of a data directory that its fingerprint covers
DATA_FILES = (*DATASET_FILES, "vocab.txt")
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
        check_fields(self, {"seed": 0, "bottleneck": 1, "eval_k": 1})
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r} (have {sorted(PROFILES)})")
        if not self.adapter_kinds or any(k not in KINDS for k in self.adapter_kinds) \
                or len(set(self.adapter_kinds)) != len(self.adapter_kinds):
            raise ConfigError(f"adapter_kinds {self.adapter_kinds} must be distinct "
                              f"kinds of {list(KINDS)}, at least one")
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
                raw["synthetic"] = SyntheticConfig(**check_type("synthetic", raw["synthetic"],
                                                                "dict"))
            return cls(**raw)
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"bad config file {path}: {exc}") from None

    def config_hash(self) -> str:
        d = dataclasses.asdict(self)
        d.pop("out_dir")        # a location, not an experiment parameter
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()

    def _stage_hyper(self, stage: str) -> TrainHyper:
        """Profile hyper for a stage with its overrides applied."""
        overrides = self.hyper_overrides.get(stage, {})
        if not isinstance(overrides, dict):
            raise ConfigError(f"hyper_overrides.{stage} must be an object, got {overrides!r}")
        try:
            return TrainHyper(**{**dataclasses.asdict(PROFILES[self.profile][stage]),
                                 **overrides})
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
    """Filesystem layout of one run directory, and the data last loaded from it.

    A Workspace keeps the dataset and vocabulary that `load_data` parsed with
    their fingerprint, the SHA-256 of the data directory's `DATA_FILES`, and
    serves them again while the files hash the same. The stages that share a
    Workspace share these objects and never change them.
    """

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.root = Path(config.out_dir)
        self.data_dir = self.root / "data"
        self.ckpt_dir = self.root / "checkpoints"
        self.log_dir = self.root / "logs"
        self.report_dir = self.root / "reports"
        self.runlog = RunLog(self.log_dir / "runlog.jsonl")
        self._data: tuple[str, SyntheticDataset, Vocab] | None = None

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
        """The data directory's dataset and vocabulary, parsed once per fingerprint.

        Every call hashes the files; they are parsed, and checked, only when
        the hash differs from the one of the data held, so an edited file is
        never served stale. A missing file is an OSError naming it, a
        malformed one a DataError naming its file and line.
        """
        if not (self.data_dir / "config.json").exists():
            raise ConfigError("run the 'gen-synthetic' stage first (no data directory)")
        h = hashlib.sha256()
        for name in DATA_FILES:
            raw = (self.data_dir / name).read_bytes()
            h.update(f"{name}\0{len(raw)}\0".encode())
            h.update(raw)
        sha = h.hexdigest()
        if self._data is None or self._data[0] != sha:
            self._data = (sha, load_dataset(self.data_dir),
                          Vocab.load(self.data_dir / "vocab.txt"))
        return self._data[1:]

    @property
    def data_sha256(self) -> str:
        """The fingerprint of the data `load_data` last returned."""
        if self._data is None:
            self.load_data()
        return self._data[0]

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
        "data_sha256": ws.data_sha256,
        "adapter_kinds": list(ws.config.adapter_kinds), "bottleneck": ws.config.bottleneck,
        "encoder": dict(ws.config.encoder), **extra})
    return path


def load_model(ws: Workspace, name: str, needed_for: str) -> tuple[AdaptedEncoder, dict]:
    """The model and manifest of checkpoint `name`, which stage `needed_for`
    requires. Lineage first: a checkpoint whose recorded `data_sha256` (the
    vocabulary included) is not `Workspace.data_sha256`, or is absent, names
    itself; so does one that holds no model of the run config."""
    path = ws.require_ckpt(name, needed_for)
    params, manifest = load_checkpoint(path)
    try:
        trained_on = manifest["provenance"].get("data_sha256") or "none"
        if trained_on != ws.data_sha256:
            raise DataError(f"trained on data {trained_on[:12]}, but {ws.data_dir} holds "
                            f"data {ws.data_sha256[:12]}: re-run pretrain")
        return model_from_checkpoint(ws, params, manifest), manifest
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def make_sampler(ds: SyntheticDataset, objective: str) -> tuple[Sampler, int]:
    """Bind one objective, an adapter kind or a task of `TASKS`, to the
    benchmark data; returns the sampler and its epoch size, which resolves
    epochs to steps: the size of what the sampler draws from, and for LARGE
    the sum of its kinds'.

    What a sampler draws from is built here, once per stage, not per batch;
    only LARGE's sampler holds state, so a stage reuses a task's sampler for
    every model it trains.
    """
    langs = ds.split.adapter_langs
    if objective == "EP":
        universe = ep_pair_universe(ds.mlkg, langs)
        return lambda b, rng: sample_ep_batch(ds.mlkg, universe, b, rng), len(universe)
    if objective == "TP":
        triples = ds.train_triples
        return (lambda b, rng: sample_tp_batch(ds.mlkg, triples, langs, b, P_CS, rng),
                len(triples))
    if objective == "ES":
        eligible = es_eligible(ds.c1, ds.mlkg, langs)
        return lambda b, rng: sample_es_batch(ds.c1, ds.mlkg, eligible, b, rng), len(ds.c1)
    if objective == "TS":
        records = ts_ingest(ds.c2)
        return lambda b, rng: sample_ts_batch(records, b, rng), len(ds.c2)
    if objective == LARGE:
        # one adapter integrating every knowledge type: rotate objectives per batch
        kinds = [make_sampler(ds, k) for k in KINDS]
        samplers = itertools.cycle([sampler for sampler, _ in kinds])
        return lambda b, rng: next(samplers)(b, rng), sum(size for _, size in kinds)
    if objective == "completion":
        items = ds.comp_train
        return lambda b, rng: sample_completion_batch(ds.mlkg, items, b, rng), len(items)
    if objective == "alignment":
        universe = [(eid, src, tgt) for src, tgt, eid in ds.align_train]
        return lambda b, rng: sample_ep_batch(ds.mlkg, universe, b, rng), len(universe)
    raise ConfigError(f"unknown objective {objective!r} (have {(*KINDS, LARGE, *TASKS)})")


def stage_integrate(ws: Workspace, kind: str) -> Path:
    kind = kind.upper()
    if kind not in (*ws.config.adapter_kinds, LARGE):
        raise ConfigError(f"kind {kind!r} not in configured adapters "
                          f"{ws.config.adapter_kinds} or {LARGE}")
    ds, vocab = ws.load_data()
    base, _ = load_model(ws, "pretrain", "integrate")
    return _integrate(ws, ds, vocab, base, kind)[1]


def _integrate(ws: Workspace, ds: SyntheticDataset, vocab: Vocab, base: AdaptedEncoder,
               kind: str) -> tuple[AdaptedEncoder, Path]:
    """Train the adapter of `kind` on the loaded pretrain model `base` and save
    it as adapter_<kind>; returns the trained model and the checkpoint path."""
    # LARGE is sized to the parameter budget of every configured adapter plus fusion
    b = (large_bottleneck(base.config, len(ws.config.adapter_kinds), ws.config.bottleneck)
         if kind == LARGE else ws.config.bottleneck)
    adapted = insert_adapters(base.params, [kind], b, ws.config.seed + 1009, base.config)
    sampler, data_size = make_sampler(ds, kind)
    trained, curve = train_adapter(adapted, sampler, vocab, ws.config.hyper("adapter", data_size),
                                   ws.config.seed + sum(ord(c) for c in kind))
    return trained, _save_stage(ws, "integrate", f"adapter_{kind}", trained.params, curve,
                                kind=kind)


def assemble_fused(ws: Workspace, base: AdaptedEncoder,
                   adapters: list[AdaptedEncoder]) -> AdaptedEncoder:
    """A copy of the pretrain backbone `base` + the adapter group of each
    single-adapter model of `adapters` + fresh fusion parameters.

    The caller loads the models and checks them (`_load_adapters`); a
    missing or other adapter is an error there, rather than a randomly
    initialized adapter in the fusion. No model passed in changes.
    """
    params = ParamSet()
    params.merge(base.params)
    for model in adapters:
        params.merge(model.params, f"adapter.{model.kinds[0]}.")
    return init_fusion(AdaptedEncoder(base.config, params), ws.config.seed + 2003)


def _load_adapters(ws: Workspace, kinds: list[str], needed_for: str
                   ) -> tuple[AdaptedEncoder, dict[str, AdaptedEncoder]]:
    """The pretrain model and, by kind, the model of the integrate checkpoint
    of each of `kinds`, in that order. Each must hold its kind's adapter
    alone, on the pretrain backbone; the first that does not is a DataError
    naming it."""
    base, _ = load_model(ws, "pretrain", needed_for)
    backbone_hash = base.params.checksum("encoder.")
    adapters = {}
    for kind in kinds:
        model, _ = load_model(ws, f"adapter_{kind}", needed_for)
        path = ws.ckpt(f"adapter_{kind}")
        if model.kinds != [kind]:
            raise DataError(f"{path}: holds adapters {model.kinds}, not [{kind!r}]: "
                            f"re-run integrate")
        if model.params.checksum("encoder.") != backbone_hash:
            raise DataError(f"{path}: backbone differs from pretrain checkpoint: "
                            f"re-run integrate")
        adapters[kind] = model
    return base, adapters


def train_task(ws: Workspace, vocab: Vocab, model: AdaptedEncoder,
               bound: tuple[Sampler, int], task: str, stage: str
               ) -> tuple[AdaptedEncoder, list[tuple[int, float, float]]]:
    """Train a copy of the model on the task's training pairs, drawn by its
    sampler and epoch size `bound` (`make_sampler(ds, task)`), with the
    `<stage>_<task>` hyper; returns (trained model, loss curve).

    finetune trains every parameter. fuse trains the group the model's mode
    adapts: the fusion layer of a fused model, the adapter of a
    single-adapter model and the whole encoder of the bare backbone.
    """
    sampler, data_size = bound
    hyper = ws.config.hyper(f"{stage}_{task}", data_size)
    prefix = "" if stage == "finetune" else {
        "none": "encoder.", "single": "adapter.", "fusion": "fusion."}[model.mode]
    return finetune_contrastive(model, sampler, vocab, hyper,
                                ws.config.seed + {"fuse": 101, "finetune": 211}[stage], prefix)


def evaluate(ws: Workspace, ds: SyntheticDataset, vocab: Vocab, model: AdaptedEncoder,
             task: str, variant: str, checkpoint_hash: str) -> MetricReport:
    """Score the model, every parameter `frozen`, on the task's test split; the
    report names the variant, the seed, the profile, the weight and config
    hashes and the language split."""
    eval_fn, test_data = {"completion": (eval_completion, ds.comp_test),
                          "alignment": (eval_alignment, ds.align_test)}[task]
    with frozen(model.params, model.params.names(), "evaluation"):
        report = eval_fn(model, ds.mlkg, test_data, vocab, k=ws.config.eval_k)
    return dataclasses.replace(report, variant=variant, seed=ws.config.seed,
                               profile=ws.config.profile, checkpoint_hash=checkpoint_hash,
                               config_hash=ws.config.config_hash(), split=ds.split)


def stage_fuse(ws: Workspace, task: str) -> Path:
    """Stage 3: train fusion parameters only, on the task's Sup training pairs."""
    ds, vocab = ws.load_data()
    base, adapters = _load_adapters(ws, ws.config.adapter_kinds, "fuse")
    fused = assemble_fused(ws, base, list(adapters.values()))
    trained, curve = train_task(ws, vocab, fused, make_sampler(ds, task), task, "fuse")
    return _save_stage(ws, "fuse", f"fused_{task}", trained.params, curve, task=task)


def stage_finetune(ws: Workspace, task: str) -> Path:
    """Stage 4: unfreeze everything on top of the fused checkpoint."""
    ds, vocab = ws.load_data()
    model, _ = load_model(ws, f"fused_{task}", "finetune")
    trained, curve = train_task(ws, vocab, model, make_sampler(ds, task), task, "finetune")
    return _save_stage(ws, "finetune", f"finetuned_{task}", trained.params, curve, task=task)


def model_from_checkpoint(ws: Workspace, params: ParamSet, manifest: dict) -> AdaptedEncoder:
    """The one way from a checkpoint to a model, read from its parameters;
    `load_model` calls it once the checkpoint's lineage holds.

    The vocabulary size is the row count of the token embedding; the model's
    adapter kinds and mode come from its parameter names (`AdaptedEncoder`).
    A run config whose encoder differs from the parameters' shapes, which
    would train a truncated model or fail inside `encode`, is an error. So is
    one whose head count, which leaves no trace in the shapes, differs from
    the manifest's `provenance.encoder`: the run config's encoder as written,
    so a record without `n_heads` means the default, and no record at all
    reads as None. So are several adapters without fusion, which no stage
    writes.
    """
    recorded = manifest["provenance"].get("encoder")
    config = ws.encoder_config(params.get("encoder.emb.tok").shape[0])
    in_ckpt = {"layers": sum(n.endswith(".ln1.g") for n in params.names("encoder.")),
               "d_model": params.get("encoder.emb.tok").shape[1],
               "ff_dim": params.get("encoder.0.ff.w1").shape[1],
               "max_seq_len": params.get("encoder.emb.pos").shape[0],
               "n_heads": None if recorded is None
               else recorded.get("n_heads", EncoderConfig.n_heads)}
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


def stage_ablate(ws: Workspace, tasks: tuple[str, ...]) -> dict[str, dict[str, MetricReport]]:
    """variant -> task -> MetricReport of every variant on every task, on one
    backbone, one split and one task budget (the fuse hyper and seed).

    The variants are base (the pretrain checkpoint, whose whole encoder
    trains), each configured adapter (its integrate checkpoint), LARGE (the
    integrate(LARGE) checkpoint; on first use integrated here from the loaded
    base, saved, and used as trained) and FUSION (`assemble_fused` of the
    loaded base and adapters); `train_task` trains the group the model's mode
    adapts. Every checkpoint is read once, and every variant is loaded, and
    its backbone checked against the pretrain checkpoint, before any trains.
    """
    ds, vocab = ws.load_data()
    large = [LARGE] if ws.ckpt(f"adapter_{LARGE}").exists() else []
    base, models = _load_adapters(ws, [*ws.config.adapter_kinds, *large], "ablate")
    models["base"] = base
    models["FUSION"] = assemble_fused(ws, base, [models[k] for k in ws.config.adapter_kinds])
    if LARGE not in models:                     # integrated once every other variant checks
        models[LARGE] = _integrate(ws, ds, vocab, base, LARGE)[0]
    samplers = {task: make_sampler(ds, task) for task in tasks}
    grid = {}
    for variant in ("base", *ws.config.adapter_kinds, LARGE, "FUSION"):
        grid[variant] = {}
        for task in tasks:
            trained, _ = train_task(ws, vocab, models[variant], samplers[task], task, "fuse")
            grid[variant][task] = evaluate(ws, ds, vocab, trained, task, variant,
                                           trained.params.checksum())
    return grid


STAGES = {"gen-synthetic": stage_gen, "pretrain": stage_pretrain,
          "integrate": stage_integrate, "fuse": stage_fuse, "finetune": stage_finetune,
          "eval": stage_eval, "ablate": stage_ablate}


def run_stage(ws: Workspace, stage: str, **kw):
    """Run the named stage with its keyword arguments (kind, task,
    checkpoint, tasks); prerequisite checkpoints are checked inside."""
    if stage not in STAGES:
        raise ConfigError(f"unknown stage {stage!r} (have {tuple(STAGES)})")
    for task in kw.get("tasks", [kw["task"]] if "task" in kw else []):
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r} (have {TASKS})")
    ws.ensure_dirs()
    return STAGES[stage](ws, **kw)
