"""The three benchmark workloads.

Each workload makes its inputs with `gen_synthetic` from the seed it is
given and drives the public functions of kgadapters: `setup()` builds the
inputs, `work(state)` is the timed fixed work, and `outcome()` and
`check()` read its results outside the timed region. Layer functions are always
called through their module (`pipeline.run_stage`, not a name bound here),
so the tracer's replacements see every call.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from kgadapters import adapters, checkpoint, encoder, evaluation, pipeline, synthetic
from kgadapters.vocab import build_vocab

import oracle
from tracer import OPS

LAST_STEPS = 10          # final_loss averages the losses of this many last steps


@dataclass
class Outcome:
    """What one repetition did, read after the timed region."""

    fingerprint: str                 # must repeat exactly between repetitions
    steps: int = 0
    queries: int = 0
    stages: int = 0
    nonfinite_losses: int = 0
    train_examples: int = 0
    train_s: float = 0.0
    eval_s: float = 0.0
    final_loss: float | None = None
    eval_mrr: float | None = None
    eval_hit1: float | None = None

    @property
    def operations(self) -> int:
        return self.steps + self.queries + self.stages


@dataclass
class Check:
    """Oracle verdict for one repetition."""

    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, failed: int, problems: list[str]) -> None:
        self.failed += failed
        self.problems += problems


def _mean_last(losses: list[float]) -> float:
    return statistics.fmean(losses[-LAST_STEPS:])


def _nonfinite(losses: list[float]) -> int:
    return sum(1 for x in losses if not math.isfinite(x))


def _reports_fingerprint(reports: dict) -> str:
    return json.dumps({task: r.to_dict() for task, r in sorted(reports.items())}, sort_keys=True)


def _check_reports(check: Check, model, mlkg, vocab, reports: dict, tests: dict, seed: int) -> Check:
    """Brute-force one language of each task report, chosen by the seed."""
    for task, report in sorted(reports.items()):
        langs = sorted(report.per_language)
        lang = langs[seed % len(langs)]
        check.add(*oracle.check_language(model, mlkg, vocab, report, task, lang,
                                         tests[task][lang]))
    return check


class DeskPipeline:
    """The default desk PipelineConfig run stage by stage through `run_stage`."""

    name = "desk_pipeline"
    # step counts cut so that three repetitions fit in one 30-second run: the
    # first repetition in a process is often slower, and the median of three
    # leaves it out
    overrides = {"pretrain": {"steps": 30}, "adapter": {"steps": 12},
                 "fuse_completion": {"steps": 12}, "finetune_completion": {"steps": 12}}
    stages = ([("pretrain", {})]
              + [("integrate", {"kind": k}) for k in adapters.KINDS]
              + [("fuse", {"task": "completion"}), ("finetune", {"task": "completion"})]
              + [("eval", {"task": t, "checkpoint": "finetuned_completion"})
                 for t in pipeline.TASKS])
    curves = {"pretrain": "pretrain", **{f"integrate_{k}": "adapter" for k in adapters.KINDS},
              "fuse_completion": "fuse_completion", "finetune_completion": "finetune_completion"}
    expects = ([f"autodiff.{op}.fwd_calls" for op in OPS]
               + ["autodiff.backward.calls", "autodiff.grad_eval.calls",
                  "encoder.encode.calls", "encoder.pad_batch.calls", "encoder.mlm_loss.calls",
                  "adapters.adapter_apply.calls", "adapters.fusion_apply.calls",
                  "objectives.sampler.EP.calls", "objectives.sampler.TP.calls",
                  "objectives.sampler.ES.calls", "objectives.sampler.TS.calls",
                  "objectives.ts_ingest.calls", "objectives.ep_pair_universe.calls",
                  "objectives.encode_pair_batch.calls", "objectives.infonce.calls",
                  "optim.adam_step.calls", "params.checksum.calls", "params.copy.calls",
                  "checkpoint.save.calls", "checkpoint.load.calls",
                  "synthetic.gen.calls", "synthetic.save_dataset.calls",
                  "synthetic.load_dataset.calls", "pipeline.runlog.record.calls",
                  "evaluation.embed_labels.calls", "evaluation.rank.calls",
                  "evaluation.gold_rank.calls", "evaluation.eval_completion.calls",
                  "evaluation.eval_alignment.calls"]
               + [f"pipeline.stage.{s}.calls"
                  for s in ("gen-synthetic", "pretrain", "integrate", "fuse", "finetune", "eval")]
               + [f"train.{k}.step_ms.samples" for k in ("pretrain", "integrate", "fuse", "finetune")])

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self._runs = 0

    def setup(self):
        """A fresh run directory holding the generated data (the gen-synthetic stage)."""
        self._runs += 1
        config = pipeline.PipelineConfig(
            out_dir=str(self.scratch / f"run{self._runs}"), seed=self.seed,
            synthetic=synthetic.SyntheticConfig(seed=self.seed), hyper_overrides=self.overrides)
        ws = pipeline.Workspace(config)
        pipeline.run_stage(ws, "gen-synthetic")
        return ws

    def work(self, ws):
        times, reports = [], {}
        for stage, kw in self.stages:
            t0 = perf_counter()
            out = pipeline.run_stage(ws, stage, **kw)
            times.append((stage, perf_counter() - t0))
            if stage == "eval":
                reports[kw["task"]] = out
        return times, reports

    def _losses(self, ws, curve: str) -> list[float]:
        with open(ws.log_dir / f"{curve}.csv", encoding="utf-8") as fh:
            return [float(row["loss"]) for row in csv.DictReader(fh)]

    def outcome(self, ws, result, wall_s: float) -> Outcome:
        times, reports = result
        losses = {name: self._losses(ws, name) for name in self.curves}
        blobs = {p.name: checkpoint.read_manifest(p)["blob_sha256"]
                 for p in sorted(ws.ckpt_dir.glob("*.ckpt"))}
        return Outcome(
            fingerprint=json.dumps(blobs, sort_keys=True) + _reports_fingerprint(reports),
            steps=sum(len(v) for v in losses.values()),
            queries=sum(r.overall().n for r in reports.values()),
            stages=1 + len(self.stages),
            nonfinite_losses=sum(_nonfinite(v) for v in losses.values()),
            train_examples=sum(len(losses[name]) * ws.config.hyper(stage).batch_size
                               for name, stage in self.curves.items()),
            train_s=sum(dt for stage, dt in times if stage != "eval"),
            eval_s=sum(dt for stage, dt in times if stage == "eval"),
            final_loss=_mean_last(losses["finetune_completion"]),
            eval_mrr=statistics.fmean(r.overall().mrr for r in reports.values()),
            eval_hit1=statistics.fmean(r.overall().hit1 for r in reports.values()))

    def check(self, ws, result) -> Check:
        """Checkpoint integrity, the freezing contracts, and the ranking oracle."""
        _, reports = result
        check = Check()
        loaded = {path.stem: checkpoint.load_checkpoint(path)[0]     # verifies the blob hash
                  for path in sorted(ws.ckpt_dir.glob("*.ckpt"))}
        backbone = loaded["pretrain"].checksum("encoder.")
        for name, params in loaded.items():
            if name != "pretrain" and not name.startswith("finetuned_") \
                    and params.checksum("encoder.") != backbone:
                check.add(1, [f"{name}: frozen backbone changed"])
        for kind in adapters.KINDS:
            group = f"adapter.{kind}."
            if loaded["fused_completion"].checksum(group) != loaded[f"adapter_{kind}"].checksum(group):
                check.add(1, [f"fused_completion: frozen group {group} changed"])
        ds, vocab = ws.load_data()
        params, manifest = checkpoint.load_checkpoint(ws.ckpt("finetuned_completion"))
        model = pipeline.model_from_checkpoint(ws, params, manifest)
        tests = {"completion": ds.comp_test, "alignment": ds.align_test}
        return _check_reports(check, model, ds.mlkg, vocab, reports, tests, self.seed)

    def cleanup(self, ws) -> None:
        shutil.rmtree(ws.root, ignore_errors=True)


class PretrainLargeVocab:
    """MLM pretraining alone at a vocabulary about 8x the desk one."""

    name = "pretrain_large_vocab"
    entities = 2000
    steps = 50
    expects = ([f"autodiff.{op}.fwd_calls" for op in OPS if op not in ("concat", "split")]
               + ["autodiff.backward.calls", "autodiff.grad_eval.calls",
                  "encoder.encode.calls", "encoder.pad_batch.calls", "encoder.mlm_loss.calls",
                  "optim.adam_step.calls", "synthetic.gen.calls",
                  "train.pretrain.step_ms.samples"])

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self):
        ds = synthetic.gen_synthetic(synthetic.SyntheticConfig(entities=self.entities, seed=self.seed))
        vocab = build_vocab(synthetic.vocab_corpus(ds))
        config = encoder.EncoderConfig(vocab_size=len(vocab), **pipeline.PipelineConfig(out_dir="").encoder)
        hyper = dataclasses.replace(pipeline.PROFILES["desk"]["pretrain"], steps=self.steps)
        return ds, vocab, config, hyper

    def work(self, state):
        ds, vocab, config, hyper = state
        return encoder.mlm_pretrain(ds.mlm_corpus, config, hyper, self.seed, vocab)

    def outcome(self, state, result, wall_s: float) -> Outcome:
        params, curve = result
        _, _, _, hyper = state
        losses = [loss for _, _, loss in curve]
        return Outcome(fingerprint=params.checksum() + json.dumps(losses),
                       steps=len(losses), stages=1, nonfinite_losses=_nonfinite(losses),
                       train_examples=len(losses) * hyper.batch_size, train_s=wall_s,
                       final_loss=_mean_last(losses))

    def check(self, state, result) -> Check:
        return Check()      # finite losses and repeatable checksums are checked by run.py

    def cleanup(self, state) -> None:
        pass


class RetrievalScale:
    """Evaluation only, on an untrained fused model over 5000 entities.

    Both tasks are tested in one language, the first that both test, so that
    a repetition (two `embed_labels` calls of 5000 labels each, one per task)
    is short enough for several to fit in one run.
    """

    name = "retrieval_scale"
    entities = 5000
    queries_per_language = 150
    expects = ([f"autodiff.{op}.fwd_calls" for op in OPS if op != "log_softmax"]
               + ["encoder.encode.calls", "encoder.pad_batch.calls",
                  "adapters.adapter_apply.calls", "adapters.fusion_apply.calls",
                  "params.copy.calls", "synthetic.gen.calls",
                  "evaluation.embed_labels.calls", "evaluation.rank.calls",
                  "evaluation.gold_rank.calls", "evaluation.eval_completion.calls",
                  "evaluation.eval_alignment.calls"])

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self):
        ds = synthetic.gen_synthetic(synthetic.SyntheticConfig(entities=self.entities, seed=self.seed))
        lang = min(ds.comp_test.keys() & ds.align_test.keys())
        cap = self.queries_per_language
        tests = {"completion": {lang: ds.comp_test[lang][:cap]},
                 "alignment": {lang: ds.align_test[lang][:cap]}}
        vocab = build_vocab(synthetic.vocab_corpus(ds))
        config = encoder.EncoderConfig(vocab_size=len(vocab), **pipeline.PipelineConfig(out_dir="").encoder)
        backbone = encoder.init_encoder_params(config, np.random.default_rng(self.seed))
        adapted = adapters.insert_adapters(backbone, list(adapters.KINDS), 8, self.seed + 1, config)
        model = adapters.init_fusion(adapted, self.seed + 2).with_mode("fusion")
        return ds, tests, vocab, model

    def work(self, state):
        # called the way stage_eval calls them: no candidate index shared
        ds, tests, vocab, model = state
        return {"completion": evaluation.eval_completion(model, ds.mlkg, tests["completion"], vocab, k=10),
                "alignment": evaluation.eval_alignment(model, ds.mlkg, tests["alignment"], vocab, k=10)}

    def outcome(self, state, reports, wall_s: float) -> Outcome:
        return Outcome(fingerprint=_reports_fingerprint(reports),
                       queries=sum(r.overall().n for r in reports.values()),
                       stages=len(reports), eval_s=wall_s,
                       eval_mrr=statistics.fmean(r.overall().mrr for r in reports.values()),
                       eval_hit1=statistics.fmean(r.overall().hit1 for r in reports.values()))

    def check(self, state, reports) -> Check:
        ds, tests, vocab, model = state
        return _check_reports(Check(), model, ds.mlkg, vocab, reports, tests, self.seed)

    def cleanup(self, state) -> None:
        pass


WORKLOADS = {w.name: w for w in (DeskPipeline, PretrainLargeVocab, RetrievalScale)}
