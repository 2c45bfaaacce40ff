"""Per-layer tracing of kgadapters from outside the program.

`Tracer.install()` replaces the public functions of every layer with timing
and counting wrappers, at every place the name is looked up: a function that
other modules bind with `from ... import` is replaced in each of them, and
methods are replaced on their class. `uninstall()` puts the originals back.
Backward time is charged to the op that created a node by wrapping the
node's `_backward`. Nothing under `src/` is changed.

Counters (`Tracer.counters()`) are exact and must repeat between two traced
runs of the same inputs; times are wall-clock milliseconds.
"""

from __future__ import annotations

import math
import os
import sys
from collections import defaultdict
from time import perf_counter

from kgadapters import (adapters, autodiff, checkpoint, encoder, evaluation,
                        objectives, optim, params, pipeline, synthetic)

OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax", "log_softmax",
       "gather", "tsum", "concat", "split")
STAGES = ("gen-synthetic", "pretrain", "integrate", "fuse", "finetune", "eval")
TRAIN_KINDS = ("pretrain", "integrate", "fuse", "finetune")
SAMPLERS = {"sample_ep_batch": "EP", "sample_tp_batch": "TP",
            "sample_es_batch": "ES", "sample_ts_batch": "TS"}


def _per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for op in OPS:
        spec += [(f"autodiff.{op}.fwd_calls", "count", "lower"),
                 (f"autodiff.{op}.fwd_ms", "ms", "lower"),
                 (f"autodiff.{op}.bwd_ms", "ms", "lower")]
    spec += [("autodiff.matmul.flops", "flop", "lower"),
             ("autodiff.matmul.bwd_frozen_operand_grads", "count", "lower"),
             ("autodiff.gather.bwd_frozen_tables", "count", "lower"),
             ("autodiff.backward.ms", "ms", "lower"),
             ("autodiff.grad_eval.ms", "ms", "lower"),
             ("encoder.encode.calls", "count", "lower"),
             ("encoder.encode.fwd_ms", "ms", "lower"),
             ("encoder.rows", "count", "lower"),
             ("encoder.real_tokens", "count", "lower"),
             ("encoder.padded_slots", "count", "lower"),
             ("encoder.pad_share", "ratio", "lower"),
             ("encoder.pad_batch.ms", "ms", "lower"),
             ("encoder.mlm_loss.fwd_ms", "ms", "lower")]
    for fn in ("adapter_apply", "fusion_apply"):
        spec += [(f"adapters.{fn}.calls", "count", "lower"),
                 (f"adapters.{fn}.fwd_ms", "ms", "lower"),
                 (f"adapters.{fn}.bwd_ms", "ms", "lower")]
    spec += [(f"objectives.sampler.{kind}.ms", "ms", "lower") for kind in SAMPLERS.values()]
    spec += [("objectives.ts_ingest.calls", "count", "lower"),
             ("objectives.ep_pair_universe.calls", "count", "lower"),
             ("objectives.encode_pair_batch.ms", "ms", "lower"),
             ("objectives.infonce.ms", "ms", "lower"),
             ("optim.adam_step.calls", "count", "lower"),
             ("optim.adam_step.ms", "ms", "lower"),
             ("optim.adam_step.elements", "count", "lower"),
             ("params.checksum.calls", "count", "lower"),
             ("params.checksum.ms", "ms", "lower"),
             ("params.checksum.bytes", "B", "lower"),
             ("params.copy.calls", "count", "lower"),
             ("params.copy.ms", "ms", "lower"),
             ("checkpoint.save.ms", "ms", "lower"),
             ("checkpoint.save.bytes", "B", "lower"),
             ("checkpoint.load.calls", "count", "lower"),
             ("checkpoint.load.ms", "ms", "lower"),
             ("synthetic.gen.ms", "ms", "lower"),
             ("synthetic.save_dataset.ms", "ms", "lower"),
             ("synthetic.load_dataset.calls", "count", "lower"),
             ("synthetic.load_dataset.ms", "ms", "lower")]
    spec += [(f"pipeline.stage.{stage}.ms", "ms", "lower") for stage in STAGES]
    spec += [("pipeline.runlog.record.calls", "count", "lower"),
             ("pipeline.runlog.record.ms", "ms", "lower"),
             ("evaluation.embed_labels.calls", "count", "lower"),
             ("evaluation.embed_labels.rows", "count", "lower"),
             ("evaluation.embed_labels.ms", "ms", "lower"),
             ("evaluation.embed_labels.distinct_share", "ratio", "higher"),
             ("evaluation.rank.calls", "count", "lower"),
             ("evaluation.rank.ms_p50", "ms", "lower"),
             ("evaluation.gold_rank.ms", "ms", "lower"),
             ("evaluation.query_encode.ms", "ms", "lower")]
    for kind in TRAIN_KINDS:
        spec += [(f"train.{kind}.step_ms.p50", "ms", "lower"),
                 (f"train.{kind}.step_ms.p95", "ms", "lower"),
                 (f"train.{kind}.steps", "count", "higher")]
    # filled in by run.py from the traced and untraced repetitions
    spec += [("bench.untraced_rep_s", "s", "lower"),
             ("bench.traced_rep_s", "s", "lower"),
             ("bench.trace_overhead_s", "s", "lower"),
             ("bench.trace_overhead_share", "ratio", "lower"),
             ("bench.counter_mismatches", "count", "lower")]
    return spec


PER_LAYER = _per_layer_spec()


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _needs_grad(t) -> bool:
    return t.requires_grad or bool(t._parents)


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Counters and timers for one traced repetition of a workload."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.embed_keys: set[tuple[str, str]] = set()
        self._undo: list[tuple[object, str, object]] = []
        # call-context state read by the wrappers
        self._adapter_scope: str | None = None
        self._stage: str | None = None
        self._train_kind: str | None = None
        self._step_mark: float | None = None
        self._eval_depth = 0
        self._embed_depth = 0
        self._original_checksum = params.ParamSet.checksum

    # -- patching ---------------------------------------------------------

    def _replace(self, module, name: str, make_wrapper) -> None:
        """Bind a wrapper of module.name wherever a kgadapters module binds it."""
        if not hasattr(module, name):
            raise LookupError(f"{module.__name__}.{name} is gone: the layer moved, "
                              f"update perfbench/tracer.py")
        original = getattr(module, name)
        wrapper = make_wrapper(original)
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "kgadapters" or n.startswith("kgadapters."))]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _replace_method(self, cls, name: str, make_wrapper) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, make_wrapper(original))
        self._undo.append((cls, name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _timed(self, key: str, suffix: str = ".ms", after=None):
        """Wrapper factory: add call count and inclusive time under key."""
        counts, ms = self.counts, self.ms

        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key + ".calls"] += 1
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    ms[key + suffix] += (perf_counter() - t0) * 1e3
                if after is not None:
                    after(out, args, kwargs)
                return out
            return wrapper
        return make

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for op in OPS:
            self._replace(autodiff, op, lambda fn, op=op: self._op_wrapper(op, fn))
        self._replace_method(autodiff.Tensor, "backward", self._timed("autodiff.backward"))
        self._replace(autodiff, "grad_eval", self._timed("autodiff.grad_eval"))

        self._replace(encoder, "encode", self._encode_wrapper)
        self._replace(encoder, "pad_batch", self._timed("encoder.pad_batch"))
        self._replace(encoder, "mlm_loss", self._timed("encoder.mlm_loss", suffix=".fwd_ms"))
        for fn in ("adapter_apply", "fusion_apply"):
            self._replace(adapters, fn,
                          lambda f, fn=fn: self._adapter_wrapper(fn, f))

        for fn, kind in SAMPLERS.items():
            self._replace(objectives, fn, self._timed(f"objectives.sampler.{kind}"))
        self._replace(objectives, "ts_ingest", self._timed("objectives.ts_ingest"))
        self._replace(objectives, "ep_pair_universe", self._timed("objectives.ep_pair_universe"))
        self._replace(objectives, "encode_pair_batch", self._timed("objectives.encode_pair_batch"))
        self._replace(objectives, "infonce", self._timed("objectives.infonce"))

        self._replace(optim, "adam_step", self._adam_wrapper)
        self._replace(encoder, "mlm_pretrain", lambda f: self._train_wrapper(lambda: "pretrain", f))
        self._replace(objectives, "train_adapter", lambda f: self._train_wrapper(lambda: "integrate", f))
        self._replace(evaluation, "finetune_contrastive", lambda f: self._train_wrapper(
            lambda: "fuse" if self._stage == "fuse" else "finetune", f))

        self._replace_method(params.ParamSet, "checksum", self._checksum_wrapper)
        self._replace_method(params.ParamSet, "copy", self._timed("params.copy"))
        self._replace(checkpoint, "save_checkpoint", self._timed(
            "checkpoint.save", after=lambda out, a, k: self._add(
                "checkpoint.save.bytes", os.path.getsize(_arg(a, k, 0, "path")))))
        self._replace(checkpoint, "load_checkpoint", self._timed("checkpoint.load"))
        self._replace(synthetic, "gen_synthetic", self._timed("synthetic.gen"))
        self._replace(synthetic, "save_dataset", self._timed("synthetic.save_dataset"))
        self._replace(synthetic, "load_dataset", self._timed("synthetic.load_dataset"))
        self._replace(pipeline, "run_stage", self._stage_wrapper)
        self._replace_method(pipeline.RunLog, "record", self._timed("pipeline.runlog.record"))

        self._replace(evaluation, "embed_labels", self._embed_wrapper)
        self._replace(evaluation, "rank", self._rank_wrapper)
        self._replace(evaluation, "gold_rank", self._timed("evaluation.gold_rank"))
        for fn in ("eval_completion", "eval_alignment"):
            self._replace(evaluation, fn, self._eval_wrapper)

    def _add(self, key: str, n: int) -> None:
        self.counts[key] += int(n)

    # -- wrappers with per-layer quantities --------------------------------

    def _op_wrapper(self, op: str, fn):
        counts, ms = self.counts, self.ms

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            ms[f"autodiff.{op}.fwd_ms"] += (perf_counter() - t0) * 1e3
            counts[f"autodiff.{op}.fwd_calls"] += 1
            if op == "matmul":
                counts["autodiff.matmul.flops"] += 2 * out.data.size * args[0].shape[-1]
            scope = self._adapter_scope
            for node in (out if isinstance(out, list) else (out,)):
                if node._backward is not None:
                    node._backward = self._backward_wrapper(op, node, scope)
            return out
        return wrapper

    def _backward_wrapper(self, op: str, node, scope: str | None):
        inner, parents = node._backward, node._parents
        counts, ms = self.counts, self.ms

        def backward(g):
            t0 = perf_counter()
            inner(g)
            dt = (perf_counter() - t0) * 1e3
            ms[f"autodiff.{op}.bwd_ms"] += dt
            if scope is not None:
                ms[f"adapters.{scope}.bwd_ms"] += dt
            if op == "matmul":
                counts["autodiff.matmul.bwd_frozen_operand_grads"] += sum(
                    1 for p in parents if not _needs_grad(p))
            elif op == "gather" and not _needs_grad(parents[0]):
                counts["autodiff.gather.bwd_frozen_tables"] += 1
        return backward

    def _encode_wrapper(self, fn):
        counts, ms = self.counts, self.ms

        def wrapper(*args, **kwargs):
            ids = _arg(args, kwargs, 1, "ids")
            mask = _arg(args, kwargs, 2, "mask")
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = (perf_counter() - t0) * 1e3
            ms["encoder.encode.fwd_ms"] += dt
            if self._eval_depth and not self._embed_depth:
                ms["evaluation.query_encode.ms"] += dt
            real = int(mask.sum())
            counts["encoder.encode.calls"] += 1
            counts["encoder.rows"] += ids.shape[0]
            counts["encoder.real_tokens"] += real
            counts["encoder.padded_slots"] += ids.size - real
            return out
        return wrapper

    def _adapter_wrapper(self, name: str, fn):
        counts, ms = self.counts, self.ms

        def wrapper(*args, **kwargs):
            outer, self._adapter_scope = self._adapter_scope, name
            counts[f"adapters.{name}.calls"] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[f"adapters.{name}.fwd_ms"] += (perf_counter() - t0) * 1e3
                self._adapter_scope = outer
        return wrapper

    def _adam_wrapper(self, fn):
        counts, ms = self.counts, self.ms

        def wrapper(*args, **kwargs):
            grads = _arg(args, kwargs, 1, "grads")
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            now = perf_counter()
            ms["optim.adam_step.ms"] += (now - t0) * 1e3
            counts["optim.adam_step.calls"] += 1
            counts["optim.adam_step.elements"] += sum(g.size for g in grads.values())
            # a training step runs from one adam_step return to the next; the
            # first step of a loop also holds the loop's set-up and is skipped
            if self._train_kind is not None:
                if self._step_mark is not None:
                    self.samples[f"train.{self._train_kind}.step_ms"].append(
                        (now - self._step_mark) * 1e3)
                self._step_mark = perf_counter()
            return out
        return wrapper

    def _train_wrapper(self, kind_of, fn):
        def wrapper(*args, **kwargs):
            saved = self._train_kind, self._step_mark
            self._train_kind, self._step_mark = kind_of(), None
            try:
                return fn(*args, **kwargs)
            finally:
                self._train_kind, self._step_mark = saved
        return wrapper

    def _checksum_wrapper(self, fn):
        counts, ms = self.counts, self.ms

        def wrapper(pset, prefix: str = ""):
            counts["params.checksum.calls"] += 1
            counts["params.checksum.bytes"] += sum(pset.get(n).nbytes for n in pset.names(prefix))
            t0 = perf_counter()
            try:
                return fn(pset, prefix)
            finally:
                ms["params.checksum.ms"] += (perf_counter() - t0) * 1e3
        return wrapper

    def _stage_wrapper(self, fn):
        ms = self.ms

        def wrapper(*args, **kwargs):
            stage = _arg(args, kwargs, 1, "stage")
            outer, self._stage = self._stage, stage
            self.counts[f"pipeline.stage.{stage}.calls"] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms[f"pipeline.stage.{stage}.ms"] += (perf_counter() - t0) * 1e3
                self._stage = outer
        return wrapper

    def _embed_wrapper(self, fn):
        counts, ms = self.counts, self.ms

        def wrapper(*args, **kwargs):
            adapted = _arg(args, kwargs, 0, "adapted")
            lang = _arg(args, kwargs, 2, "lang")
            self.embed_keys.add((self._original_checksum(adapted.params), lang))
            self._embed_depth += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ms["evaluation.embed_labels.ms"] += (perf_counter() - t0) * 1e3
                self._embed_depth -= 1
            counts["evaluation.embed_labels.calls"] += 1
            counts["evaluation.embed_labels.rows"] += len(out.entity_ids)
            return out
        return wrapper

    def _rank_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.samples["evaluation.rank.ms"].append((perf_counter() - t0) * 1e3)
            self.counts["evaluation.rank.calls"] += 1
            return out
        return wrapper

    def _eval_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.counts[f"evaluation.{fn.__name__}.calls"] += 1
            self._eval_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._eval_depth -= 1
        return wrapper

    # -- results -----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Exact counts; two traced runs of the same inputs must agree on all."""
        out = dict(self.counts)
        out["evaluation.embed_labels.distinct"] = len(self.embed_keys)
        for key, values in self.samples.items():
            out[key + ".samples"] = len(values)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER except the bench.* ones."""
        values: dict[str, float] = {**self.ms, **self.counts}
        slots = self.counts["encoder.real_tokens"] + self.counts["encoder.padded_slots"]
        values["encoder.pad_share"] = self.counts["encoder.padded_slots"] / slots if slots else 0.0
        calls = self.counts["evaluation.embed_labels.calls"]
        values["evaluation.embed_labels.distinct_share"] = (
            len(self.embed_keys) / calls if calls else 0.0)
        values["evaluation.rank.ms_p50"] = _nearest_rank(self.samples["evaluation.rank.ms"], 0.5)
        for kind in TRAIN_KINDS:
            steps = self.samples[f"train.{kind}.step_ms"]
            values[f"train.{kind}.step_ms.p50"] = _nearest_rank(steps, 0.5)
            values[f"train.{kind}.step_ms.p95"] = _nearest_rank(steps, 0.95)
            values[f"train.{kind}.steps"] = len(steps)
        return {name: float(values.get(name, 0.0)) for name, _, _ in PER_LAYER
                if not name.startswith("bench.")}
