"""The training hyperparameters, Adam, the linear warmup schedule, the one
training loop and the one frozen check.

Every training stage (MLM pretraining, adapter integration, fusion and
full finetuning) runs through `train`: the stages differ only in the one
group prefix they train and the batches the loss sees. `train` is the only
code that turns a prefix into the parameters that train; it hands those
names to `autodiff.grad_eval`, and `adam_step` updates exactly the
parameters its gradients name. `frozen` is the one check that parameters
stay fixed, for every parameter outside the prefix in `train` and for the
whole model in `pipeline.evaluate`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractViolation, check_fields
from .params import ParamSet

LossFn = Callable[[Mapping[str, ad.Tensor]], ad.Tensor]

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8

# adam_step walks a parameter in blocks of whole rows of about this many
# elements, one block when it has fewer, so that a block's parameter,
# gradient, moments, scratch and output (6 x 256 KB at float32) stay in L2
# across its 15 array passes. On a 2-CPU Xeon with 2 MiB of L2 a core, the 50
# steps of pretrain_large_vocab (an 18263 x 64 token table) spent 285-330 ms
# in adam_step at 1 << 16, about as much at 1 << 15 and 1 << 17, and 347-426
# ms in one pass; at 1 << 12 the per-block calls make a step slower than one
# pass.
_BLOCK = 1 << 16


@dataclass
class TrainHyper:
    """The training hyperparameters a profile sets per stage; seeds are trainer arguments."""

    batch_size: int = 128
    steps: int = 0
    epochs: int = 0
    base_lr: float = 1e-4
    warmup_steps: int = 10_000

    def __post_init__(self):
        check_fields(self, {"batch_size": 1, "steps": 0, "epochs": 0, "warmup_steps": 1})
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")


@dataclass
class AdamState:
    """First/second moment buffers per trained parameter plus a step count;
    a parameter's buffers are created at its first update."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def _adam_update(p, g, m, v, out, tmp, bc1, bc2, lr, eps) -> bool:
    """Write Adam's new parameter into `out` and move `m` and `v` in place,
    with `tmp` as scratch; True when every new value is finite.

    p - lr (m/bc1) / (sqrt(v/bc2) + eps), m = b1 m + (1-b1) g and
    v = b2 v + (1-b2) g^2: the operation order below is the one these
    expressions are written in, which fixes the rounding.
    """
    np.multiply(g, 1.0 - _BETA1, out=tmp)
    m *= _BETA1
    m += tmp
    np.multiply(g, g, out=tmp)
    tmp *= 1.0 - _BETA2
    v *= _BETA2
    v += tmp
    np.divide(m, bc1, out=out)
    out *= lr
    np.divide(v, bc2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    out /= tmp
    np.subtract(p, out, out=out)
    return np.isfinite(out).all()


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> tuple[ParamSet, AdamState]:
    """One Adam update of exactly the parameters `grads` names.

    Each named parameter is rebound to a new C-ordered array, and its moment
    buffers in `state` move in place. A non-finite new value raises
    `NumericError` naming the parameter, which keeps its old array; the
    moments of the blocks walked until then have moved. Every other parameter
    is left alone; the step counter increments by one.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, g in grads.items():
        p = params.get(name)
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        cast = p.dtype.type
        scalars = cast(bc1), cast(bc2), cast(lr), cast(_ADAM_EPS)
        out = np.empty(p.shape, p.dtype)
        rows = min(len(p), max(1, _BLOCK // (p.size // len(p))))
        tmp = np.empty((rows,) + p.shape[1:], g.dtype)
        spans = (slice(i, i + rows) for i in range(0, len(p), rows))
        finite = all(_adam_update(p[s], g[s], m[s], v[s], out[s], tmp[:len(out[s])], *scalars)
                     for s in spans)
        if not finite:
            raise ad.NumericError(f"adam_step: non-finite update for {name!r}")
        params.set_data(name, out)
    return params, state


def warmup_lr(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear ramp from 0 to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps < 1:
        raise ValueError(f"warmup_steps must be >= 1, got {warmup_steps}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return base_lr * min(1.0, step / warmup_steps)


@contextmanager
def frozen(params: ParamSet, names: Iterable[str], during: str) -> Iterator[None]:
    """Hold the parameters `names` of `params` fixed across the block: one
    whose checksum differs at the block's end raises `ContractViolation`
    naming it."""
    before = {n: params.checksum(n) for n in names}
    yield
    for n, digest in before.items():
        if params.checksum(n) != digest:
            raise ContractViolation(f"frozen parameter {n!r} changed during {during}")


def train(params: ParamSet, prefix: str, loss_at: Callable[[], LossFn],
          hyper: TrainHyper) -> list[tuple[int, float, float]]:
    """Adam with linear warmup over the parameters named `prefix...`, in place.

    Every other parameter is `frozen` across the loop. `loss_at()`, called
    once per step, draws the step's batch and returns its loss closure.
    Returns the curve as (step, lr, loss) rows.
    """
    trainable = params.names(prefix)
    if not trainable:
        raise ConfigError(f"no parameters match train group {prefix!r}")
    state = AdamState()
    curve = []
    with frozen(params, [n for n in params if not n.startswith(prefix)], "training"):
        for step in range(1, hyper.steps + 1):
            loss, grads = ad.grad_eval(loss_at(), params, trainable)
            lr = warmup_lr(step, hyper.base_lr, hyper.warmup_steps)
            adam_step(params, grads, state, lr)
            curve.append((step, lr, loss))
    return curve
