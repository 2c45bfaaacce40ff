"""Adam, the linear warmup schedule, and the one training loop.

Every training stage (MLM pretraining, adapter integration, fusion and
full finetuning) runs through `train`: the stages differ only in which
parameter groups they name and which batches the loss sees. `train` is the
only code that turns group prefixes into the parameters that train; it
hands those names to `autodiff.grad_eval`, and `adam_step` updates exactly
the parameters its gradients name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractViolation
from .hyper import TrainHyper
from .params import ParamSet

LossFn = Callable[[Mapping[str, ad.Tensor]], ad.Tensor]

_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment buffers per trained parameter plus a step count;
    a parameter's buffers are created at its first update."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> tuple[ParamSet, AdamState]:
    """One Adam update, in place, of exactly the parameters `grads` names.

    Every other parameter is left alone; the step counter increments by one.
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
        # p - lr (m/bc1) / (sqrt(v/bc2) + eps), m = b1 m + (1-b1) g and
        # v = b2 v + (1-b2) g^2, in two buffers; the operation order below is
        # the one these expressions are written in, which fixes the rounding
        tmp = np.multiply(g, 1.0 - _BETA1)
        m *= _BETA1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - _BETA2
        v *= _BETA2
        v += tmp
        upd = np.divide(m, p.dtype.type(bc1))
        upd *= p.dtype.type(lr)
        np.divide(v, p.dtype.type(bc2), out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += p.dtype.type(_ADAM_EPS)
        upd /= tmp
        np.subtract(p, upd, out=upd)
        if not np.isfinite(upd).all():
            raise ad.NumericError(f"adam_step: non-finite update for {name!r}")
        params.set_data(name, upd)
    return params, state


def warmup_lr(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear ramp from 0 to base_lr over warmup_steps, constant afterwards."""
    if warmup_steps < 1:
        raise ValueError(f"warmup_steps must be >= 1, got {warmup_steps}")
    if step < 0:
        raise ValueError(f"step must be >= 0, got {step}")
    return base_lr * min(1.0, step / warmup_steps)


def train(params: ParamSet, train_groups: Sequence[str],
          loss_at: Callable[[], LossFn], hyper: TrainHyper
          ) -> list[tuple[int, float, float]]:
    """Adam with linear warmup over only `train_groups`, in place.

    Parameters whose names start with a listed prefix train; every other
    parameter is frozen and checksum-verified after the last step.
    `loss_at()`, called once per step, draws the step's batch and returns
    its loss closure.
    Returns the curve as (step, lr, loss) rows.
    """
    trainable = [n for n in params if n.startswith(tuple(train_groups))]
    if not trainable:
        raise ConfigError(f"no parameters match train groups {list(train_groups)}")
    frozen = {n: params.checksum(n) for n in params if n not in trainable}

    state = AdamState()
    curve = []
    for step in range(1, hyper.steps + 1):
        loss, grads = ad.grad_eval(loss_at(), params, trainable)
        lr = warmup_lr(step, hyper.base_lr, hyper.warmup_steps)
        adam_step(params, grads, state, lr)
        curve.append((step, lr, loss))

    for n, before in frozen.items():
        if params.checksum(n) != before:
            raise ContractViolation(f"frozen parameter {n!r} changed during training")
    return curve
