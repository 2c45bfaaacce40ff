"""Adam, the linear warmup schedule, and the one training loop.

Every training stage (MLM pretraining, adapter integration, fusion and
full finetuning) runs through `train`: the stages differ only in which
parameter groups train and which batches the loss sees.
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


@dataclass
class AdamState:
    """First/second moment buffers per trainable parameter plus a step count."""

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: ParamSet) -> AdamState:
    state = AdamState()
    for name in params.trainable_names():
        arr = params.get(name)
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(params: ParamSet, grads: dict[str, np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> tuple[ParamSet, AdamState]:
    """One Adam update over the trainable parameters, in place.

    Only trainable parameters change; the step counter increments by one.
    A trainable parameter without a gradient entry is an error.
    """
    trainable = params.trainable_names()
    missing = [n for n in trainable if n not in grads]
    if missing:
        raise KeyError(f"adam_step: missing gradients for {missing}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name in trainable:
        g = grads[name]
        p = params.get(name)
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        mhat = m / p.dtype.type(bc1)
        vhat = v / p.dtype.type(bc2)
        upd = p - p.dtype.type(lr) * mhat / (np.sqrt(vhat) + p.dtype.type(eps))
        if not np.isfinite(upd).all():
            raise FloatingPointError(f"adam_step: non-finite update for {name!r}")
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
          loss_at: Callable[[int], LossFn], hyper: TrainHyper
          ) -> list[tuple[int, float, float]]:
    """Adam with linear warmup over only `train_groups`, in place.

    Parameters whose names start with a listed prefix are trainable; every
    other parameter is frozen and checksum-verified after the last step.
    `loss_at(step)` draws the step's batch and returns its loss closure.
    Returns the curve as (step, lr, loss) rows.
    """
    params.set_trainable("", False)
    for g in train_groups:
        params.set_trainable(g, True)
    if not params.trainable_names():
        raise ConfigError(f"no parameters match train groups {list(train_groups)}")
    frozen = {n: params.checksum(n) for n in params if not params.is_trainable(n)}

    state = init_adam(params)
    curve = []
    for step in range(1, hyper.steps + 1):
        loss, grads = ad.grad_eval(loss_at(step), params)
        lr = warmup_lr(step, hyper.base_lr, hyper.warmup_steps)
        adam_step(params, grads, state, lr)
        curve.append((step, lr, loss))

    for n, before in frozen.items():
        if params.checksum(n) != before:
            raise ContractViolation(f"frozen parameter {n!r} changed during training")
    return curve
