"""Bottleneck adapters, attention fusion over adapter outputs, and the width
of the LARGE adapter sized to their parameter budget.

An adapter at layer m computes h + W_up . gelu(W_down . h + b_down) + b_up
(residual added so a zero up-projection is the exact identity). The fusion
layer scores the identity path and every adapter output against the input
with a bilinear form <hQ, A_n(h)K>, softmaxes the scores, mixes the paths
first and then projects the mix with V once. Parameters are shared across
token positions within a layer. Checkpoint tensor names follow
adapter.<kind>.<layer>.<matrix> and fusion.<layer>.<Q|K|V>, and a model's
adapter kinds and mode are read from them: fused with fusion parameters,
single with one adapter, none otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import AdapterHook, EncoderConfig
from .params import ParamSet

KINDS = ("EP", "TP", "ES", "TS")
LARGE = "LARGE"

W_UP_INIT_STD = 1e-4
FUSION_QK_INIT_STD = 1e-3
FUSION_V_NOISE_STD = 1e-3


@dataclass
class AdaptedEncoder:
    """Backbone plus adapters and optional fusion parameters; an adapter's
    bottleneck is the width of its W_down."""

    config: EncoderConfig
    params: ParamSet

    @property
    def kinds(self) -> list[str]:
        """The `adapter.<kind>.` groups present, in KINDS order and then LARGE."""
        present = {n.split(".", 2)[1] for n in self.params.names("adapter.")}
        return [k for k in (*KINDS, LARGE) if k in present]

    @property
    def has_fusion(self) -> bool:
        return bool(self.params.names("fusion."))

    @property
    def mode(self) -> str:
        if self.has_fusion:
            return "fusion"
        return "single" if len(self.kinds) == 1 else "none"

    def with_mode(self, mode: str) -> "AdaptedEncoder":
        """This model, if its parameters give it `mode`."""
        if mode != self.mode:
            raise ValueError(f"model runs in {self.mode!r} mode, not {mode!r}")
        return self


def _init_adapter(params: ParamSet, kind: str, config: EncoderConfig,
                  bottleneck: int, rng: np.random.Generator) -> None:
    if bottleneck < 1:
        raise ValueError(f"bottleneck must be >= 1, got {bottleneck}")
    d = config.d_model
    for m in range(config.layers):
        pre = f"adapter.{kind}.{m}"
        params.add(f"{pre}.W_down", (rng.standard_normal((d, bottleneck)) * 0.02).astype(np.float32))
        params.add(f"{pre}.b_down", np.zeros(bottleneck, dtype=np.float32))
        params.add(f"{pre}.W_up", (rng.standard_normal((bottleneck, d)) * W_UP_INIT_STD).astype(np.float32))
        params.add(f"{pre}.b_up", np.zeros(d, dtype=np.float32))


def insert_adapters(backbone: ParamSet, kinds: list[str], bottleneck: int,
                    seed: int, config: EncoderConfig) -> AdaptedEncoder:
    """Attach one freshly initialized adapter per kind to a copy of the backbone."""
    if not kinds:
        raise ValueError("insert_adapters: kinds must be non-empty")
    params = backbone.copy()
    rng = np.random.default_rng(seed)
    for kind in kinds:
        _init_adapter(params, kind, config, bottleneck, rng)
    return AdaptedEncoder(config, params)


def init_fusion(adapted: AdaptedEncoder, seed: int) -> AdaptedEncoder:
    """Add per-layer Q/K/V fusion parameters; V starts near the identity."""
    if not adapted.kinds:
        raise ValueError("init_fusion: no adapters inserted")
    if adapted.has_fusion:
        raise ValueError("init_fusion: fusion parameters already present")
    d = adapted.config.d_model
    rng = np.random.default_rng(seed)
    params = adapted.params.copy()
    for m in range(adapted.config.layers):
        pre = f"fusion.{m}"
        params.add(f"{pre}.Q", (rng.standard_normal((d, d)) * FUSION_QK_INIT_STD).astype(np.float32))
        params.add(f"{pre}.K", (rng.standard_normal((d, d)) * FUSION_QK_INIT_STD).astype(np.float32))
        v = np.eye(d) + rng.standard_normal((d, d)) * FUSION_V_NOISE_STD
        params.add(f"{pre}.V", v.astype(np.float32))
    return replace(adapted, params=params)


# ---------------------------------------------------------------------------
# forward passes (graph ops)
# ---------------------------------------------------------------------------

def adapter_apply(x: Tensor, leaves: dict[str, Tensor], kind: str, layer: int) -> Tensor:
    """Residual bottleneck transform of [..., d] states at one layer."""
    pre = f"adapter.{kind}.{layer}"
    z = ad.gelu(ad.add(ad.matmul(x, leaves[f"{pre}.W_down"]), leaves[f"{pre}.b_down"]))
    return ad.add(x, ad.add(ad.matmul(z, leaves[f"{pre}.W_up"]), leaves[f"{pre}.b_up"]))


def fusion_apply(x: Tensor, outputs: list[Tensor], leaves: dict[str, Tensor],
                 layer: int) -> tuple[Tensor, Tensor]:
    """Attention over [identity] + adapter outputs; returns (mixed, weights).

    The N+1 paths A_0(x) = x, A_n(x) stack to [..., N+1, d]. Scores are
    <xQ, A_n(x)K> = <xQK^T, A_n(x)>, so K folds into the query; weights
    softmax over the paths; the mix is sum_n a_n (A_n(x) V) = (sum_n a_n
    A_n(x)) V, so V projects it once.
    """
    pre = f"fusion.{layer}"
    lead, d = x.shape[:-1], x.shape[-1]
    paths = ad.reshape(ad.concat([x, *outputs], axis=-1), lead + (len(outputs) + 1, d))
    u = ad.matmul(ad.matmul(x, leaves[f"{pre}.Q"]), ad.swapaxes(leaves[f"{pre}.K"], 0, 1))
    a = ad.softmax(ad.tsum(ad.mul(paths, ad.reshape(u, lead + (1, d))), axis=-1), axis=-1)
    mixed = ad.tsum(ad.mul(ad.reshape(a, a.shape + (1,)), paths), axis=-2)
    return ad.matmul(mixed, leaves[f"{pre}.V"]), a


def build_hook(adapted: AdaptedEncoder, leaves: dict[str, Tensor],
               fusion_record: dict[int, np.ndarray] | None = None) -> AdapterHook | None:
    """Adapter hook for encode() according to the model's mode.

    The hook sees the [N, d] packed rows of `encode`, so `fusion_record[layer]`
    holds [N, paths] fusion weights, one row per real token in row-major order
    of the batch's mask (plus the carried PAD row of a one-token batch).
    """
    mode, kinds = adapted.mode, adapted.kinds
    if mode == "none":
        return None
    if mode == "single":
        kind, = kinds

        def single_hook(x: Tensor, layer: int) -> Tensor:
            return adapter_apply(x, leaves, kind, layer)

        return single_hook

    def fusion_hook(x: Tensor, layer: int) -> Tensor:
        outputs = [adapter_apply(x, leaves, kind, layer) for kind in kinds]
        mixed, a = fusion_apply(x, outputs, leaves, layer)
        if fusion_record is not None:
            fusion_record[layer] = a.data.copy()
        return mixed

    return fusion_hook


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def large_bottleneck(config: EncoderConfig, n_adapters: int, bottleneck: int) -> int:
    """Largest width b' of one adapter whose parameters fit the budget of
    n_adapters adapters of width b plus fusion.

    An adapter has L*(2*d*b + b + d) parameters (W_down, b_down, W_up, b_up
    at each of L layers) and fusion L*3*d*d (Q, K, V). Every term carries the
    factor L, so L cancels from L*(2*d*b' + b' + d) <= n*L*(2*d*b + b + d) +
    3*L*d*d and b' = (n*(2*d*b + b + d) + 3*d*d - d) // (2*d + 1), which is
    at least b for n >= 1.
    """
    n, b, d = n_adapters, bottleneck, config.d_model
    return (n * (2 * d * b + b + d) + 3 * d * d - d) // (2 * d + 1)
