"""Bottleneck adapters, attention fusion over adapter outputs, and the width
of the LARGE adapter sized to their parameter budget.

An adapter at layer m computes h + W_up . gelu(W_down . h + b_down) + b_up
(residual added so a zero up-projection is the exact identity). The fusion
layer scores the identity path and every adapter output against the input
with a bilinear form <hQ, A_n(h)K>, softmaxes the scores and mixes the
V-projected outputs. Parameters are shared across token positions within a
layer. Checkpoint tensor names follow adapter.<kind>.<layer>.<matrix> and
fusion.<layer>.<Q|K|V>.
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
    """Backbone plus an ordered adapter set and optional fusion parameters;
    an adapter's bottleneck is the width of its W_down."""

    config: EncoderConfig
    params: ParamSet
    kinds: list[str]
    mode: str = "none"                # none | single | fusion
    single_kind: str | None = None

    def __post_init__(self):
        if self.mode not in ("none", "single", "fusion"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "single" and self.single_kind not in self.kinds:
            raise ValueError(f"single mode needs an inserted kind, got {self.single_kind!r}")
        if self.mode == "fusion" and not self.kinds:
            raise ValueError("fusion mode requires at least one adapter")

    @property
    def has_fusion(self) -> bool:
        return bool(self.params.names("fusion."))

    def with_mode(self, mode: str, kind: str | None = None) -> "AdaptedEncoder":
        if mode == "fusion" and not self.has_fusion:
            raise ValueError("fusion parameters not initialized")
        return replace(self, mode=mode, single_kind=kind)


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
    if len(set(kinds)) != len(kinds):
        raise ValueError(f"insert_adapters: duplicate kinds in {kinds}")
    params = backbone.copy()
    rng = np.random.default_rng(seed)
    for kind in kinds:
        _init_adapter(params, kind, config, bottleneck, rng)
    return AdaptedEncoder(config=config, params=params, kinds=list(kinds))


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

    Scores are <xQ, A_n(x)K> per position; weights softmax over the N+1
    paths; the mix is sum_n a_n * (A_n(x) V) with A_0(x) = x.
    """
    pre = f"fusion.{layer}"
    q = ad.matmul(x, leaves[f"{pre}.Q"])
    paths = [x] + list(outputs)
    scores = []
    for out in paths:
        k = ad.matmul(out, leaves[f"{pre}.K"])
        s = ad.tsum(ad.mul(q, k), axis=-1, keepdims=True)   # [..., 1]
        scores.append(s)
    a = ad.softmax(ad.concat(scores, axis=-1), axis=-1)     # [..., N+1]
    parts = ad.split(a, [1] * len(paths), axis=-1)
    mixed = None
    for w, out in zip(parts, paths):
        term = ad.mul(w, ad.matmul(out, leaves[f"{pre}.V"]))
        mixed = term if mixed is None else ad.add(mixed, term)
    return mixed, a


def build_hook(adapted: AdaptedEncoder, leaves: dict[str, Tensor],
               fusion_record: dict[int, np.ndarray] | None = None) -> AdapterHook | None:
    """Adapter hook for encode() according to the model's mode.

    The hook sees the [N, d] packed rows of `encode`, so `fusion_record[layer]`
    holds [N, paths] fusion weights, one row per real token in row-major order
    of the batch's mask (plus the carried PAD row of a one-token batch).
    """
    if adapted.mode == "none":
        return None
    if adapted.mode == "single":
        kind = adapted.single_kind

        def single_hook(x: Tensor, layer: int) -> Tensor:
            return adapter_apply(x, leaves, kind, layer)

        return single_hook

    if not adapted.has_fusion:
        raise ValueError("fusion mode without fusion parameters")

    def fusion_hook(x: Tensor, layer: int) -> Tensor:
        outputs = [adapter_apply(x, leaves, kind, layer) for kind in adapted.kinds]
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
