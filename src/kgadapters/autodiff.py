"""Reverse-mode automatic differentiation over a fixed op vocabulary.

Dense math is numpy in the parameters' dtype (float32, or float64 in
`gradcheck`); every op records a backward closure on a tape. The vocabulary
is deliberately small: matmul, add, mul (Hadamard), gelu, layer_norm,
softmax/log_softmax, sum, concat/split, gather, take_rows/put_rows,
reshape/swapaxes, sqrt, div. That is enough for the encoder, adapters,
fusion and every training objective in this package. There is no graph
compiler and no user-extensible op registry.

`gelu` is the exact x * Phi(x) and needs only numpy: its erf is a float64
port of fdlibm's erf, rounded to float32 for float32 inputs.

`grad_eval` and `gradcheck` differentiate with respect to the parameter
names their caller passes and no others; which parameters train is decided
by the training loop, `optim.train`.

ParamSet arrays are read-only (see `params`), so `gradcheck`, the one
place that writes parameters in place, keeps writable float64 buffers of
its own: it nudges their scalars one at a time, and its work ParamSet
holds read-only views of them, which see every nudge.

Gradients are handed on, not copied: once a gradient array has been handed
to `_accumulate`, nothing writes into it in place, so one array may be the
gradient of several tensors, or a read-only broadcast view. Backward
releases each interior node (one with parents) right after it has run: its
gradient, its closure and its parent links go, so a graph is differentiated
once. Only leaves keep `.grad`.

A weight gradient is computed in the layout of the weight it flows into.
When `matmul`'s right operand is a 2-D transposed view (the tied head's
`swapaxes(emb.tok)`, `cosine_rows`), its gradient is (g.T @ a).T instead of
a.T @ g, so it reaches the C-ordered table C-ordered. At float32 the two
products have the same bits on OpenBLAS, which tests/test_autodiff.py checks
at the shapes this package uses; at float64 they may differ in the last
bits, which `gradcheck` is tolerant of.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np

from .params import ParamSet


_INV_SQRT2 = math.sqrt(0.5)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class ShapeError(ValueError):
    """Raised when an op receives tensors with incompatible shapes."""


class NumericError(FloatingPointError):
    """Raised when a public operation produces non-finite values."""


class Tensor:
    """A node in the computation tape wrapping one ndarray."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 _parents: tuple = (), _backward: Callable | None = None):
        self.data = np.asarray(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = _parents
        self._backward = _backward
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{tag})"

    def backward(self) -> None:
        """Backpropagate from this scalar through the tape.

        Interior nodes are released as soon as their backward has run: their
        `grad` and `_backward` become None and their `_parents` (), which
        frees their gradients, closures and forward data while backward is
        still running. Only leaves keep `.grad`.
        """
        if self.data.size != 1:
            raise ShapeError(f"backward: root must be scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad, node._backward, node._parents = None, None, ()


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g to t's gradient, if t needs one.

    The first arrival is stored as it is (cast only if its dtype differs); a
    later one is added out of place and rounded once into t's dtype, as `+=`
    would. Neither array is written into, so g may be shared.
    """
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = g.astype(t.dtype, copy=False)
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.grad))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _node(data: np.ndarray, parents: tuple, backward: Callable | None) -> Tensor:
    if any(_needs_grad(p) for p in parents):
        return Tensor(data, _parents=parents, _backward=backward)
    return Tensor(data)


# ---------------------------------------------------------------------------
# op vocabulary
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _as_tensor(b, a)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: cannot broadcast shapes {a.shape} + {b.shape}") from None

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g, a.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g, b.shape))

    return _node(out, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = _as_tensor(b, a)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: cannot broadcast shapes {a.shape} * {b.shape}") from None

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(out, (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data / b.data
    except ValueError:
        raise ShapeError(f"div: cannot broadcast shapes {a.shape} / {b.shape}") from None

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if _needs_grad(b):
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _node(out, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: cannot multiply shapes {a.shape} x {b.shape}") from None

    def backward(g):
        if _needs_grad(a):
            _accumulate(a, _unbroadcast(g @ b.data.swapaxes(-1, -2), a.shape))
        if _needs_grad(b):
            bt = b.data
            if a.data.ndim == bt.ndim == 2 and bt.flags.f_contiguous and not bt.flags.c_contiguous:
                _accumulate(b, (g.T @ a.data).T)        # b is a transposed view: its layout
            else:
                _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _node(out, (a, b), backward)


# erf, ported from fdlibm s_erf.c. Copyright (C) 1993 by Sun Microsystems,
# Inc. All rights reserved. Developed at SunPro, a Sun Microsystems, Inc.
# business. Permission to use, copy, modify, and distribute this software is
# freely granted, provided that this notice is preserved.
#
# Each coefficient tuple is (c0, c1, ..., cn) of c0 + s*(c1 + ... + s*cn),
# evaluated in fdlibm's order so that every rounding is the same.
_ERX = 8.45062911510467529297e-01
_ERF_P = (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
          -5.77027029648944159157e-03, -2.37630166566501626084e-05)
_ERF_Q = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
          5.08130628187576562776e-03, 1.32494738004321644526e-04, -3.96022827877536812320e-06)
_ERX_P = (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
          3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
          -2.16637559486879084300e-03)
_ERX_Q = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
          7.18286544141962662868e-02, 1.26171219808761642112e-01, 1.36370839120290507362e-02,
          1.19844998467991074170e-02)
_ERFC_NEAR = ((-9.86494403484714822705e-03, -6.93858572707181764372e-01,
               -1.05586262253232909814e+01, -6.23753324503260060396e+01,
               -1.62396669462573470355e+02, -1.84605092906711035994e+02,
               -8.12874355063065934246e+01, -9.81432934416914548592e+00),
              (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
               4.34565877475229228821e+02, 6.45387271733267880336e+02,
               4.29008140027567833386e+02, 1.08635005541779435134e+02,
               6.57024977031928170135e+00, -6.04244152148580987438e-02))
_ERFC_FAR = ((-9.86494292470009928597e-03, -7.99283237680523006574e-01,
              -1.77579549177547519889e+01, -1.60636384855821916062e+02,
              -6.37566443368389627722e+02, -1.02509513161107724954e+03,
              -4.83519191608651397019e+02),
             (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
              1.53672958608443695994e+03, 3.19985821950859553908e+03,
              2.55305040643316442583e+03, 4.74528541206955367215e+02,
              -2.24409524465858183362e+01))
# fdlibm branches on the high word: 1/0.35 with its low 32 bits cleared
_ERFC_SPLIT = 2.857143402099609375
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)


def _horner(s: np.ndarray, coefs: tuple) -> np.ndarray:
    acc = s * coefs[-1]
    for c in coefs[-2:0:-1]:
        acc += c
        acc *= s
    acc += coefs[0]
    return acc


def _erfc_tail(ax: np.ndarray, coefs: tuple) -> np.ndarray:
    """erf(ax) = 1 - exp(-ax^2 - 0.5625 + R/S)/ax on 1.25 <= ax < 6."""
    s = 1.0 / (ax * ax)
    r = _horner(s, coefs[0])
    r /= _horner(s, coefs[1])
    z = (ax.view(np.uint64) & _HIGH_WORD).view(np.float64)
    r += (z - ax) * (z + ax)
    np.exp(r, out=r)
    z *= z
    z += 0.5625
    np.negative(z, out=z)
    np.exp(z, out=z)
    r *= z
    r /= ax
    return np.subtract(1.0, r, out=r)


def _erf(x: np.ndarray) -> np.ndarray:
    """erf in float64, rounded to float32 for a float32 input.

    The |x| < 0.84375 rational runs over the whole array in place; the other
    branches run only on the entries outside it.
    """
    y = np.array(x, dtype=np.float64, order="C")
    flat = y.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):    # inf and huge x, fixed below
        z = flat * flat
        outside = np.flatnonzero(z >= 0.7119140625)       # 0.84375 ** 2, exact
        xo = flat[outside]
        r = _horner(z, _ERF_P)
        r /= _horner(z, _ERF_Q)
        r *= flat
        flat += r
    if outside.size:
        ax = np.abs(xo)
        out = np.ones_like(ax)                            # |x| >= 6, inf included
        i = np.flatnonzero(ax < 1.25)
        if i.size:
            s = ax[i] - 1.0
            p = _horner(s, _ERX_P)
            p /= _horner(s, _ERX_Q)
            p += _ERX
            out[i] = p
        for lo, hi, coefs in ((1.25, _ERFC_SPLIT, _ERFC_NEAR), (_ERFC_SPLIT, 6.0, _ERFC_FAR)):
            i = np.flatnonzero((ax >= lo) & (ax < hi))
            if i.size:
                out[i] = _erfc_tail(ax[i], coefs)
        flat[outside] = np.copysign(out, xo, out=out)
    return y.astype(np.float32) if x.dtype == np.float32 else y


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with Phi the standard normal CDF."""
    cdf = 0.5 * (1.0 + _erf(x.data * x.dtype.type(_INV_SQRT2)))
    out = x.data * cdf

    def backward(g):
        pdf = np.exp(x.data * x.data * x.dtype.type(-0.5)) * x.dtype.type(_INV_SQRT_2PI)
        _accumulate(x, g * (cdf + x.data * pdf))

    return _node(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm: gain/bias {gain.shape}/{bias.shape} do not match last axis {d}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.dtype.type(1e-5))
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        _accumulate(gain, _unbroadcast(g * xhat, gain.shape))
        _accumulate(bias, _unbroadcast(g, bias.shape))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _node(out, (x, gain, bias), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * p).sum(axis=axis, keepdims=True)
        _accumulate(x, (g - dot) * p)

    return _node(p, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = np.subtract(z, lse, out=z)

    def backward(g):
        # g - exp(out) * sum(g), built in one buffer that is then handed on
        dx = np.exp(out)
        np.multiply(dx, g.sum(axis=axis, keepdims=True), out=dx)
        _accumulate(x, np.subtract(g, dx, out=dx))

    return _node(out, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.shape))

    return _node(out, (x,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat: empty tensor list")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}") from None
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _node(out, tuple(ts), backward)


def split(x: Tensor, sizes: list[int], axis: int = -1) -> list[Tensor]:
    """Inverse of concat: slice x into consecutive blocks along an axis."""
    if sum(sizes) != x.shape[axis]:
        raise ShapeError(f"split: sizes {sizes} do not cover axis {axis} of {x.shape}")
    outs = []
    offsets = np.cumsum([0] + list(sizes))
    ndim = x.data.ndim
    ax = axis % ndim
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        idx = [slice(None)] * ndim
        idx[ax] = slice(int(lo), int(hi))
        idx = tuple(idx)

        def backward(g, idx=idx):
            acc = np.zeros_like(x.data)
            acc[idx] = g
            _accumulate(x, acc)

        outs.append(_node(x.data[idx], (x,), backward))
    return outs


def gather(table: Tensor, idx: np.ndarray) -> Tensor:
    """Row lookup along axis 0 (embedding lookup); scatter-add on backward."""
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"gather: index out of range for table with {table.shape[0]} rows")
    out = table.data[idx]

    def backward(g):
        acc = np.zeros_like(table.data)
        np.add.at(acc, idx, g)
        _accumulate(table, acc)

    return _node(out, (table,), backward)


def _check_rows(idx: np.ndarray, n: int, op: str) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.ndim != 1 or (idx.size and (idx[0] < 0 or idx[-1] >= n
                                       or np.any(idx[1:] <= idx[:-1]))):
        raise ShapeError(f"{op}: row indexes must be ascending and within {n} rows")
    return idx


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Rows `idx` (ascending, so distinct) of x along axis 0; the backward
    assigns the gradient into zeros, which needs no scatter-add."""
    idx = _check_rows(idx, x.shape[0], "take_rows")
    out = x.data[idx]

    def backward(g):
        acc = np.zeros_like(x.data)
        acc[idx] = g
        _accumulate(x, acc)

    return _node(out, (x,), backward)


def put_rows(x: Tensor, idx: np.ndarray, n: int) -> Tensor:
    """Inverse of take_rows: x's rows at rows `idx` (ascending) of n zero rows."""
    idx = _check_rows(idx, n, "put_rows")
    if idx.size != x.shape[0]:
        raise ShapeError(f"put_rows: {idx.size} indexes for {x.shape[0]} rows")
    out = np.zeros((n,) + x.shape[1:], dtype=x.dtype)
    out[idx] = x.data

    def backward(g):
        _accumulate(x, g[idx])

    return _node(out, (x,), backward)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    try:
        out = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot reshape {x.shape} to {shape}") from None

    def backward(g):
        _accumulate(x, g.reshape(x.shape))

    return _node(out, (x,), backward)


def swapaxes(x: Tensor, a1: int, a2: int) -> Tensor:
    out = x.data.swapaxes(a1, a2)

    def backward(g):
        _accumulate(x, g.swapaxes(a1, a2))

    return _node(out, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    out = np.sqrt(x.data)

    def backward(g):
        _accumulate(x, g * (0.5 / out))

    return _node(out, (x,), backward)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarity matrix between rows of a [N,d] and b [M,d]."""
    if a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"cosine_rows: dim mismatch {a.shape} vs {b.shape}")
    na = sqrt(add(tsum(mul(a, a), axis=-1, keepdims=True), 1e-12))  # [N,1]
    nb = sqrt(add(tsum(mul(b, b), axis=-1, keepdims=True), 1e-12))  # [M,1]
    dots = matmul(a, swapaxes(b, -1, -2))                         # [N,M]
    return div(dots, matmul(na, swapaxes(nb, -1, -2)))


# ---------------------------------------------------------------------------
# gradient evaluation and verification
# ---------------------------------------------------------------------------

def make_leaves(params, grad: bool = False) -> dict[str, Tensor]:
    """Wrap a ParamSet's arrays as graph leaves.

    With grad=False no leaf requires gradients and no tape is recorded,
    which is the evaluation path; with grad=True every leaf does.
    """
    return {name: Tensor(params.get(name), requires_grad=grad, name=name)
            for name in params}


def grad_eval(loss_fn: Callable[[Mapping[str, Tensor]], Tensor], params,
              trainable: Iterable[str]) -> tuple[float, dict[str, np.ndarray]]:
    """Evaluate loss_fn on fresh leaves and return (loss, grads of `trainable`).

    Only the named leaves require gradients, and exactly they get a gradient
    entry (zeros if unused by the graph). The arrays are handed on as the
    tape made them: two entries may share memory, so the caller does not write
    into them.
    """
    leaves = make_leaves(params)
    trainable = list(trainable)
    for name in trainable:
        leaves[name].requires_grad = True
    loss = loss_fn(leaves)
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise ShapeError("grad_eval: loss graph must reduce to a single scalar")
    if not np.isfinite(loss.data):
        raise NumericError(f"grad_eval: non-finite loss {float(loss.data)}")
    loss.backward()
    grads = {}
    for name in trainable:
        leaf = leaves[name]
        g = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        if not np.isfinite(g).all():
            raise NumericError(f"grad_eval: non-finite gradient for {name!r}")
        grads[name] = g
    return float(loss.data), grads


def gradcheck(loss_fn: Callable[[Mapping[str, Tensor]], Tensor], params,
              names: Iterable[str], eps: float = 1e-3) -> float:
    """Max relative error between analytic gradients and central differences.

    Both sides are evaluated at float64 so the check measures the backward
    formulas rather than f32 roundoff; relative error is
    |analytic - fd| / max(1e-8, |fd|), maximized over every scalar of the
    named parameters.
    """
    buffers = {n: params.get(n).astype(np.float64) for n in params}
    work = ParamSet()
    for n, buf in buffers.items():
        work.add(n, buf.view())
    names = list(names)
    _, grads = grad_eval(loss_fn, work, names)

    def eval_loss() -> float:
        loss = loss_fn(make_leaves(work))
        val = float(loss.data)
        if not math.isfinite(val):
            raise NumericError("gradcheck: non-finite loss during finite differences")
        return val

    worst = 0.0
    for name in names:
        flat = buffers[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = eval_loss()
            flat[i] = orig - eps
            lo = eval_loss()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * eps)
            rel = abs(gflat[i] - fd) / max(1e-8, abs(fd))
            if rel > worst:
                worst = rel
    return worst

