"""Reverse-mode automatic differentiation over a fixed op vocabulary.

Dense math is numpy in the parameters' dtype (float32, or float64 in
`gradcheck`); every op records a backward closure on a tape. The vocabulary
is deliberately small: matmul, add, mul (Hadamard), gelu, layer_norm,
softmax/log_softmax, mean, sum, concat/split, gather, take_rows/put_rows,
reshape/swapaxes, sqrt, div. That is enough for the encoder, adapters,
fusion and every training objective in this package. There is no graph
compiler and no user-extensible op registry.

`grad_eval` and `gradcheck` differentiate with respect to the parameter
names their caller passes and no others; which parameters train is decided
by the training loop, `optim.train`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping

import numpy as np
from scipy.special import erf


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
        """Backpropagate from this scalar through the tape."""
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
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad or t._parents for t in tensors)


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.dtype))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = g.astype(t.dtype, copy=True)
    else:
        t.grad += g


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
            _accumulate(b, _unbroadcast(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _node(out, (a, b), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x), with Phi the standard normal CDF."""
    cdf = 0.5 * (1.0 + erf(x.data * x.dtype.type(_INV_SQRT2)))
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
    out = z - lse

    def backward(g):
        _accumulate(x, g - np.exp(out) * g.sum(axis=axis, keepdims=True))

    return _node(out, (x,), backward)


def mean(x: Tensor) -> Tensor:
    """The mean of every element, as a scalar."""
    out = x.data.mean()

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.shape) / x.dtype.type(x.data.size))

    return _node(out, (x,), backward)


def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        _accumulate(x, np.broadcast_to(g, x.shape).astype(x.dtype))

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
    entry (zeros if unused by the graph).
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
    work = params.astype(np.float64)
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
        arr = work.get(name)
        flat = arr.reshape(-1)
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

