"""Small pre-norm transformer encoder with mean-pool spans and MLM pretraining.

The encoder is deliberately ordinary: learned token + position embeddings,
multi-head self-attention, GELU feed-forward, pre-norm residuals, final
layer norm. An optional adapter hook transforms the post-feed-forward output
of every layer.

`pad_batch` pads a batch of token id lists to its width: SHORT_WIDTH if no
sequence is longer, else the smallest multiple of PAD_BUCKET that fits its
longest sequence; capped at max_seq_len. Training and evaluation pad by the
same rule. `encode` takes the first `t` rows of the position table.

`encode_pooled` pads, encodes and pools a batch, each row over its poolable
tokens or a given span: the one such sequence of contrastive training
(`objectives.encode_pair_batch`) and of retrieval (`evaluation`).

Packed rows. After the embeddings, `encode` carries the residual stream as
[N, d] rows: the real slots, in row-major order of `mask > 0`. LN1, the
Q/K/V and output projections, LN2, the feed-forward and its GELU, the
adapter hook and the final layer norm all run on those N rows; only the
attention core (scores, key bias, softmax, context) uses the padded
[B, H, T, dh] layout, with Q/K/V put into zero-filled slots and the context
taken back at the real ones. `HiddenStates.final` is [B, T, d] with exact
zeros in PAD slots.

One-row rule: a product with one row takes BLAS's matrix-vector kernel,
which rounds differently from the matrix-matrix kernel. So when only one
slot of a batch is real, its first PAD slot is carried too. That row cannot
reach a real one: as a key it gets weight exactly 0, and it is dropped
before `final`.

Why the bits hold. On OpenBLAS a non-transposed product `x @ W` of 2 or
more rows gives each row the same bits whatever the row count (checked from
2 to 512 rows at d_model 64 against the weights of the encoder and the
adapters, and against the batched [B, T, d] product), and layer norm, GELU
and softmax work row by row, so a real slot's state does not depend on the
other rows of the batch. PAD keys get exactly zero attention
weight and PAD positions exactly zero pooling weight, so the padded slots
only add exact zeros to numpy's sums: every state at a real position and
every pooled output has the same bits at every width the rule can give, and
so do the gradients, whose weight reductions run over the same N rows. At a
width of 8 or more, the zeros come in blocks of 8 (see PAD_BUCKET). At width
2, a row has at most 2 real keys and positions: numpy sums a row of fewer
than 8 elements in one plain loop, and a row of 8 or more in 8 interleaved
partial sums, and both give `a+b`, because adding an exact zero never
changes a rounding and neither does swapping two addends. So a batch of at
most 2 tokens has the same bits at width 2 as at 8, 16 or max_seq_len.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import check_fields
from .optim import TrainHyper, train
from .params import ParamSet
from .vocab import MASK_ID, PAD_ID, SEP_ID, SPECIALS, Vocab, tokenize

# (packed [N, d] states, layer) -> [N, d] states; see "Packed rows" above
AdapterHook = Callable[[Tensor, int], Tensor]

# Bucket widths are multiples of 8 and never below 8: numpy sums a contiguous
# axis of 8 or more elements in 8 interleaved partial sums (the softmax key
# sums), and a strided axis term by term in order (pooling), so extending a
# row of length >= 8 by exact zeros in blocks of 8 leaves every partial sum,
# and the result, bitwise unchanged. Below 8 the sum is one plain loop, whose
# bits can differ from those of a wider batch once a row has 3 or more real
# addends; with at most 2 (SHORT_WIDTH), every order and grouping of the sum
# gives the same `a+b`.
PAD_BUCKET = 8

# The width of a batch whose sequences are all at most this long: the 1- and
# 2-token labels of retrieval pad to 2 slots, not 8. Not 1: a lone 1-token
# sequence still carries a PAD slot under the one-row rule.
SHORT_WIDTH = 2

# share of real positions an MLM batch corrupts, BERT's rate
MASK_RATE = 0.15

# init_encoder_params draws each normal table in row blocks of about this
# many float64 values, each scaled and rounded into the float32 table: the
# Generator stream and the bits of one whole draw, with no float64 twin of
# the [V, d] token table
INIT_BLOCK = 8192


@dataclass
class EncoderConfig:
    layers: int = 2
    d_model: int = 64
    n_heads: int = 4
    ff_dim: int = 128
    max_seq_len: int = 24
    vocab_size: int = 0

    def __post_init__(self):
        check_fields(self, {"layers": 1, "d_model": 1, "n_heads": 1, "ff_dim": 1,
                            "max_seq_len": 1})
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"n_heads ({self.n_heads}) must divide d_model ({self.d_model})")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


@dataclass
class HiddenStates:
    """Token representations after the closing layer norm."""

    final: Tensor


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator) -> ParamSet:
    """Backbone parameters under the `encoder.` prefix (includes the MLM head)."""
    if config.vocab_size < 5:
        raise ValueError("vocab_size must cover the special tokens")
    p = ParamSet()

    def normal(shape):
        out = np.empty(shape, dtype=np.float32)
        rows = max(1, INIT_BLOCK // (out.size // len(out)))
        for i in range(0, len(out), rows):
            block = out[i:i + rows]
            block[...] = rng.standard_normal(block.shape) * 0.02
        return out

    d, ff, v = config.d_model, config.ff_dim, config.vocab_size
    p.add("encoder.emb.tok", normal((v, d)))
    p.add("encoder.emb.pos", normal((config.max_seq_len, d)))
    for m in range(config.layers):
        pre = f"encoder.{m}"
        for w in ("wq", "wk", "wv", "wo"):
            p.add(f"{pre}.attn.{w}", normal((d, d)))
        # no key bias: it adds the same q.bk to every score of a query, which
        # the softmax cancels, so its exact gradient is 0
        for b in ("bq", "bv", "bo"):
            p.add(f"{pre}.attn.{b}", np.zeros(d, dtype=np.float32))
        p.add(f"{pre}.ln1.g", np.ones(d, dtype=np.float32))
        p.add(f"{pre}.ln1.b", np.zeros(d, dtype=np.float32))
        p.add(f"{pre}.ln2.g", np.ones(d, dtype=np.float32))
        p.add(f"{pre}.ln2.b", np.zeros(d, dtype=np.float32))
        p.add(f"{pre}.ff.w1", normal((d, ff)))
        p.add(f"{pre}.ff.b1", np.zeros(ff, dtype=np.float32))
        p.add(f"{pre}.ff.w2", normal((ff, d)))
        p.add(f"{pre}.ff.b2", np.zeros(d, dtype=np.float32))
    p.add("encoder.ln_f.g", np.ones(d, dtype=np.float32))
    p.add("encoder.ln_f.b", np.zeros(d, dtype=np.float32))
    # MLM head is tied to the token embedding; only the bias is separate
    p.add("encoder.mlm.b", np.zeros(v, dtype=np.float32))
    return p


def pad_batch(seqs: Sequence[list[int]], config: EncoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """Pad token id lists for `encode`, capped at max_seq_len: to width
    SHORT_WIDTH (2) if none is longer, else to the smallest multiple of
    PAD_BUCKET that fits the longest. Oversize or empty sequences error.

    Every width gives the same bits: a row of at most 2 real slots sums to
    `a+b` in any order, and a longer row gains exact zeros in blocks of 8
    (see "Why the bits hold" above)."""
    lengths = np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs))
    longest = int(lengths.max(initial=0))
    if longest > config.max_seq_len:
        raise ValueError(f"sequence of length {longest} exceeds max_seq_len {config.max_seq_len}")
    if lengths.min(initial=1) == 0:
        raise ValueError("empty sequence in batch")
    t = SHORT_WIDTH if longest <= SHORT_WIDTH else -(-longest // PAD_BUCKET) * PAD_BUCKET
    real = np.arange(min(config.max_seq_len, t)) < lengths[:, None]     # row-major real slots
    ids = np.full(real.shape, PAD_ID, dtype=np.int64)
    ids[real] = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.int64,
                            count=int(lengths.sum()))
    return ids, real.astype(np.float32)


def encode(leaves: dict[str, Tensor], ids: np.ndarray, mask: np.ndarray,
           config: EncoderConfig, adapter_hook: AdapterHook | None = None) -> HiddenStates:
    """Run the encoder over a padded id batch, position-wise layers on the
    packed real rows (see the module docstring)."""
    b, t = ids.shape
    if not 1 <= t <= config.max_seq_len:
        raise ValueError(f"batch width must be 1..max_seq_len={config.max_seq_len}, got {t}")
    d, h, dh = config.d_model, config.n_heads, config.head_dim

    tok = ad.gather(leaves["encoder.emb.tok"], ids)                     # [B,T,d]
    pos = leaves["encoder.emb.pos"]
    if t < config.max_seq_len:
        pos = ad.split(pos, [t, config.max_seq_len - t], axis=0)[0]
    x = ad.add(tok, ad.reshape(pos, (1, t, d)))

    # the real slots; a lone real slot also carries the first PAD slot, so
    # that no product has one row (the one-row rule)
    real = np.flatnonzero(mask > 0)
    rows = real
    if real.size == 1 and b * t > 1:
        rows = np.sort(np.append(real, np.flatnonzero(mask <= 0)[0]))
    x = ad.take_rows(ad.reshape(x, (b * t, d)), rows)                  # [N,d]

    # additive attention bias: 0 on real keys, -inf on PAD keys
    key_bias = np.where(mask > 0, 0.0, -np.inf).astype(np.float32)
    key_bias = Tensor(key_bias.reshape(b, 1, 1, t))
    inv_sqrt_dh = float(1.0 / np.sqrt(dh))

    def heads(t_in: Tensor) -> Tensor:
        """[N,d] rows into zero-filled slots: [B,H,T,dh]."""
        full = ad.reshape(ad.put_rows(t_in, rows, b * t), (b, t, h, dh))
        return ad.swapaxes(full, 1, 2)

    for m in range(config.layers):
        pre = f"encoder.{m}"
        xn = ad.layer_norm(x, leaves[f"{pre}.ln1.g"], leaves[f"{pre}.ln1.b"])
        q = heads(ad.add(ad.matmul(xn, leaves[f"{pre}.attn.wq"]), leaves[f"{pre}.attn.bq"]))
        k = heads(ad.matmul(xn, leaves[f"{pre}.attn.wk"]))
        v = heads(ad.add(ad.matmul(xn, leaves[f"{pre}.attn.wv"]), leaves[f"{pre}.attn.bv"]))
        scores = ad.add(ad.mul(ad.matmul(q, ad.swapaxes(k, 2, 3)), inv_sqrt_dh), key_bias)
        ctx = ad.matmul(ad.softmax(scores, axis=-1), v)                 # [B,H,T,dh]
        ctx = ad.take_rows(ad.reshape(ad.swapaxes(ctx, 1, 2), (b * t, d)), rows)
        attn_out = ad.add(ad.matmul(ctx, leaves[f"{pre}.attn.wo"]), leaves[f"{pre}.attn.bo"])
        x = ad.add(x, attn_out)

        xn2 = ad.layer_norm(x, leaves[f"{pre}.ln2.g"], leaves[f"{pre}.ln2.b"])
        ff = ad.matmul(ad.gelu(ad.add(ad.matmul(xn2, leaves[f"{pre}.ff.w1"]),
                                      leaves[f"{pre}.ff.b1"])),
                       leaves[f"{pre}.ff.w2"])
        x = ad.add(x, ad.add(ff, leaves[f"{pre}.ff.b2"]))

        if adapter_hook is not None:
            x = adapter_hook(x, m)

    x = ad.layer_norm(x, leaves["encoder.ln_f.g"], leaves["encoder.ln_f.b"])
    if rows.size > real.size:                            # drop the carried PAD slot
        x = ad.take_rows(x, np.flatnonzero(mask.reshape(-1)[rows] > 0))
    return HiddenStates(final=ad.reshape(ad.put_rows(x, real, b * t), (b, t, d)))


def encode_seqs(params: ParamSet, seqs: Sequence[list[int]], config: EncoderConfig,
                adapter_hook: AdapterHook | None = None) -> tuple[HiddenStates, np.ndarray, np.ndarray]:
    """Convenience wrapper: pad, build gradient-free leaves, encode. Returns (states, ids, mask)."""
    ids, mask = pad_batch(seqs, config)
    return encode(ad.make_leaves(params), ids, mask, config, adapter_hook), ids, mask


def span_pool_weights(spans: Sequence[tuple[int, int]], mask: np.ndarray) -> np.ndarray:
    """Per-example weights averaging an inclusive token span; PAD spans error."""
    b, t = mask.shape
    w = np.zeros((b, t), dtype=np.float32)
    for row, (i, j) in enumerate(spans):
        if not (0 <= i <= j < t):
            raise ValueError(f"span [{i},{j}] out of bounds for length {t}")
        if not np.all(mask[row, i:j + 1] > 0):
            raise ValueError(f"span [{i},{j}] touches PAD positions")
        w[row, i:j + 1] = 1.0 / (j - i + 1)
    return w


def sentence_pool_weights(ids: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whole-sentence pooling weights; PAD, SEP and MASK never contribute."""
    keep = (mask > 0) & ~np.isin(ids, (PAD_ID, SEP_ID, MASK_ID))
    counts = keep.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("sentence has no poolable tokens (empty context)")
    return (keep / counts[:, None]).astype(np.float32)


def pool(x: Tensor, weights: np.ndarray) -> Tensor:
    """Weighted sum over the token axis: [B,T,d] x [B,T] -> [B,d]."""
    w = Tensor(weights[:, :, None])
    return ad.tsum(ad.mul(x, w), axis=1)


def encode_pooled(leaves: dict[str, Tensor], seqs: Sequence[list[int]], config: EncoderConfig,
                  adapter_hook: AdapterHook | None,
                  spans: Sequence[tuple[int, int] | None] | None = None) -> Tensor:
    """Pad, encode and pool a batch to [B,d]: each row over its poolable
    tokens, or over the inclusive span `spans[row]` where one is given."""
    ids, mask = pad_batch(seqs, config)
    states = encode(leaves, ids, mask, config, adapter_hook)
    weights = sentence_pool_weights(ids, mask)
    rows = [row for row, span in enumerate(spans or ()) if span is not None]
    weights[rows] = span_pool_weights([spans[row] for row in rows], mask[rows])
    return pool(states.final, weights)


def mask_span(ids: list[int], span: tuple[int, int]) -> list[int]:
    """Replace the whole span by exactly one MASK token."""
    i, j = span
    if not (0 <= i <= j < len(ids)):
        raise ValueError(f"span [{i},{j}] invalid for sequence of length {len(ids)}")
    return [*ids[:i], MASK_ID, *ids[j + 1:]]


# ---------------------------------------------------------------------------
# masked language model pretraining
# ---------------------------------------------------------------------------

def make_mlm_batch(ids: np.ndarray, mask: np.ndarray, config: EncoderConfig,
                   rng: np.random.Generator):
    """Corrupt 80/10/10 over sampled positions; returns (corrupted, rows, cols, targets)."""
    real = mask > 0
    # drawn at max_seq_len and sliced to the batch's width, so that which
    # positions a batch masks, and the RNG stream after it, do not depend on
    # the batch's length bucket
    draw = rng.random((ids.shape[0], config.max_seq_len))[:, :ids.shape[1]]
    sel = (draw < MASK_RATE) & real
    if not sel.any():
        rows = np.argwhere(real)
        sel[tuple(rows[0])] = True
    corrupted = ids.copy()
    rows, cols = np.nonzero(sel)
    targets = ids[rows, cols].copy()
    action = rng.random(len(rows))
    rand_tokens = rng.integers(len(SPECIALS), config.vocab_size, size=len(rows))
    corrupted[rows, cols] = np.where(
        action < 0.8, MASK_ID, np.where(action < 0.9, rand_tokens, targets))
    return corrupted, rows, cols, targets


def mlm_loss(leaves: dict[str, Tensor], corrupted: np.ndarray, mask: np.ndarray,
             rows: np.ndarray, cols: np.ndarray, targets: np.ndarray,
             config: EncoderConfig) -> Tensor:
    """Mean cross-entropy over the corrupted positions (tied output embedding)."""
    states = encode(leaves, corrupted, mask, config)
    b, t = corrupted.shape
    flat = ad.reshape(states.final, (b * t, config.d_model))
    picked = ad.gather(flat, rows * t + cols)                        # [S,d]
    logits = ad.add(ad.matmul(picked, ad.swapaxes(leaves["encoder.emb.tok"], 0, 1)),
                    leaves["encoder.mlm.b"])
    logp = ad.log_softmax(logits, axis=-1)
    s = len(targets)
    target_logp = ad.gather(ad.reshape(logp, (s * config.vocab_size,)),
                            np.arange(s) * config.vocab_size + targets)    # [S]
    return ad.div(ad.tsum(target_logp), Tensor(np.asarray(-s, dtype=logp.dtype)))


def mlm_pretrain(corpus: list[tuple[str, list[str]]], config: EncoderConfig,
                 hyper: TrainHyper, seed: int, vocab: Vocab
                 ) -> tuple[ParamSet, list[tuple[int, float, float]]]:
    """Train the backbone with MLM on a corpus of sentences, none empty and at
    least one, as `load_dataset` checks; deterministic per seed."""
    rng = np.random.default_rng(seed)
    params = init_encoder_params(config, rng)
    seqs = [tokenize(toks, vocab, config.max_seq_len) for _, toks in corpus]

    def loss_at():
        pick = rng.integers(0, len(corpus), size=hyper.batch_size)
        ids, mask = pad_batch([seqs[i] for i in pick], config)
        corrupted, rows, cols, targets = make_mlm_batch(ids, mask, config, rng)
        return lambda lv: mlm_loss(lv, corrupted, mask, rows, cols, targets, config)

    return params, train(params, "", loss_at, hyper)
