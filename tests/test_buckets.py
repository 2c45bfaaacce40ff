"""Length buckets: every batch is padded only to width 2 if no sequence is
longer, else to the smallest multiple of 8 that fits it, whether or not the
backbone trains.

The forward pass keeps its bits at every bucket width, and so do the MLM
and InfoNCE losses and every gradient, with every group trainable, in the
golden pipeline's one-layer d=32 encoder and in the desk encoder (two
layers, d=64): the position-wise layers run on the same packed real-token
rows at every width, so every product and weight-gradient reduction sees
the same rows, and the padded attention core only adds exact zeros. MLM
masking draws the same positions at every width.

Also a float64 gradient check of the whole encoder + 4 adapters + fusion +
InfoNCE graph at a bucketed width below max_seq_len.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgadapters import autodiff as ad
from kgadapters import encoder
from kgadapters.adapters import KINDS, build_hook, init_fusion, insert_adapters
from kgadapters.encoder import (EncoderConfig, encode, init_encoder_params, make_mlm_batch,
                                mlm_loss, mlm_pretrain, pad_batch, pool, sentence_pool_weights)
from kgadapters.evaluation import _pooled_encodings, finetune_contrastive
from kgadapters.objectives import PairItem, encode_pair_batch, infonce, train_adapter
from kgadapters.optim import TrainHyper
from kgadapters.params import ParamSet
from kgadapters.vocab import build_vocab

VOCAB_SIZE = 40
MAX_LEN = 24
DESK = EncoderConfig(layers=2, d_model=64, n_heads=4, ff_dim=128,
                     max_seq_len=MAX_LEN, vocab_size=VOCAB_SIZE)
GOLDEN = EncoderConfig(layers=1, d_model=32, n_heads=2, ff_dim=64,
                       max_seq_len=MAX_LEN, vocab_size=VOCAB_SIZE)
# the golden pipeline's encoder as the micro config builds it
GOLDEN_16 = EncoderConfig(layers=1, d_model=32, n_heads=2, ff_dim=64,
                          max_seq_len=16, vocab_size=VOCAB_SIZE)
WORDS = [f"w{i}" for i in range(12)]


def fused_model(config: EncoderConfig, seed: int = 0, up_std: float = 0.05,
                bottleneck: int = 8):
    """A fused 4-adapter model whose up-projections are large enough that
    every adapter path moves the output."""
    backbone = init_encoder_params(config, np.random.default_rng(seed))
    adapted = init_fusion(insert_adapters(backbone, list(KINDS), bottleneck, seed + 1, config),
                          seed + 2).with_mode("fusion")
    rng = np.random.default_rng(seed + 3)
    for name in adapted.params.names("adapter."):
        if name.endswith("W_up"):
            arr = adapted.params.get(name)
            adapted.params.set_data(name, (rng.standard_normal(arr.shape) * up_std)
                                    .astype(np.float32))
    return adapted


@pytest.fixture(scope="module")
def model():
    return fused_model(DESK)


def padded(seqs, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad by hand to a given width."""
    ids = np.zeros((len(seqs), width), dtype=np.int64)
    mask = np.zeros((len(seqs), width), dtype=np.float32)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
        mask[i, :len(s)] = 1.0
    return ids, mask


def pooled_at(model, seqs, width: int) -> np.ndarray:
    """Pooled eval encodings of `seqs` padded by hand to `width`."""
    leaves = ad.make_leaves(model.params)
    ids, mask = padded(seqs, width)
    states = encode(leaves, ids, mask, model.config, build_hook(model, leaves))
    return pool(states.final, sentence_pool_weights(ids, mask)).data


def infonce_grads(model, params, names, seqs, width: int):
    """(loss, grads of `names`) of InfoNCE over the first and second half of
    `seqs` as anchors and positives, padded to `width`."""
    ids, mask = padded(seqs, width)
    b = len(seqs) // 2

    def loss(leaves):
        states = encode(leaves, ids, mask, model.config, build_hook(model, leaves))
        pooled = pool(states.final, sentence_pool_weights(ids, mask))
        anchors, positives = ad.split(pooled, [b, b], axis=0)
        return infonce(anchors, positives, tau=0.05)

    return ad.grad_eval(loss, params, names)


def adapter_fusion_grads(model, seqs, width: int):
    """`infonce_grads` with the backbone frozen."""
    names = model.params.names("adapter.") + model.params.names("fusion.")
    return infonce_grads(model, model.params, names, seqs, width)


def mlm_grads(params, config, ids, mask, seed: int):
    """(loss, grads of every parameter) of the MLM loss on one masked batch."""
    corrupted, rows, cols, targets = make_mlm_batch(ids, mask, config,
                                                    np.random.default_rng(seed))
    return ad.grad_eval(lambda lv: mlm_loss(lv, corrupted, mask, rows, cols, targets, config),
                        params, params.names())


@pytest.fixture
def encode_widths(monkeypatch):
    """The width of every batch that `encode` sees; every caller in the
    program looks it up in the encoder module."""
    widths = []
    real = encoder.encode

    def recording(leaves, ids, mask, config, adapter_hook=None):
        widths.append(ids.shape[1])
        return real(leaves, ids, mask, config, adapter_hook)

    monkeypatch.setattr(encoder, "encode", recording)
    return widths


def token_seqs(max_len: int = MAX_LEN):
    return st.lists(st.integers(4, VOCAB_SIZE - 1), min_size=1, max_size=max_len)


def pair_batches(max_len: int = MAX_LEN):
    return st.integers(2, 6).flatmap(
        lambda b: st.lists(token_seqs(max_len), min_size=2 * b, max_size=2 * b))


seeds = st.integers(0, 2 ** 32 - 1)


class TestBucketWidth:
    @pytest.mark.parametrize("longest,width", [(1, 2), (2, 2), (3, 8), (8, 8), (9, 16),
                                               (16, 16), (17, 24), (24, 24)])
    def test_frozen_backbone_pads_to_bucket(self, model, longest, width):
        seqs = [[4], [5] * longest]
        ids, mask = pad_batch(seqs, model.config)
        assert ids.shape == mask.shape == (2, width)
        assert mask.sum() == 1 + longest

    def test_lone_one_token_sequence_carries_its_pad_row_at_width_2(self, model):
        """The one-row rule at the short width: the hook sees the real slot
        and the PAD slot beside it, `final` keeps the PAD slot at exact zero,
        and the pooled vector has the bits of width 8."""
        ids, mask = pad_batch([[7]], model.config)
        np.testing.assert_array_equal(ids, [[7, 0]])
        np.testing.assert_array_equal(mask, [[1, 0]])
        leaves = ad.make_leaves(model.params)
        fused, shapes = build_hook(model, leaves), []

        def hook(x, m):
            shapes.append(x.shape)
            return fused(x, m)

        final = encode(leaves, ids, mask, model.config, hook).final.data
        assert shapes == [(2, model.config.d_model)] * model.config.layers
        assert final.shape == (1, 2, model.config.d_model)
        assert not final[0, 1].any() and final[0, 0].any()
        np.testing.assert_array_equal(_pooled_encodings(model, [[7]]),
                                      pooled_at(model, [[7]], 8))

    def test_bucket_is_capped_at_max_seq_len(self):
        config = EncoderConfig(layers=1, d_model=8, n_heads=2, ff_dim=8,
                               max_seq_len=12, vocab_size=VOCAB_SIZE)
        ids, _ = pad_batch([[4] * 9], config)
        assert ids.shape == (1, 12)

    def test_backbone_gradient_pads_to_bucket(self, model, encode_widths):
        vocab = build_vocab([WORDS])
        items = [PairItem(anchor_tokens=WORDS[:3], positive_tokens=WORDS[3:5])]
        # every group trainable, then the backbone frozen
        for names in (model.params.names(),
                      model.params.names("adapter.") + model.params.names("fusion.")):
            ad.grad_eval(lambda lv: infonce(*encode_pair_batch(lv, model, items, vocab), 0.05),
                         model.params, names)
        assert encode_widths == [8, 8]

    def test_encode_rejects_a_width_above_max_seq_len(self, model):
        leaves = ad.make_leaves(model.params, grad=False)
        ids, mask = padded([[4]], MAX_LEN + 8)
        with pytest.raises(ValueError, match="max_seq_len"):
            encode(leaves, ids, mask, model.config)


class TestBucketInvariance:
    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(token_seqs(), min_size=1, max_size=10))
    def test_pooled_eval_encodings_match_full_width(self, model, seqs):
        bucketed = _pooled_encodings(model, seqs)
        leaves = ad.make_leaves(model.params, grad=False)
        ids, mask = padded(seqs, MAX_LEN)
        states = encode(leaves, ids, mask, model.config, build_hook(model, leaves))
        full = pool(states.final, sentence_pool_weights(ids, mask)).data
        np.testing.assert_array_equal(bucketed, full)

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(token_seqs(2), min_size=1, max_size=10))
    def test_short_pooled_eval_encodings_match_at_every_width(self, model, seqs):
        """A batch of at most 2 tokens pads to width 2, and its pooled eval
        encodings have the bits of widths 8, 16 and max_seq_len."""
        assert pad_batch(seqs, model.config)[0].shape[1] == 2
        short = _pooled_encodings(model, seqs)
        for width in (8, 16, MAX_LEN):
            np.testing.assert_array_equal(short, pooled_at(model, seqs, width),
                                          err_msg=f"width {width}")

    @settings(max_examples=10, deadline=None, database=None)
    @given(pair_batches(2), seeds)
    def test_short_desk_losses_and_gradients_match_at_every_width(self, model, seqs, seed):
        """With every group trainable, the InfoNCE and MLM losses and every
        gradient of the desk encoder with fused adapters have the same bits
        at width 2 as at widths 8, 16 and max_seq_len."""
        backbone = init_encoder_params(DESK, np.random.default_rng(0))
        for grads in (lambda w: infonce_grads(model, model.params, model.params.names(),
                                              seqs, w),
                      lambda w: mlm_grads(backbone, DESK, *padded(seqs, w), seed)):
            loss2, g2 = grads(2)
            assert any(name.startswith("encoder.") for name in g2)
            for width in (8, 16, MAX_LEN):
                loss_w, g = grads(width)
                assert loss_w == loss2, width
                assert sorted(g) == sorted(g2)
                for name in g2:
                    np.testing.assert_array_equal(g[name], g2[name],
                                                  err_msg=f"{name} @ {width}")

    @settings(max_examples=15, deadline=None, database=None)
    @given(pair_batches())
    def test_adapter_and_fusion_gradients_match_at_every_width(self, seqs):
        model = fused_model(GOLDEN)
        longest = max(map(len, seqs))
        loss24, g24 = adapter_fusion_grads(model, seqs, MAX_LEN)
        assert sorted(g24) == model.params.names("adapter.") + model.params.names("fusion.")
        for width in (w for w in (8, 16) if w >= longest):
            loss_w, g = adapter_fusion_grads(model, seqs, width)
            assert loss_w == loss24, width
            for name in g24:
                np.testing.assert_array_equal(g[name], g24[name], err_msg=f"{name} @ {width}")

    @settings(max_examples=30, deadline=None, database=None)
    @given(pair_batches(8), seeds)
    def test_golden_losses_and_gradients_match_at_every_width(self, seqs, seed):
        """With every group trainable, the MLM and InfoNCE losses and every
        gradient of the golden pipeline's encoder have the same bits at
        width 8 as at max_seq_len 16."""
        model = fused_model(GOLDEN_16)
        backbone = init_encoder_params(GOLDEN_16, np.random.default_rng(0))
        mlm = [mlm_grads(backbone, GOLDEN_16, *padded(seqs, w), seed) for w in (8, 16)]
        nce = [infonce_grads(model, model.params, model.params.names(), seqs, w)
               for w in (8, 16)]
        for (loss8, g8), (loss16, g16) in (mlm, nce):
            assert loss8 == loss16
            assert sorted(g8) == sorted(g16)
            for name in g16:
                np.testing.assert_array_equal(g8[name], g16[name], err_msg=name)

    @settings(max_examples=10, deadline=None, database=None)
    @given(pair_batches(16), seeds)
    def test_desk_losses_and_gradients_match_at_every_width(self, model, seqs, seed):
        """With every group trainable, the MLM and InfoNCE losses and every
        gradient of the desk encoder (two layers, d=64, fused adapters) have
        the same bits at every bucket width that fits the batch as at
        max_seq_len 24."""
        backbone = init_encoder_params(DESK, np.random.default_rng(0))
        longest = max(map(len, seqs))
        for grads in (lambda w: mlm_grads(backbone, DESK, *padded(seqs, w), seed),
                      lambda w: infonce_grads(model, model.params, model.params.names(),
                                              seqs, w)):
            loss24, g24 = grads(MAX_LEN)
            assert any(name.startswith("encoder.") for name in g24)
            for width in (w for w in (8, 16) if w >= longest):
                loss_w, g = grads(width)
                assert loss_w == loss24, width
                assert sorted(g) == sorted(g24)
                for name in g24:
                    np.testing.assert_array_equal(g[name], g24[name],
                                                  err_msg=f"{name} @ {width}")

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(token_seqs(8), min_size=1, max_size=8), seeds)
    def test_mlm_masking_is_the_same_at_every_width(self, seqs, seed):
        out8, out24 = (make_mlm_batch(*padded(seqs, w), DESK, np.random.default_rng(seed))
                       for w in (8, MAX_LEN))
        for a, b in zip(out8[1:], out24[1:]):                # rows, cols, targets
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(out8[0], out24[0][:, :8])


class TestTrainingPaths:
    """Every training stage pads to the bucket, whether or not it trains the
    backbone."""

    def sampler(self, batch_size, rng):
        return [PairItem(anchor_tokens=[WORDS[i], WORDS[i + 1]], positive_tokens=[WORDS[i + 2]])
                for i in rng.permutation(len(WORDS) - 2)[:batch_size]]

    def make(self):
        vocab = build_vocab([WORDS])
        config = EncoderConfig(layers=1, d_model=16, n_heads=2, ff_dim=16,
                               max_seq_len=MAX_LEN, vocab_size=len(vocab))
        hyper = TrainHyper(batch_size=4, steps=2, base_lr=1e-3, warmup_steps=1)
        return vocab, config, hyper

    def test_pretrain_pads_to_bucket(self, encode_widths):
        vocab, config, hyper = self.make()
        corpus = [("l0", WORDS[i:i + 3]) for i in range(8)]
        mlm_pretrain(corpus, config, hyper, seed=0, vocab=vocab)
        assert encode_widths == [8] * hyper.steps

    def test_finetune_and_fuse_pad_to_bucket(self, encode_widths):
        vocab, config, hyper = self.make()
        adapted = fused_model(config)
        finetune_contrastive(adapted, self.sampler, vocab, hyper, 0, "")
        finetune_contrastive(adapted, self.sampler, vocab, hyper, 0, "fusion.")
        # anchors of 2 tokens and positives of 1: the short width
        assert encode_widths == [2] * 2 * hyper.steps

    def test_integrate_buckets(self, encode_widths):
        vocab, config, hyper = self.make()
        backbone = init_encoder_params(config, np.random.default_rng(0))
        train_adapter(insert_adapters(backbone, ["EP"], 8, 1, config),
                      self.sampler, vocab, hyper, 0)
        assert encode_widths == [2] * hyper.steps


def test_whole_graph_gradcheck_at_a_bucketed_width():
    """Every trainable scalar of a tiny encoder + 4 adapters + fusion, through
    InfoNCE, at width 8 of max_seq_len 16; the position table reaches the
    graph through the slice, so its unused rows must get zero gradient."""
    config = EncoderConfig(layers=1, d_model=8, n_heads=2, ff_dim=4,
                           max_seq_len=16, vocab_size=12)
    model = fused_model(config, seed=5, bottleneck=2)
    params = model.params
    rng = np.random.default_rng(6)
    for name in params:
        if not name.endswith((".g", ".V")):
            arr = params.get(name)
            params.set_data(name, (rng.standard_normal(arr.shape) * 0.3).astype(np.float32))
    seqs = [list(rng.integers(4, 12, size=n)) for n in (3, 5, 2, 7)]
    ids, mask = padded(seqs, 8)

    def loss(leaves):
        states = encode(leaves, ids, mask, config, build_hook(model, leaves))
        pooled = pool(states.final, sentence_pool_weights(ids, mask))
        anchors, positives = ad.split(pooled, [2, 2], axis=0)
        return infonce(anchors, positives, tau=0.5)

    params64 = ParamSet()
    for name in params:
        params64.add(name, params.get(name).astype(np.float64))
    _, grads = ad.grad_eval(loss, params64, params.names())
    assert not grads["encoder.emb.pos"][8:].any() and grads["encoder.emb.pos"][:8].any()
    assert ad.gradcheck(loss, params, params.names(), eps=1e-5) < 1e-5
