"""Length buckets: where the backbone takes no gradient, a batch is padded
only to the smallest multiple of 8 that fits it.

The forward pass keeps its bits at every bucket width. Adapter and fusion
gradients keep them in the golden pipeline's one-layer d=32 encoder; in the
desk encoder (two layers, d=64) OpenBLAS's small-matrix kernels, chosen by
row count, round some transposed-weight products differently at 8 or 16
rows than at 24, and those gradients agree only to float32 rounding.

Also a float64 gradient check of the whole encoder + 4 adapters + fusion +
InfoNCE graph at a bucketed width below max_seq_len.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgadapters import autodiff as ad
from kgadapters import encoder, objectives
from kgadapters.adapters import KINDS, build_hook, init_fusion, insert_adapters
from kgadapters.encoder import (EncoderConfig, encode, init_encoder_params, mlm_pretrain,
                                pad_batch, pool, sentence_pool_weights)
from kgadapters.evaluation import _pooled_encodings, finetune_contrastive
from kgadapters.hyper import TrainHyper
from kgadapters.objectives import ContrastiveBatch, PairItem, infonce, train_adapter
from kgadapters.vocab import TokenSeq, build_vocab

VOCAB_SIZE = 40
MAX_LEN = 24
DESK = EncoderConfig(layers=2, d_model=64, n_heads=4, ff_dim=128,
                     max_seq_len=MAX_LEN, vocab_size=VOCAB_SIZE)
GOLDEN = EncoderConfig(layers=1, d_model=32, n_heads=2, ff_dim=64,
                       max_seq_len=MAX_LEN, vocab_size=VOCAB_SIZE)


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
        ids[i, :len(s.ids)] = s.ids
        mask[i, :len(s.ids)] = 1.0
    return ids, mask


def adapter_fusion_grads(model, seqs, width: int, dtype=None):
    """(loss, grads) of InfoNCE over the first and second half of `seqs` as
    anchors and positives, padded to `width`, with the backbone frozen."""
    frozen = model.params.copy()
    frozen.set_trainable("encoder.", False)
    ids, mask = padded(seqs, width)
    b = len(seqs) // 2

    def loss(leaves):
        states = encode(leaves, ids, mask, model.config, build_hook(model, leaves))
        pooled = pool(states.final, sentence_pool_weights(ids, mask))
        anchors, positives = ad.split(pooled, [b, b], axis=0)
        return infonce(ContrastiveBatch(anchors, positives), tau=0.05)

    return ad.grad_eval(loss, frozen if dtype is None else frozen.astype(dtype), dtype)


token_seqs = st.lists(st.integers(4, VOCAB_SIZE - 1), min_size=1, max_size=MAX_LEN).map(
    lambda ids: TokenSeq(ids=ids, lang="l0"))
pair_batches = st.integers(2, 6).flatmap(
    lambda b: st.lists(token_seqs, min_size=2 * b, max_size=2 * b))


class TestBucketWidth:
    @pytest.mark.parametrize("longest,width", [(1, 8), (8, 8), (9, 16), (16, 16),
                                               (17, 24), (24, 24)])
    def test_frozen_backbone_pads_to_bucket(self, model, longest, width):
        leaves = ad.make_leaves(model.params, grad=False)
        seqs = [TokenSeq(ids=[4], lang="l0"), TokenSeq(ids=[5] * longest, lang="l0")]
        ids, mask = pad_batch(seqs, model.config, leaves)
        assert ids.shape == mask.shape == (2, width)
        assert mask.sum() == 1 + longest

    def test_bucket_is_capped_at_max_seq_len(self):
        config = EncoderConfig(layers=1, d_model=8, n_heads=2, ff_dim=8,
                               max_seq_len=12, vocab_size=VOCAB_SIZE)
        leaves = ad.make_leaves(init_encoder_params(config, np.random.default_rng(0)),
                                grad=False)
        ids, _ = pad_batch([TokenSeq(ids=[4] * 9, lang="l0")], config, leaves)
        assert ids.shape == (1, 12)

    def test_backbone_gradient_pads_to_max_seq_len(self, model):
        seqs = [TokenSeq(ids=[4, 5], lang="l0")]
        assert pad_batch(seqs, model.config)[0].shape == (1, MAX_LEN)
        leaves = ad.make_leaves(model.params)        # every group trainable
        assert pad_batch(seqs, model.config, leaves)[0].shape == (1, MAX_LEN)
        frozen = model.params.copy()
        frozen.set_trainable("encoder.", False)
        assert pad_batch(seqs, model.config, ad.make_leaves(frozen))[0].shape == (1, 8)

    def test_encode_rejects_a_width_above_max_seq_len(self, model):
        leaves = ad.make_leaves(model.params, grad=False)
        ids, mask = padded([TokenSeq(ids=[4], lang="l0")], MAX_LEN + 8)
        with pytest.raises(ValueError, match="max_seq_len"):
            encode(leaves, ids, mask, model.config)


class TestBucketInvariance:
    @settings(max_examples=25, deadline=None, database=None)
    @given(st.lists(token_seqs, min_size=1, max_size=10))
    def test_pooled_eval_encodings_match_full_width(self, model, seqs):
        bucketed = _pooled_encodings(model, seqs)
        leaves = ad.make_leaves(model.params, grad=False)
        ids, mask = padded(seqs, MAX_LEN)
        states = encode(leaves, ids, mask, model.config, build_hook(model, leaves))
        full = pool(states.final, sentence_pool_weights(ids, mask)).data
        np.testing.assert_array_equal(bucketed, full)

    @settings(max_examples=15, deadline=None, database=None)
    @given(pair_batches)
    def test_adapter_and_fusion_gradients_match_at_every_width(self, seqs):
        model = fused_model(GOLDEN)
        longest = max(len(s.ids) for s in seqs)
        loss24, g24 = adapter_fusion_grads(model, seqs, MAX_LEN)
        assert sorted(g24) == model.params.names("adapter.") + model.params.names("fusion.")
        for width in (w for w in (8, 16) if w >= longest):
            loss_w, g = adapter_fusion_grads(model, seqs, width)
            assert loss_w == loss24, width
            for name in g24:
                np.testing.assert_array_equal(g[name], g24[name], err_msg=f"{name} @ {width}")

    @settings(max_examples=5, deadline=None, database=None)
    @given(pair_batches)
    def test_desk_gradients_at_every_width_are_as_close_to_float64(self, model, seqs):
        """Bucketing adds no error beyond float32 rounding: against the float64
        gradients, every width's float32 gradient is about as close as width
        24's. The factor 10 covers the scatter of rounding errors (up to 4x
        over 200 random batches, in the cancellation-heavy fusion Q/K
        gradients of the untrained fusion)."""
        longest = max(len(s.ids) for s in seqs)
        exact = adapter_fusion_grads(model, seqs, MAX_LEN, np.float64)[1]
        g24 = adapter_fusion_grads(model, seqs, MAX_LEN)[1]
        for width in (w for w in (8, 16) if w >= longest):
            g = adapter_fusion_grads(model, seqs, width)[1]
            for name, ref in exact.items():
                bound = 10 * np.linalg.norm(g24[name] - ref) + 1e-5 * np.linalg.norm(ref)
                assert np.linalg.norm(g[name] - ref) <= bound, f"{name} @ {width}"


class TestTrainingPaths:
    """Stages that train the backbone keep the full width; the others bucket."""

    WORDS = [f"w{i}" for i in range(12)]

    @pytest.fixture
    def encode_widths(self, monkeypatch):
        widths = []
        real = encoder.encode

        def recording(leaves, ids, mask, config, adapter_hook=None):
            widths.append(ids.shape[1])
            return real(leaves, ids, mask, config, adapter_hook)

        monkeypatch.setattr(encoder, "encode", recording)
        monkeypatch.setattr(objectives, "encode", recording)
        return widths

    def sampler(self, batch_size, rng):
        return [PairItem(anchor_tokens=[self.WORDS[i], self.WORDS[i + 1]], anchor_lang="l0",
                         positive_tokens=[self.WORDS[i + 2]], positive_lang="l0")
                for i in rng.permutation(len(self.WORDS) - 2)[:batch_size]]

    def make(self):
        vocab = build_vocab([self.WORDS])
        config = EncoderConfig(layers=1, d_model=16, n_heads=2, ff_dim=16,
                               max_seq_len=MAX_LEN, vocab_size=len(vocab))
        hyper = TrainHyper(batch_size=4, steps=2, base_lr=1e-3, warmup_steps=1, seed=0)
        return vocab, config, hyper

    def test_pretrain_pads_to_max_seq_len(self, encode_widths):
        vocab, config, hyper = self.make()
        corpus = [("l0", self.WORDS[i:i + 3]) for i in range(8)]
        mlm_pretrain(corpus, config, hyper, seed=0, vocab=vocab)
        assert encode_widths == [MAX_LEN] * hyper.steps

    def test_finetune_pads_to_max_seq_len_and_fuse_buckets(self, encode_widths):
        vocab, config, hyper = self.make()
        adapted = fused_model(config)
        finetune_contrastive(adapted, self.sampler, vocab, hyper,
                             ["encoder.", "adapter.", "fusion."])
        assert encode_widths == [MAX_LEN] * hyper.steps
        encode_widths.clear()
        finetune_contrastive(adapted, self.sampler, vocab, hyper, ["fusion."])
        assert encode_widths == [8] * hyper.steps

    def test_integrate_buckets(self, encode_widths):
        vocab, config, hyper = self.make()
        train_adapter(fused_model(config), "EP", self.sampler, vocab, hyper)
        assert encode_widths == [8] * hyper.steps


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
    # a key bias adds the same q.bk to every score of a query, so its exact
    # gradient is 0 and a relative error there would measure only roundoff
    params.set_trainable("encoder.0.attn.bk", False)
    seqs = [TokenSeq(ids=list(rng.integers(4, 12, size=n)), lang="l0") for n in (3, 5, 2, 7)]
    ids, mask = padded(seqs, 8)

    def loss(leaves):
        states = encode(leaves, ids, mask, config, build_hook(model, leaves))
        pooled = pool(states.final, sentence_pool_weights(ids, mask))
        anchors, positives = ad.split(pooled, [2, 2], axis=0)
        return infonce(ContrastiveBatch(anchors, positives), tau=0.5)

    _, grads = ad.grad_eval(loss, params.astype(np.float64), dtype=np.float64)
    assert not grads["encoder.emb.pos"][8:].any() and grads["encoder.emb.pos"][:8].any()
    assert ad.gradcheck(loss, params, eps=1e-5) < 1e-5
