"""Adapter math, fusion attention, insertion and parameter accounting."""

import numpy as np
import pytest

from kgadapters import autodiff as ad
from kgadapters.adapters import (KINDS, LARGE, AdaptedEncoder, adapter_apply, build_hook,
                                 fusion_apply, init_fusion, insert_adapters, large_bottleneck)
from kgadapters.autodiff import Tensor
from kgadapters.encoder import EncoderConfig, encode_seqs, init_encoder_params


def layer_weights(d, b, rng=None, zero_up=False):
    rng = rng or np.random.default_rng(0)
    w = {
        "W_down": rng.standard_normal((d, b)).astype(np.float32),
        "b_down": rng.standard_normal(b).astype(np.float32),
        "W_up": np.zeros((b, d), dtype=np.float32) if zero_up
                else rng.standard_normal((b, d)).astype(np.float32) * 0.1,
        "b_up": np.zeros(d, dtype=np.float32),
    }
    return w


def adapter_forward(h: np.ndarray, weights: dict[str, np.ndarray]) -> np.ndarray:
    """adapter_apply of one layer slice {W_down, b_down, W_up, b_up} to a vector."""
    leaves = {f"adapter.X.0.{k}": Tensor(v) for k, v in weights.items()}
    return adapter_apply(Tensor(h), leaves, "X", 0).data


def fusion_forward(h: np.ndarray, adapter_outputs: list[np.ndarray],
                   qkv: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """fusion_apply of one position: (mixed output, weights over identity + adapters)."""
    leaves = {f"fusion.0.{k}": Tensor(v) for k, v in qkv.items()}
    outs = [Tensor(o.reshape(1, -1)) for o in adapter_outputs]
    mixed, a = fusion_apply(Tensor(h.reshape(1, -1)), outs, leaves, 0)
    return mixed.data.reshape(-1), a.data.reshape(-1)


class TestAdapterForward:
    def test_zero_up_projection_is_exact_identity(self):
        h = np.random.default_rng(1).standard_normal(16).astype(np.float32)
        out = adapter_forward(h, layer_weights(16, 4, zero_up=True))
        np.testing.assert_array_equal(out, h)

    def test_hand_gelu_value(self):
        # d = b = 1, all weights 1 or 0: output is 2 + gelu(2) = 2 + 2*Phi(2)
        w = {"W_down": np.array([[1.0]], dtype=np.float32),
             "b_down": np.zeros(1, dtype=np.float32),
             "W_up": np.array([[1.0]], dtype=np.float32),
             "b_up": np.zeros(1, dtype=np.float32)}
        out = adapter_forward(np.array([2.0], dtype=np.float32), w)
        assert out[0] == pytest.approx(3.9545, abs=1e-4)

    def test_output_dim_is_d_for_any_bottleneck(self):
        h = np.ones(12, dtype=np.float32)
        for b in (1, 3, 8, 24):
            out = adapter_forward(h, layer_weights(12, b))
            assert out.shape == (12,)


class TestFusionForward:
    def qkv_identity(self, d):
        eye = np.eye(d, dtype=np.float32)
        return {"Q": eye, "K": eye, "V": eye}

    def test_equal_outputs_give_uniform_weights_and_v_h(self):
        d = 6
        h = np.random.default_rng(2).standard_normal(d).astype(np.float32)
        outs = [h.copy() for _ in range(3)]
        mixed, weights = fusion_forward(h, outs, self.qkv_identity(d))
        np.testing.assert_allclose(weights, np.full(4, 0.25), atol=1e-6)
        np.testing.assert_allclose(mixed, h, rtol=1e-5)

    def test_hand_softmax_example(self):
        h = np.array([1.0, 0.0], dtype=np.float32)
        a1 = np.array([0.0, 1.0], dtype=np.float32)
        mixed, weights = fusion_forward(h, [a1], self.qkv_identity(2))
        e = np.e
        np.testing.assert_allclose(weights, [e / (e + 1), 1 / (e + 1)], atol=1e-6)
        np.testing.assert_allclose(mixed, [0.7311, 0.2689], atol=1e-4)

    def test_weights_sum_to_one_on_random_inputs(self):
        rng = np.random.default_rng(3)
        d = 8
        for _ in range(50):
            qkv = {k: rng.standard_normal((d, d)).astype(np.float32) for k in "QKV"}
            h = rng.standard_normal(d).astype(np.float32)
            outs = [rng.standard_normal(d).astype(np.float32) for _ in range(4)]
            _, weights = fusion_forward(h, outs, qkv)
            assert np.all(weights >= 0)
            assert abs(weights.sum() - 1.0) < 1e-6

    def test_matches_per_path_form_in_float64(self):
        """Random non-symmetric Q, K and V, four adapter outputs and several
        rows: the weights are softmax_n(<xQ, A_n K>) and the mix is
        sum_n a_n (A_n V), computed path by path, to 1e-12. Identity Q/K/V
        cannot tell K from its transpose; these can."""
        rng = np.random.default_rng(5)
        d, rows = 6, 7
        qkv = {k: rng.standard_normal((d, d)) for k in "QKV"}
        x = rng.standard_normal((rows, d))
        outs = [rng.standard_normal((rows, d)) for _ in range(4)]
        leaves = {f"fusion.0.{k}": Tensor(v) for k, v in qkv.items()}
        mixed, a = fusion_apply(Tensor(x), [Tensor(o) for o in outs], leaves, 0)
        paths = [x] + outs
        scores = np.stack([((x @ qkv["Q"]) * (p @ qkv["K"])).sum(axis=-1) for p in paths], axis=-1)
        want_a = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want_a /= want_a.sum(axis=-1, keepdims=True)
        want_mixed = sum(want_a[:, [n]] * (p @ qkv["V"]) for n, p in enumerate(paths))
        assert a.shape == (rows, 5) and mixed.shape == (rows, d)
        np.testing.assert_allclose(a.data, want_a, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mixed.data, want_mixed, rtol=0, atol=1e-12)

    def test_score_shift_invariance(self):
        # fusion weights come from a softmax, so a constant added to every
        # score cannot change them
        rng = np.random.default_rng(4)
        s = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        shifted = ad.add(s, 7.25)
        np.testing.assert_allclose(ad.softmax(s, axis=-1).data,
                                   ad.softmax(shifted, axis=-1).data, atol=1e-6)


def small_model(seed=0, kinds=list(KINDS), bottleneck=4):
    config = EncoderConfig(layers=2, d_model=16, n_heads=2, ff_dim=32,
                           max_seq_len=8, vocab_size=20)
    backbone = init_encoder_params(config, np.random.default_rng(seed))
    adapted = insert_adapters(backbone, kinds, bottleneck, seed + 1, config)
    return config, backbone, adapted


class TestInsertAdapters:
    def test_mode_none_reproduces_backbone_bitwise(self):
        config, backbone, adapted = small_model()
        seqs = [[4, 5, 6]]
        plain, _, _ = encode_seqs(backbone, seqs, config)
        leaves = ad.make_leaves(adapted.params, grad=False)
        hook = build_hook(adapted, leaves)
        assert hook is None
        adapted_states, _, _ = encode_seqs(adapted.params, seqs, config, adapter_hook=hook)
        np.testing.assert_array_equal(plain.final.data, adapted_states.final.data)

    def test_fresh_adapter_changes_outputs_below_init_bound(self):
        rng = np.random.default_rng(5)
        config, _, adapted = small_model()
        h = rng.standard_normal(16).astype(np.float32)
        leaves = ad.make_leaves(adapted.params, grad=False)
        out = adapter_apply(Tensor(h), leaves, "EP", 0).data
        assert np.linalg.norm(out - h) < 1e-2 * np.linalg.norm(h)

    def test_four_kinds_give_n_four(self):
        _, _, adapted = small_model()
        assert len(adapted.kinds) == 4

    def test_duplicate_kind_rejected(self):
        config, backbone, _ = small_model()
        with pytest.raises(ValueError, match="duplicate"):
            insert_adapters(backbone, ["EP", "EP"], 4, 0, config)

    def test_mode_read_from_parameter_names(self):
        config, backbone, adapted = small_model(kinds=["TP", "EP"])
        assert (adapted.mode, adapted.kinds) == ("none", ["EP", "TP"])
        with pytest.raises(ValueError, match="'none' mode"):
            adapted.with_mode("single")
        _, _, single = small_model(kinds=[LARGE])
        assert (single.mode, single.kinds) == ("single", [LARGE])
        assert single.with_mode("single") is single
        fused = init_fusion(adapted, seed=9)
        assert (fused.mode, fused.kinds) == ("fusion", ["EP", "TP"])
        assert AdaptedEncoder(config, backbone).mode == "none"


class TestFusionInModel:
    def test_fusion_weights_normalized_at_every_layer_and_position(self):
        _, _, adapted = small_model()
        adapted = init_fusion(adapted, seed=9).with_mode("fusion")
        record = {}
        leaves = ad.make_leaves(adapted.params, grad=False)
        hook = build_hook(adapted, leaves, fusion_record=record)
        seqs = [[4, 5, 6, 7], [8, 9]]
        encode_seqs(adapted.params, seqs, adapted.config, adapter_hook=hook)
        assert set(record) == {0, 1}
        real_tokens = sum(map(len, seqs))
        for a in record.values():
            assert a.shape == (real_tokens, 5)      # identity + four adapters
            assert np.all(a >= 0)
            np.testing.assert_allclose(a.sum(axis=-1), 1.0, atol=1e-6)

    def test_fusion_mode_without_fusion_params_rejected(self):
        _, _, adapted = small_model()
        with pytest.raises(ValueError, match="fusion"):
            adapted.with_mode("fusion")


def size(params, prefix: str) -> int:
    """Number of scalars in the parameter group `prefix`."""
    return sum(params.get(n).size for n in params.names(prefix))


class TestParamCounts:
    def test_closed_form_reference_value(self):
        # four adapters of width 8 plus fusion at the BERT-base width
        config = EncoderConfig(layers=12, d_model=768, n_heads=12, ff_dim=3072)
        assert large_bottleneck(config, 4, 8) == 1184

    def test_enumeration_matches_closed_form(self):
        """The largest b' with L*(2*d*b' + b' + d) <= n*L*(2*d*b + b + d) +
        3*L*d*d, found by search, at every L: the layer count cancels, and
        b' is never below b."""
        for layers in (1, 2, 3, 12):
            for d in (1, 2, 16, 33):
                for n in (1, 2, 4):
                    for b in (1, 4, 8):
                        budget = n * layers * (2 * d * b + b + d) + 3 * layers * d * d
                        want = 0
                        while layers * (2 * d * (want + 1) + want + 1 + d) <= budget:
                            want += 1
                        config = EncoderConfig(layers=layers, d_model=d, n_heads=1, ff_dim=1)
                        assert large_bottleneck(config, n, b) == want >= b, (layers, d, n, b)

    def test_bottleneck_monotonicity(self):
        config, _, _ = small_model()
        assert large_bottleneck(config, 4, 8) > large_bottleneck(config, 4, 4)
        assert large_bottleneck(config, 4, 4) > large_bottleneck(config, 2, 4)


class TestLargeAdapter:
    def test_four_plus_fusion_budget_exceeds_four_b_small(self):
        config, _, _ = small_model()
        assert large_bottleneck(config, 4, 4) > 4 * 4

    def test_maximality_within_one_increment(self):
        """Counted on real models: LARGE at b' fits the parameters of n
        adapters of width 4 plus fusion, and at b' + 1 it does not."""
        for n in (1, 2, 4):
            config, backbone, adapted = small_model(kinds=list(KINDS[:n]))
            adapted = init_fusion(adapted, seed=3)
            reference = size(adapted.params, "adapter.") + size(adapted.params, "fusion.")
            b = large_bottleneck(config, n, 4)
            for width, fits in ((b, True), (b + 1, False)):
                large = insert_adapters(backbone, [LARGE], width, seed=11, config=config)
                assert large.params.get("adapter.LARGE.0.W_down").shape[1] == width
                assert (size(large.params, "adapter.LARGE.") <= reference) == fits, (n, width)
