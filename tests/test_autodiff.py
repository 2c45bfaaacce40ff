"""Gradient engine checks: analytic cases, linearity, finite differences,
and the tape's ownership rule: gradients are handed on without copies, and
backward releases each interior node once it has run."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgadapters import autodiff as ad
from kgadapters.autodiff import Tensor, grad_eval, gradcheck
from kgadapters.encoder import (EncoderConfig, init_encoder_params, make_mlm_batch, mlm_loss,
                                pad_batch)
from kgadapters.params import ParamSet


def make_params(**arrays):
    p = ParamSet()
    for name, arr in arrays.items():
        p.add(name, np.asarray(arr, dtype=np.float32))
    return p


class TestGradEval:
    def test_square_at_three(self):
        params = make_params(x=[3.0])
        loss, grads = grad_eval(lambda lv: ad.tsum(ad.mul(lv["x"], lv["x"])), params, ["x"])
        assert loss == pytest.approx(9.0)
        assert grads["x"][0] == pytest.approx(6.0)

    def test_constant_gives_zero_grads(self):
        params = make_params(x=[1.0, 2.0])
        loss, grads = grad_eval(lambda lv: ad.add(ad.tsum(ad.mul(lv["x"], 0.0)), 5.0), params,
                                ["x"])
        assert loss == pytest.approx(5.0)
        np.testing.assert_array_equal(grads["x"], np.zeros(2, dtype=np.float32))

    def test_grads_cover_exactly_the_trainables(self):
        """Exactly the given names, in the order given, zero where the loss
        does not read them; a parameter the loss reads but the caller did
        not name gets no entry."""
        p = make_params(a=[1.0, 2.0], b=[3.0, -1.0], unused=np.ones(2))
        loss, grads = grad_eval(lambda lv: ad.tsum(ad.mul(lv["a"], lv["b"])), p, ["unused", "a"])
        assert loss == 1.0
        assert list(grads) == ["unused", "a"]
        np.testing.assert_array_equal(grads["unused"], np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(grads["a"], p.get("b"))

    def test_linearity_of_gradients(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(5).astype(np.float32)
            w = rng.standard_normal((5, 5)).astype(np.float32)
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            params = make_params(x=x)

            def f(lv):
                return ad.tsum(ad.gelu(ad.matmul(ad.reshape(lv["x"], (1, 5)), Tensor(w))))

            def g(lv):
                return ad.tsum(ad.mul(lv["x"], lv["x"]))

            def combo(lv):
                return ad.add(ad.mul(f(lv), a), ad.mul(g(lv), b))

            _, gf = grad_eval(f, params, ["x"])
            _, gg = grad_eval(g, params, ["x"])
            _, gc = grad_eval(combo, params, ["x"])
            np.testing.assert_allclose(gc["x"], a * gf["x"] + b * gg["x"],
                                       rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_op_and_shapes(self):
        params = make_params(x=np.ones((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            grad_eval(lambda lv: ad.tsum(ad.matmul(lv["x"], lv["x"])), params, ["x"])

    def test_non_scalar_loss_rejected(self):
        params = make_params(x=np.ones(3))
        with pytest.raises(ad.ShapeError, match="scalar"):
            grad_eval(lambda lv: lv["x"], params, ["x"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_rejected(self):
        params = make_params(x=[0.0])
        with pytest.raises(ad.NumericError):
            grad_eval(lambda lv: ad.tsum(ad.div(Tensor(np.float32(1.0)), lv["x"])), params,
                      ["x"])


class TestGradcheck:
    def test_linear_function_nearly_exact(self):
        params = make_params(x=[0.3, -1.2, 2.0])
        w = Tensor(np.array([1.5, -0.5, 2.5], dtype=np.float32))
        err = gradcheck(lambda lv: ad.tsum(ad.mul(lv["x"], w)), params, ["x"])
        assert err < 1e-6

    def test_softmax_cross_entropy_toy(self):
        rng = np.random.default_rng(1)
        params = make_params(w=rng.standard_normal((4, 3)), x=rng.standard_normal(4))
        onehot = np.zeros(3, dtype=np.float32)
        onehot[1] = 1.0

        def loss(lv):
            logits = ad.matmul(ad.reshape(lv["x"], (1, 4)), lv["w"])
            logp = ad.log_softmax(logits, axis=-1)
            return ad.mul(ad.tsum(ad.mul(logp, Tensor(onehot))), -1.0)

        assert gradcheck(loss, params, params.names()) < 1e-4

    def test_layernorm_softmax_concat_composition(self):
        rng = np.random.default_rng(2)
        params = make_params(x=rng.standard_normal((2, 6)), g=np.ones(6), b=np.zeros(6))

        def loss(lv):
            y = ad.layer_norm(lv["x"], lv["g"], lv["b"])
            s = ad.softmax(y, axis=-1)
            both = ad.concat([y, s], axis=1)
            return ad.tsum(ad.mul(both, both))

        assert gradcheck(loss, params, params.names()) < 1e-4

    def test_gather_split_sqrt_ops(self):
        rng = np.random.default_rng(3)
        params = make_params(table=rng.uniform(0.5, 2.0, size=(5, 4)))
        idx = np.array([1, 3, 1])

        def loss(lv):
            rows = ad.gather(lv["table"], idx)
            a, b = ad.split(rows, [2, 2], axis=-1)
            return ad.tsum(ad.sqrt(ad.add(ad.mul(a, a), ad.mul(b, b))))

        assert gradcheck(loss, params, params.names()) < 1e-4

    def test_take_and_put_rows(self):
        rng = np.random.default_rng(5)
        params = make_params(x=rng.standard_normal((6, 3)))
        idx = np.array([0, 2, 5])

        def loss(lv):
            rows = ad.take_rows(lv["x"], idx)
            back = ad.put_rows(ad.mul(rows, rows), idx, 6)
            return ad.tsum(ad.mul(back, lv["x"]))

        assert gradcheck(loss, params, params.names()) < 1e-4

    @pytest.mark.parametrize("idx", [[2, 1], [1, 1], [0, 6], [-1, 2]])
    def test_row_ops_reject_unordered_or_out_of_range_indexes(self, idx):
        x = Tensor(np.zeros((6, 2), dtype=np.float32))
        with pytest.raises(ad.ShapeError, match="ascending"):
            ad.take_rows(x, np.array(idx))
        with pytest.raises(ad.ShapeError, match="ascending"):
            ad.put_rows(Tensor(np.zeros((2, 2), dtype=np.float32)), np.array(idx), 6)

    def test_cosine_rows_gradient(self):
        rng = np.random.default_rng(4)
        params = make_params(a=rng.standard_normal((3, 5)), b=rng.standard_normal((4, 5)))

        def loss(lv):
            return ad.tsum(ad.cosine_rows(lv["a"], lv["b"]))

        assert gradcheck(loss, params, params.names()) < 1e-4


def copying_accumulate(t: Tensor, g: np.ndarray) -> None:
    """The reference `_accumulate`: it copies the first arrival and adds
    later ones into that copy in place, so no gradient array is shared."""
    if not (t.requires_grad or t._parents):
        return
    if t.grad is None:
        t.grad = g.astype(t.dtype, copy=True)
    else:
        t.grad += g


def grads_handed_on_and_copied(loss_fn, params, trainable):
    """The gradients of `trainable`, once as `_accumulate` hands arrivals on
    and once with `copying_accumulate` in its place."""
    _, handed_on = grad_eval(loss_fn, params, trainable)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ad, "_accumulate", copying_accumulate)
        _, copied = grad_eval(loss_fn, params, trainable)
    return handed_on, copied


def assert_same_bits(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, g in want.items():
        assert (got[name].dtype, got[name].shape) == (g.dtype, g.shape)
        assert got[name].tobytes() == g.tobytes(), name


def weighted(node: Tensor, w: np.ndarray) -> Tensor:
    """A scalar whose gradient at node is w, so that no two entries agree."""
    return ad.tsum(ad.mul(node, Tensor(w)))


def mlm_case():
    """The parameters and `mlm_loss` closure of one MLM step: one layer,
    V=4096, d=32, 16 rows of 4 tokens, 10 of them masked."""
    config = EncoderConfig(layers=1, d_model=32, n_heads=4, ff_dim=64, max_seq_len=24,
                           vocab_size=4096)
    rng = np.random.default_rng(0)
    params = init_encoder_params(config, rng)
    ids, mask = pad_batch([list(rng.integers(5, 4096, size=4)) for _ in range(16)], config)
    corrupted, rows, cols, targets = make_mlm_batch(ids, mask, config, rng)
    assert len(targets) == 10
    return params, lambda lv: mlm_loss(lv, corrupted, mask, rows, cols, targets, config)


# graphs in which one node receives several gradients, or one gradient array
# reaches several nodes; each maps leaves x, y of shape (3, 4) to (3, 4)
SHARED = {
    "add_self": lambda x, y: ad.add(x, x),
    "mul_self": lambda x, y: ad.mul(x, x),
    "two_consumers": lambda x, y: (lambda h: ad.add(ad.mul(h, y), ad.softmax(h)))(ad.gelu(x)),
    "concat_split": lambda x, y: (lambda a, b: ad.add(ad.mul(a, b), b))(
        *ad.split(ad.concat([x, ad.mul(x, y)], axis=1), [4, 4], axis=1)),
    # the inner add hands one array to x, which already holds a gradient, and to y
    "add_one_array_to_both": lambda x, y: ad.add(ad.add(x, y), x),
    "tsum_broadcast": lambda x, y: ad.add(ad.mul(x, y), ad.tsum(x, axis=-1, keepdims=True)),
}


class TestHandedOnGradients:
    def test_backward_releases_interior_nodes_and_leaves_keep_grads(self):
        rng = np.random.default_rng(7)
        params = make_params(x=rng.standard_normal((3, 4)), y=rng.standard_normal((3, 4)))
        kept = {}

        def loss(lv):
            kept.update(lv)
            kept["h"] = ad.gelu(ad.mul(lv["x"], lv["y"]))
            kept["loss"] = ad.tsum(ad.add(kept["h"], lv["x"]))
            return kept["loss"]

        _, grads = grad_eval(loss, params, ["x", "y"])
        for name in ("h", "loss"):
            node = kept[name]
            assert (node.grad, node._backward, node._parents) == (None, None, ()), name
        assert kept["x"].grad is grads["x"]
        assert kept["y"].grad is grads["y"]

    @pytest.mark.parametrize("graph", sorted(SHARED))
    def test_shared_subexpressions_match_copying_accumulate(self, graph):
        rng = np.random.default_rng(8)
        params = make_params(x=rng.standard_normal((3, 4)), y=rng.standard_normal((3, 4)))
        w = rng.standard_normal((3, 4)).astype(np.float32)
        handed_on, copied = grads_handed_on_and_copied(
            lambda lv: weighted(SHARED[graph](lv["x"], lv["y"]), w), params, ["x", "y"])
        assert_same_bits(handed_on, copied)

    def test_float64_arrival_is_summed_in_float64_and_rounded_once(self):
        """1 + (2**-24 + 2**-50) is above the tie between 1 and the float32
        after it, so `+=` rounds it up. Rounding the arrival to float32 first
        would give the tie 1 + 2**-24, which rounds to even, down to 1."""
        first = np.ones(2, dtype=np.float32)
        second = np.full(2, 2.0 ** -24 + 2.0 ** -50)
        t = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        ad._accumulate(t, first)
        ad._accumulate(t, second)
        in_place = np.ones(2, dtype=np.float32)
        in_place += second
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == in_place.tobytes()
        np.testing.assert_array_equal(t.grad, np.float32(1.0 + 2.0 ** -23))
        np.testing.assert_array_equal(first, np.ones(2, dtype=np.float32))

    def test_mlm_grad_eval_heap_peak_in_token_tables(self):
        """The tracemalloc peak of one `grad_eval` of `mlm_loss`, above its
        entry, counted in token tables ([V, d] float32) with every parameter
        trainable: 7.24 tables when backward kept every interior gradient and
        copied each first arrival, 3.19 when it stopped, 3.14 since
        `log_softmax` reuses its buffers. The case is `mlm_case`'s."""
        params, loss = mlm_case()
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            grad_eval(loss, params, params.names())
            peak = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert peak / params.get("encoder.emb.tok").nbytes < 5.0


class TestWeightGradientLayout:
    """`matmul` computes the gradient of a 2-D weight that is a transposed
    view (the tied head's `swapaxes(emb.tok)`, `cosine_rows`'s second
    operand) as (g.T @ a).T, in the weight's own layout, instead of a.T @ g."""

    @pytest.mark.parametrize("m, n", [(64, 18263), (64, 2100), (64, 32), (32, 32), (64, 128)])
    def test_transposed_product_has_the_same_float32_bits(self, m, n):
        """The BLAS property the rule rests on, for a [k, m] and g [k, n]:
        the tied head at d 64 over an 18k and a 2.1k vocabulary, InfoNCE's
        32 x 32 cosines, and two other widths. Only float32 bits are
        promised: at float64, 126 of these 335 cases differ in the last bits
        (OpenBLAS 0.3.31, SkylakeX kernels), so a float64 weight gradient may
        move, and `gradcheck`, which runs at float64, stays tolerance-based."""
        rng = np.random.default_rng(m * n)
        a_rows = rng.standard_normal((512, m)).astype(np.float32)
        g_rows = rng.standard_normal((512, n)).astype(np.float32)
        for k in [*range(1, 65), 128, 256, 512]:
            a, g = a_rows[:k], g_rows[:k]
            assert (g.T @ a).T.tobytes() == (a.T @ g).tobytes(), k

    def test_tied_table_gradient_is_c_contiguous(self):
        params, loss = mlm_case()
        _, grads = grad_eval(loss, params, params.names())
        assert grads["encoder.emb.tok"].flags.c_contiguous

    def test_weight_read_through_swapaxes_gets_a_gradient_in_its_layout(self):
        """Its one arrival is stored as it comes, so it shows the layout that
        the matmul backward computed: C-ordered, as the weight is."""
        rng = np.random.default_rng(3)
        params = make_params(a=rng.standard_normal((5, 8)), w=rng.standard_normal((6, 8)))
        r = rng.standard_normal((5, 6)).astype(np.float32)
        _, grads = grad_eval(lambda lv: weighted(ad.matmul(lv["a"], ad.swapaxes(lv["w"], 0, 1)), r),
                             params, ["a", "w"])
        assert grads["w"].flags.c_contiguous
        assert grads["w"].tobytes() == (params.get("a").T @ r).T.tobytes()


class TestLogSoftmaxBuffers:
    def test_same_bits_as_the_expression_form(self):
        """`log_softmax` reuses its buffers; its output and gradient keep the
        bits of z - log(sum(exp(z))) and g - exp(out) * sum(g)."""
        rng = np.random.default_rng(4)
        x = (4 * rng.standard_normal((7, 300))).astype(np.float32)
        w = rng.standard_normal((7, 300)).astype(np.float32)
        kept = {}

        def loss(lv):
            node = ad.log_softmax(lv["x"], axis=-1)
            kept["out"] = node.data
            return weighted(node, w)

        _, grads = grad_eval(loss, make_params(x=x), ["x"])
        z = x - x.max(axis=-1, keepdims=True)
        out = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        assert kept["out"].tobytes() == out.tobytes()
        assert grads["x"].tobytes() == (w - np.exp(out) * w.sum(axis=-1, keepdims=True)).tobytes()


# a random graph's ops on (3, 4) nodes; each binary op reads both operands
OPS = {
    "add": ad.add,
    "mul": ad.mul,
    "gelu": lambda a, b: ad.gelu(a),
    "softmax": lambda a, b: ad.softmax(a, axis=-1),
    "log_softmax": lambda a, b: ad.log_softmax(a, axis=0),
    "layer_norm": lambda a, b: ad.layer_norm(a, Tensor(np.ones(4, dtype=np.float32)),
                                             Tensor(np.zeros(4, dtype=np.float32))),
    "row_sum": lambda a, b: ad.add(b, ad.tsum(a, axis=-1, keepdims=True)),
    "transpose": lambda a, b: ad.reshape(ad.swapaxes(ad.reshape(a, (4, 3)), 0, 1), (3, 4)),
    "concat_split": lambda a, b: ad.add(*ad.split(ad.concat([a, b], axis=1), [4, 4], axis=1)),
    "gather": lambda a, b: ad.gather(a, np.array([2, 0, 2])),
    "rows": lambda a, b: ad.put_rows(ad.take_rows(a, np.array([0, 2])), np.array([0, 2]), 3),
}


class TestRandomGraphs:
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(OPS)), st.integers(0, 63),
                              st.integers(0, 63)), min_size=1, max_size=6),
           st.integers(0, 2**32 - 1))
    def test_grads_match_copying_accumulate(self, steps, seed):
        """Every node feeds the loss as well as the ops that pick it, so most
        nodes receive several gradients; z is a leaf that trains nothing."""
        rng = np.random.default_rng(seed)
        params = make_params(**{n: rng.uniform(-1, 1, (3, 4)) for n in "xyz"})
        w = rng.standard_normal((3, 4)).astype(np.float32)

        def loss(lv):
            nodes = [lv["x"], lv["y"], lv["z"]]
            for op, i, j in steps:
                nodes.append(OPS[op](nodes[i % len(nodes)], nodes[j % len(nodes)]))
            total = weighted(nodes[3], w)
            for node in nodes[4:]:
                total = ad.add(total, weighted(node, w))
            return total

        handed_on, copied = grads_handed_on_and_copied(loss, params, ["x", "y"])
        assert_same_bits(handed_on, copied)


def cosine(x, y) -> float:
    """cosine_rows of two float64 vectors as a single value."""
    rows = ad.cosine_rows(Tensor(np.asarray([x], dtype=np.float64)),
                          Tensor(np.asarray([y], dtype=np.float64)))
    return float(rows.data[0, 0])


class TestCosineSim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.standard_normal(8)
            assert cosine(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine([1.0, 0.0], [0.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_zero_norm_returns_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.cosine_rows(Tensor(np.ones((1, 1))), Tensor(np.ones((1, 2))))


class TestOpOutputsFinite:
    def test_random_graphs_stay_finite(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            x = Tensor(rng.standard_normal((3, 7)).astype(np.float32))
            g = Tensor(np.ones(7, dtype=np.float32))
            b = Tensor(np.zeros(7, dtype=np.float32))
            y = ad.softmax(ad.layer_norm(ad.gelu(x), g, b), axis=-1)
            assert np.isfinite(y.data).all()


def window(center, k: int = 4) -> np.ndarray:
    """A float32 away from 0 and its k float32 neighbours on each side."""
    bits = np.array(center, dtype=np.float32).view(np.int32) + np.arange(-k, k + 1, dtype=np.int32)
    return bits.view(np.float32)


def only_the_minus_inf_warning(compute) -> np.ndarray:
    """compute(), asserting that its one warning is the final product's
    -inf * Phi(-inf) = -inf * 0, which is NaN."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = compute()
    assert [str(w.message) for w in caught] == ["invalid value encountered in multiply"]
    return out


class TestGeluBits:
    # the branches of fdlibm's erf, on erf's argument x / sqrt(2); fdlibm
    # splits at 1/0.35 with the low 32 bits cleared, two float32 ulps above
    BOUNDARIES = (0.84375, 1.25, 1 / 0.35, 2.857143402099609375, 6.0)

    def test_float32_forward_is_double_erf_rounded_to_float32(self):
        """Bit for bit the GELU of a double-precision erf rounded to float32,
        as with scipy's float32 erf. Inputs: every branch boundary, both as
        the GELU input and scaled so that erf's argument straddles it, with
        their neighbours; subnormals, signed zeros, infinities, NaN, and 1e5
        seeded values; each with both signs."""
        c = np.float32(math.sqrt(0.5))
        parts = []
        for b in self.BOUNDARIES:
            scaled = window(np.float32(b / c))
            assert (scaled * c).min() < b <= (scaled * c).max()
            parts += [window(np.float32(b)), scaled]
        subnormal = np.array([1e-45, 1e-40, 1.1754942e-38], dtype=np.float32)
        special = np.array([0.0, np.inf, np.nan], dtype=np.float32)
        rng = np.random.default_rng(18)
        spread = rng.choice(np.array([0.1, 1.0, 4.0], dtype=np.float32), 100_000)
        seeded = rng.standard_normal(100_000, dtype=np.float32) * spread
        x = np.concatenate(parts + [subnormal, special, seeded])
        x = np.concatenate([x, -x])

        erf = np.array([math.erf(v) for v in (x * c).tolist()], dtype=np.float32)
        ref = only_the_minus_inf_warning(lambda: x * (np.float32(0.5) * (np.float32(1) + erf)))
        out = only_the_minus_inf_warning(lambda: ad.gelu(Tensor(x)).data)
        assert out.dtype == np.float32
        nan = np.isnan(ref)
        np.testing.assert_array_equal(np.isnan(out), nan)
        np.testing.assert_array_equal(out[~nan].view(np.uint32), ref[~nan].view(np.uint32))

    def test_float64_erf_within_two_ulp(self):
        """The float64 erf behind gelu (gradcheck's dtype) is within 2 ulp of
        math.erf, with no warning for infinities or for x whose square
        overflows. Read from the private erf: in GELU, 1 + erf cancels for
        negative x, so an ulp bound on erf does not carry over."""
        rng = np.random.default_rng(18)
        parts = [np.array([b, np.nextafter(b, 0.0), np.nextafter(b, 7.0)])
                 for b in self.BOUNDARIES]
        parts += [np.array([5e-324, 1e-310, 2.0 ** -29, 1e200, np.inf, 0.0]),
                  rng.standard_normal(100_000) * rng.choice([0.1, 1.0, 4.0], 100_000)]
        x = np.concatenate(parts)
        x = np.concatenate([x, -x])
        out = ad._erf(x)
        ref = np.array([math.erf(v) for v in x.tolist()])
        assert out.dtype == np.float64
        assert np.all(np.abs(out - ref) <= 2 * np.spacing(np.abs(ref)))
        assert np.isnan(ad._erf(np.array([np.nan]))).all()
