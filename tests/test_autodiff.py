"""Gradient engine checks: analytic cases, linearity, finite differences."""

import numpy as np
import pytest

from kgadapters import autodiff as ad
from kgadapters.autodiff import Tensor, grad_eval, gradcheck
from kgadapters.params import ParamSet


def make_params(**arrays):
    p = ParamSet()
    for name, arr in arrays.items():
        p.add(name, np.asarray(arr, dtype=np.float32))
    return p


class TestGradEval:
    def test_square_at_three(self):
        params = make_params(x=[3.0])
        loss, grads = grad_eval(lambda lv: ad.tsum(ad.mul(lv["x"], lv["x"])), params)
        assert loss == pytest.approx(9.0)
        assert grads["x"][0] == pytest.approx(6.0)

    def test_constant_gives_zero_grads(self):
        params = make_params(x=[1.0, 2.0])
        loss, grads = grad_eval(lambda lv: ad.tsum(ad.mul(lv["x"], 0.0)) + 5.0, params)
        assert loss == pytest.approx(5.0)
        np.testing.assert_array_equal(grads["x"], np.zeros(2, dtype=np.float32))

    def test_grads_cover_exactly_the_trainables(self):
        p = ParamSet()
        p.add("a", np.ones(3, dtype=np.float32), trainable=True)
        p.add("b", np.ones(3, dtype=np.float32), trainable=False)
        p.add("unused", np.ones(2, dtype=np.float32), trainable=True)
        _, grads = grad_eval(lambda lv: ad.tsum(ad.mul(lv["a"], lv["b"])), p)
        assert set(grads) == {"a", "unused"}
        np.testing.assert_array_equal(grads["unused"], np.zeros(2, dtype=np.float32))

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

            _, gf = grad_eval(f, params)
            _, gg = grad_eval(g, params)
            _, gc = grad_eval(combo, params)
            np.testing.assert_allclose(gc["x"], a * gf["x"] + b * gg["x"],
                                       rtol=1e-5, atol=1e-6)

    def test_shape_mismatch_names_op_and_shapes(self):
        params = make_params(x=np.ones((2, 3)))
        with pytest.raises(ad.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 3\)"):
            grad_eval(lambda lv: ad.tsum(ad.matmul(lv["x"], lv["x"])), params)

    def test_non_scalar_loss_rejected(self):
        params = make_params(x=np.ones(3))
        with pytest.raises(ad.ShapeError, match="scalar"):
            grad_eval(lambda lv: lv["x"], params)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_rejected(self):
        params = make_params(x=[0.0])
        with pytest.raises(ad.NumericError):
            grad_eval(lambda lv: ad.tsum(ad.div(Tensor(np.float32(1.0)), lv["x"])), params)


class TestGradcheck:
    def test_linear_function_nearly_exact(self):
        params = make_params(x=[0.3, -1.2, 2.0])
        w = Tensor(np.array([1.5, -0.5, 2.5], dtype=np.float32))
        err = gradcheck(lambda lv: ad.tsum(ad.mul(lv["x"], w)), params)
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

        assert gradcheck(loss, params) < 1e-4

    def test_layernorm_softmax_concat_composition(self):
        rng = np.random.default_rng(2)
        params = make_params(x=rng.standard_normal((2, 6)), g=np.ones(6), b=np.zeros(6))

        def loss(lv):
            y = ad.layer_norm(lv["x"], lv["g"], lv["b"])
            s = ad.softmax(y, axis=-1)
            both = ad.concat([y, s], axis=1)
            return ad.mean(ad.mul(both, both))

        assert gradcheck(loss, params) < 1e-4

    def test_gather_split_sqrt_ops(self):
        rng = np.random.default_rng(3)
        params = make_params(table=rng.uniform(0.5, 2.0, size=(5, 4)))
        idx = np.array([1, 3, 1])

        def loss(lv):
            rows = ad.gather(lv["table"], idx)
            a, b = ad.split(rows, [2, 2], axis=-1)
            return ad.tsum(ad.sqrt(ad.add(ad.mul(a, a), ad.mul(b, b))))

        assert gradcheck(loss, params) < 1e-4

    def test_cosine_rows_gradient(self):
        rng = np.random.default_rng(4)
        params = make_params(a=rng.standard_normal((3, 5)), b=rng.standard_normal((4, 5)))

        def loss(lv):
            return ad.mean(ad.cosine_rows(lv["a"], lv["b"]))

        assert gradcheck(loss, params) < 1e-4


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
