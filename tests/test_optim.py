"""Adam recurrence, warmup schedule and the training loop's freeze contract."""

import numpy as np
import pytest

from kgadapters import autodiff as ad
from kgadapters import optim
from kgadapters.errors import ConfigError, ContractViolation
from kgadapters.optim import AdamState, TrainHyper, adam_step, train, warmup_lr
from kgadapters.params import ParamSet


def scalar_params(value=0.5):
    p = ParamSet()
    p.add("w", np.array([value], dtype=np.float32))
    return p


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = scalar_params()
        before = p.get("w").copy()
        state = AdamState()
        adam_step(p, {"w": np.zeros(1, dtype=np.float32)}, state, lr=0.1)
        np.testing.assert_array_equal(p.get("w"), before)
        assert state.step == 1

    def test_first_step_bias_corrected(self):
        # m_hat = v_hat = 1 after one unit-gradient step, so the update is
        # -lr / (1 + eps) ~ -0.1
        p = scalar_params(0.0)
        state = AdamState()
        adam_step(p, {"w": np.ones(1, dtype=np.float32)}, state, lr=0.1)
        assert p.get("w")[0] == pytest.approx(-0.1, abs=1e-6)

    def test_two_identical_steps_follow_recurrence(self):
        p = scalar_params(0.5)
        state = AdamState()
        g = np.ones(1, dtype=np.float32)
        adam_step(p, {"w": g}, state, lr=0.1)
        adam_step(p, {"w": g}, state, lr=0.1)
        # hand recurrence: m2 = 0.19, v2 = 0.001999, and both bias-corrected
        # estimates are exactly 1, so each step moves by -0.1/(1+1e-8)
        assert state.m["w"][0] == pytest.approx(0.19, rel=1e-6)
        assert state.v["w"][0] == pytest.approx(0.001999, rel=1e-5)
        assert p.get("w")[0] == pytest.approx(0.5 - 0.2, abs=2e-6)
        assert state.step == 2

    def test_lr_zero_is_identity_on_params(self):
        rng = np.random.default_rng(0)
        p = ParamSet()
        p.add("w", rng.standard_normal((3, 4)).astype(np.float32))
        before = p.get("w").copy()
        state = AdamState()
        adam_step(p, {"w": rng.standard_normal((3, 4)).astype(np.float32)}, state, lr=0.0)
        np.testing.assert_array_equal(p.get("w"), before)
        assert state.step == 1

    def test_only_trainable_params_change(self):
        """Exactly the parameters the gradients name are updated and get
        moment buffers."""
        p = ParamSet()
        p.add("a", np.zeros(2, dtype=np.float32))
        p.add("b", np.zeros(2, dtype=np.float32))
        state = AdamState()
        adam_step(p, {"a": np.ones(2, dtype=np.float32)}, state, lr=0.1)
        assert not np.array_equal(p.get("a"), np.zeros(2))
        np.testing.assert_array_equal(p.get("b"), np.zeros(2, dtype=np.float32))
        assert set(state.m) == set(state.v) == {"a"}

    def test_non_finite_update_is_a_numeric_error(self):
        """The CLI maps it to exit 2, and the parameter keeps its value."""
        p = scalar_params()
        with pytest.raises(ad.NumericError, match="non-finite update for 'w'"):
            adam_step(p, {"w": np.ones(1, dtype=np.float32)}, AdamState(), lr=np.inf)
        np.testing.assert_array_equal(p.get("w"), [0.5])


def straight_adam(p, g, m, v, t, lr):
    """Adam over whole arrays, one pass per operation, in adam_step's
    operation order; returns the new parameter and moves m and v in place."""
    cast = p.dtype.type
    tmp = np.multiply(g, 1.0 - 0.9)
    m *= 0.9
    m += tmp
    tmp = np.multiply(g, g)
    tmp *= 1.0 - 0.999
    v *= 0.999
    v += tmp
    upd = np.divide(m, cast(1.0 - 0.9 ** t))
    upd *= cast(lr)
    tmp = np.divide(v, cast(1.0 - 0.999 ** t))
    np.sqrt(tmp, out=tmp)
    tmp += cast(1e-8)
    upd /= tmp
    return p - upd


# 2.5 of adam_step's blocks, as rows of 64, of 48 (which do not divide a
# block, so a block holds 1365 rows) and of 1
BLOCKED_SHAPES = [(optim._BLOCK * 5 // 2 // 64, 64), (optim._BLOCK * 5 // 2 // 48, 48),
                  (optim._BLOCK * 5 // 2,)]


def gradient(kind: str, shape: tuple, rng) -> np.ndarray:
    if kind == "transposed":
        return rng.standard_normal(shape[::-1]).astype(np.float32).T
    if kind == "broadcast":     # read-only, as tsum's backward hands it on
        return np.broadcast_to(rng.standard_normal(shape[-1]).astype(np.float32), shape)
    return rng.standard_normal(shape).astype(np.float32)


class TestBlockedAdam:
    """Bits are compared through `tobytes()`, which reads any layout in C order."""

    @pytest.mark.parametrize("shape", BLOCKED_SHAPES)
    @pytest.mark.parametrize("kind", ["contiguous", "transposed", "broadcast"])
    def test_blocks_match_the_straight_formula_bit_for_bit(self, shape, kind):
        rng = np.random.default_rng(len(shape) * 7 + shape[-1])
        p0 = rng.standard_normal(shape).astype(np.float32)
        params = ParamSet()
        params.add("w", p0.copy())
        state = AdamState()
        want, m, v = p0, np.zeros_like(p0), np.zeros_like(p0)
        for t, lr in enumerate([1e-3, 3e-2, 2e-3], start=1):
            g = gradient(kind, shape, rng)
            adam_step(params, {"w": g}, state, lr)
            want = straight_adam(want, g, m, v, t, lr)
            assert params.get("w").tobytes() == want.tobytes(), t
            assert state.m["w"].tobytes() == m.tobytes(), t
            assert state.v["w"].tobytes() == v.tobytes(), t
        assert params.get("w").flags.c_contiguous

    def test_fortran_ordered_parameter_updates_like_its_c_ordered_copy(self):
        """Blocks write into views of the moments; a flattened copy of a
        Fortran-ordered array would take the writes and lose them."""
        rng = np.random.default_rng(5)
        shape = BLOCKED_SHAPES[0]
        c_ordered, f_ordered = ParamSet(), ParamSet()
        c_ordered.add("w", rng.standard_normal(shape).astype(np.float32))
        f_ordered.add("w", np.asfortranarray(c_ordered.get("w")))
        c_state, f_state = AdamState(), AdamState()
        for _ in range(3):
            g = gradient("contiguous", shape, rng)
            adam_step(c_ordered, {"w": g}, c_state, 1e-2)
            adam_step(f_ordered, {"w": g}, f_state, 1e-2)
            assert f_ordered.get("w").tobytes() == c_ordered.get("w").tobytes()
        assert f_state.m["w"].tobytes() == c_state.m["w"].tobytes()
        assert f_state.v["w"].tobytes() == c_state.v["w"].tobytes()

    def test_nan_in_the_last_block_is_a_numeric_error(self):
        rng = np.random.default_rng(6)
        shape = BLOCKED_SHAPES[0]
        params = ParamSet()
        params.add("w", rng.standard_normal(shape).astype(np.float32))
        before = params.get("w").tobytes()
        g = gradient("contiguous", shape, rng)
        g[-1, -1] = np.nan
        with pytest.raises(ad.NumericError, match="non-finite update for 'w'"):
            adam_step(params, {"w": g}, AdamState(), 1e-3)
        assert params.get("w").tobytes() == before


class TestWarmup:
    def test_ramp_endpoint(self):
        assert warmup_lr(10_000, 1e-4, 10_000) == pytest.approx(1e-4)

    def test_step_zero(self):
        assert warmup_lr(0, 1e-4, 10_000) == 0.0

    def test_midpoint_interpolation(self):
        assert warmup_lr(5_000, 1e-4, 10_000) == pytest.approx(5e-5)

    def test_constant_after_warmup(self):
        assert warmup_lr(20_000, 1e-4, 10_000) == pytest.approx(1e-4)

    def test_monotone_non_decreasing(self):
        values = [warmup_lr(s, 3e-4, 17) for s in range(0, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_warmup(self):
        with pytest.raises(ValueError):
            warmup_lr(1, 1e-4, 0)


def two_group_params():
    p = ParamSet()
    p.add("encoder.w", np.array([1.0, -2.0], dtype=np.float32))
    p.add("fusion.w", np.array([0.5, 0.25], dtype=np.float32))
    return p


def square_loss_at():
    """Sum of squares of every parameter; the same closure at every step."""
    return lambda lv: ad.add(ad.tsum(ad.mul(lv["encoder.w"], lv["encoder.w"])),
                             ad.tsum(ad.mul(lv["fusion.w"], lv["fusion.w"])))


HYPER = TrainHyper(batch_size=1, steps=3, base_lr=0.1, warmup_steps=2)


class TestTrain:
    def test_trains_only_listed_groups(self, monkeypatch):
        stepped = []
        real_step = optim.adam_step

        def recording_step(params, grads, state, lr):
            stepped.append(sorted(grads))
            return real_step(params, grads, state, lr)

        monkeypatch.setattr(optim, "adam_step", recording_step)
        p = two_group_params()
        frozen = p.get("encoder.w").copy()
        curve = train(p, "fusion.", square_loss_at, HYPER)
        np.testing.assert_array_equal(p.get("encoder.w"), frozen)
        assert np.all(np.abs(p.get("fusion.w")) < [0.5, 0.25])
        assert stepped == [["fusion.w"]] * HYPER.steps
        assert [(s, lr) for s, lr, _ in curve] == [(1, 0.05), (2, 0.1), (3, 0.1)]
        assert curve[-1][2] < curve[0][2]

    def test_loss_at_called_once_per_step_in_order(self, monkeypatch):
        """Each step draws its batch before its update."""
        events = []
        real_step = optim.adam_step

        def loss_at():
            events.append("loss_at")
            return square_loss_at()

        def recording_step(params, grads, state, lr):
            events.append("adam_step")
            return real_step(params, grads, state, lr)

        monkeypatch.setattr(optim, "adam_step", recording_step)
        train(two_group_params(), "", loss_at, HYPER)
        assert events == ["loss_at", "adam_step"] * HYPER.steps

    def test_unmatched_groups_rejected(self):
        with pytest.raises(ConfigError, match="no parameters match train group 'adapter.'"):
            train(two_group_params(), "adapter.", square_loss_at, HYPER)

    def test_changed_frozen_parameter_raises(self, monkeypatch):
        real_step = optim.adam_step

        def faulty_step(params, grads, state, lr):
            out = real_step(params, grads, state, lr)
            params.set_data("encoder.w", params.get("encoder.w") + 1.0)
            return out

        monkeypatch.setattr(optim, "adam_step", faulty_step)
        with pytest.raises(ContractViolation, match="'encoder.w'"):
            train(two_group_params(), "fusion.", square_loss_at, HYPER)


def test_frozen_checks_the_bytes_of_the_names_it_holds():
    """Rebinding a held name to equal bytes passes, a name not held may
    change, and a held name that changes raises naming it and the block."""
    p = two_group_params()
    with optim.frozen(p, ["encoder.w"], "a test"):
        p.set_data("encoder.w", p.get("encoder.w").copy())
        p.set_data("fusion.w", p.get("fusion.w") * 2.0)
    with pytest.raises(ContractViolation,
                       match="frozen parameter 'encoder.w' changed during a test"):
        with optim.frozen(p, ["encoder.w"], "a test"):
            p.set_data("encoder.w", p.get("encoder.w") * 2.0)
