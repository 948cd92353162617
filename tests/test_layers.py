import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppgemo.errors import ConfigError, ShapeError, StateError
from ppgemo.nn import (
    BatchNorm1d,
    Conv1d,
    Conv1dSpec,
    Dense,
    Dropout,
    GlobalMaxPool,
    Lstm,
    MaxPool1d,
    softmax,
)
from ppgemo.nn.layers import BN_EPSILON
from oracles import maxpool


class TestConv1d:
    def test_same_padding_output_length(self, rng):
        conv = Conv1d(1, Conv1dSpec(8, 64, stride=4, padding="same", activation="relu"), rng)
        out = conv.forward(rng.standard_normal((1, 6000, 1)))
        assert out.shape == (1, 1500, 8)

    def test_same_padding_length_property(self, rng):
        for _ in range(200):
            t = int(rng.integers(1, 60))
            k = int(rng.integers(1, 9))
            s = int(rng.integers(1, 5))
            conv = Conv1d(2, Conv1dSpec(3, k, stride=s), rng)
            out = conv.forward(rng.standard_normal((1, t, 2)))
            assert out.shape[1] == -(-t // s)

    def test_identity_kernel(self, rng):
        conv = Conv1d(1, Conv1dSpec(1, 1, stride=1), rng)
        conv.params["W"][...] = 1.0
        conv.params["b"][...] = 0.0
        x = rng.standard_normal((2, 10, 1))
        np.testing.assert_allclose(conv.forward(x), x)

    def test_zero_input_relu_bias(self, rng):
        conv = Conv1d(2, Conv1dSpec(4, 3, activation="relu"), rng)
        conv.params["b"][...] = [-1.0, 2.0, 0.5, -0.1]
        out = conv.forward(np.zeros((1, 8, 2)))
        expected = np.maximum(conv.params["b"], 0.0)
        np.testing.assert_allclose(out, np.broadcast_to(expected, out.shape))

    def test_causal_never_sees_future(self, rng):
        conv = Conv1d(1, Conv1dSpec(2, 3, padding="causal"), rng)
        x = rng.standard_normal((1, 20, 1))
        base = conv.forward(x)
        bumped = x.copy()
        bumped[0, 12, 0] += 5.0
        out = conv.forward(bumped)
        np.testing.assert_array_equal(out[:, :12, :], base[:, :12, :])
        assert not np.allclose(out[:, 12:, :], base[:, 12:, :])

    def test_shape_error_names_expectation(self, rng):
        conv = Conv1d(3, Conv1dSpec(2, 3), rng)
        with pytest.raises(ShapeError, match="3"):
            conv.forward(np.zeros((1, 10, 2)))

    def test_without_input_grad_backward_fills_the_same_param_grads(self, rng):
        spec = Conv1dSpec(8, 64, stride=4, padding="same", activation="relu")
        x = rng.standard_normal((3, 600, 1))
        dy = rng.standard_normal((3, 150, 8))
        grads = {}
        for input_grad in (True, False):
            conv = Conv1d(1, spec, np.random.default_rng(5), input_grad=input_grad)
            conv.forward(x)
            dx = conv.backward(dy)
            assert (dx is None) is not input_grad
            grads[input_grad] = conv.grads
        for name in ("W", "b"):
            np.testing.assert_array_equal(grads[False][name], grads[True][name])

    def test_causal_requires_stride_one(self):
        with pytest.raises(ConfigError, match="stride"):
            Conv1dSpec(2, 3, stride=2, padding="causal")


class TestMaxPool1d:
    def test_basic(self):
        pool = MaxPool1d(2)
        x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
        np.testing.assert_array_equal(pool.forward(x).ravel(), [3.0, 5.0])

    def test_odd_length_drops_remainder(self, rng):
        pool = MaxPool1d(2)
        out = pool.forward(rng.standard_normal((1, 375, 16)))
        assert out.shape == (1, 187, 16)

    def test_constant_input(self):
        pool = MaxPool1d(3)
        out = pool.forward(np.full((2, 9, 2), 7.0))
        np.testing.assert_array_equal(out, np.full((2, 3, 2), 7.0))

    def test_length_property(self, rng):
        for _ in range(200):
            t = int(rng.integers(1, 50))
            p = int(rng.integers(1, min(t, 6) + 1))
            pool = MaxPool1d(p)
            out = pool.forward(rng.standard_normal((1, t, 1)))
            assert out.shape[1] == t // p

    def test_too_short(self):
        with pytest.raises(ShapeError):
            MaxPool1d(4).forward(np.zeros((1, 3, 1)))


class TestBatchNorm1d:
    def test_train_normalizes_per_channel(self, rng):
        bn = BatchNorm1d(3)
        x = rng.standard_normal((4, 50, 3)) * 5.0 + 2.0
        out = bn.forward(x, "train")
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 1)), 1.0, atol=2e-3)

    def test_infer_uses_running_stats(self):
        bn = BatchNorm1d(1)
        bn.buffers["running_mean"][...] = 1.0
        bn.buffers["running_var"][...] = 4.0
        bn.buffers["seen_batch"][...] = 1.0
        bn.params["gamma"][...] = 2.0
        bn.params["beta"][...] = 3.0
        out = bn.forward(np.full((1, 1, 1), 5.0), "infer")
        want = 2.0 * 4.0 / np.sqrt(4.0 + BN_EPSILON) + 3.0
        assert out.ravel()[0] == pytest.approx(want, abs=1e-12)

    def test_already_normalized_input_nearly_unchanged(self, rng):
        bn = BatchNorm1d(2)
        x = rng.standard_normal((8, 100, 2))
        x = (x - x.mean(axis=(0, 1))) / x.std(axis=(0, 1))
        out = bn.forward(x, "train")
        np.testing.assert_allclose(out, x, atol=3e-3)

    def test_infer_before_any_batch_raises(self):
        bn = BatchNorm1d(2)
        with pytest.raises(StateError):
            bn.forward(np.zeros((1, 4, 2)), "infer")

    def test_first_batch_seeds_running_stats(self, rng):
        bn = BatchNorm1d(2)
        x = rng.standard_normal((4, 30, 2)) * 3.0 + 1.0
        bn.forward(x, "train")
        np.testing.assert_allclose(bn.buffers["running_mean"], x.mean(axis=(0, 1)))
        np.testing.assert_allclose(bn.buffers["running_var"], x.var(axis=(0, 1)))


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        drop = Dropout(0.0)
        x = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(drop.forward(x, "train", rng), x)
        np.testing.assert_array_equal(drop.forward(x, "infer"), x)

    def test_infer_is_exact_identity(self, rng):
        drop = Dropout(0.3)
        x = rng.standard_normal((4, 7))
        assert drop.forward(x, "infer") is not None
        np.testing.assert_array_equal(drop.forward(x, "infer"), x)

    def test_train_needs_rng(self):
        with pytest.raises(StateError):
            Dropout(0.3).forward(np.zeros((2, 2)), "train")

    def test_monte_carlo_expectation(self, rng):
        # inverted dropout: E[out] == in, checked over 10000 masks
        drop = Dropout(0.3)
        x = rng.uniform(0.5, 2.0, size=(3, 7))
        total = np.zeros_like(x)
        for _ in range(10000):
            total += drop.forward(x, "train", rng)
        np.testing.assert_allclose(total / 10000, x, rtol=0.02)


class TestDense:
    def _identity_dense(self, rng):
        dense = Dense(2, rng)
        dense.params["W"][...] = np.eye(2)
        dense.params["b"][...] = 0.0
        return dense

    def test_softmax_symmetry(self, rng):
        dense = self._identity_dense(rng)
        out = dense.forward(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_softmax_log_two(self, rng):
        dense = self._identity_dense(rng)
        out = dense.forward(np.array([[np.log(2.0), 0.0]]))
        np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_softmax_rows_sum_to_one(self, rng):
        z = rng.standard_normal((40, 2)) * 30.0  # stress the max-subtraction
        p = softmax(z)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_open_interval(self, rng):
        p = softmax(rng.standard_normal((40, 2)) * 5.0)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            Dense(4, rng).forward(np.zeros((1, 3)))


class TestGlobalMaxPool:
    def test_picks_time_maximum(self):
        x = np.array([[[1.0, 9.0], [5.0, 2.0], [3.0, 4.0]]])
        out = GlobalMaxPool().forward(x)
        np.testing.assert_array_equal(out, [[5.0, 9.0]])

    def test_backward_routes_to_argmax(self):
        gpool = GlobalMaxPool()
        x = np.array([[[1.0], [5.0], [3.0]]])
        gpool.forward(x)
        dx = gpool.backward(np.array([[2.0]]))
        np.testing.assert_array_equal(dx, [[[0.0], [2.0], [0.0]]])


@given(
    window=st.one_of(st.none(), st.integers(1, 4)),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 13), st.integers(1, 3)),
    relu=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pools_match_oracle_on_ties(window, shape, relu, seed):
    # one-decimal values tie often and relu zeros tie more; the gradient of
    # a tied window must go to its first maximum. window None is GlobalMaxPool.
    bsz, t, c = shape
    t = max(t, window or 1)
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((bsz, t, c)), 1)
    if relu:
        x = np.maximum(x, 0.0)
    dy = rng.standard_normal((bsz, t // (window or t), c))
    want_out, want_dx, want_margin = maxpool(x, dy, window)
    if window is None:
        pool, want_out, dy = GlobalMaxPool(), want_out[:, 0], dy[:, 0]
    else:
        pool = MaxPool1d(window)
    np.testing.assert_array_equal(pool.forward(x), want_out)
    assert pool.kink_margin() == want_margin
    np.testing.assert_array_equal(pool.backward(dy), want_dx)


class TestSpecValidation:
    def test_dropout_rate_range(self):
        with pytest.raises(ConfigError, match="rate"):
            Dropout(1.0)
        with pytest.raises(ConfigError, match="rate"):
            Dropout(-0.1)

    def test_pool_size_positive(self):
        with pytest.raises(ConfigError, match="pool_size"):
            MaxPool1d(0)

    def test_lstm_units_positive(self, rng):
        with pytest.raises(ConfigError, match="units"):
            Lstm(3, 0, rng)

    def test_conv_sizes_positive(self):
        with pytest.raises(ConfigError, match="filters"):
            Conv1dSpec(0, 3)
        with pytest.raises(ConfigError, match="kernel_size"):
            Conv1dSpec(2, 0)

    def test_lstm_shape_mismatch(self, rng):
        lstm = Lstm(3, 2, rng)
        with pytest.raises(ShapeError):
            lstm.forward(np.zeros((1, 5, 4)))


class TestFiniteOutputs:
    def test_all_layers_finite_on_finite_input(self, rng):
        x = rng.standard_normal((2, 24, 3)) * 10.0
        layers = [
            Conv1d(3, Conv1dSpec(4, 5, stride=2, activation="relu"), rng),
            MaxPool1d(2),
            BatchNorm1d(3),
            Dropout(0.5),
        ]
        for layer in layers:
            out = layer.forward(x, "train", rng)
            assert np.isfinite(out).all()
