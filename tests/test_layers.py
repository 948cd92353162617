import os
import re
import signal
import subprocess
import sys
import threading
import time

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
    Tcn,
    TcnSpec,
    softmax,
)
from ppgemo.nn.gradcheck import maxpool_margin
from ppgemo.nn import layers
from ppgemo.nn.layers import BN_EPSILON, OVERLAP_BATCH, each_half, fork_join
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

    def test_infer_is_the_old_formula_bit_for_bit_and_leaves_x_alone(self, rng):
        bn = BatchNorm1d(8)
        bn.forward(rng.standard_normal((3, 750, 8)) * 2.0 + 1.0, "train")
        bn.params["gamma"][...] = rng.uniform(0.5, 2.0, 8)
        bn.params["beta"][...] = rng.standard_normal(8)
        x = rng.standard_normal((5, 750, 8)) * 3.0 - 1.0
        before = x.copy()
        out = bn.forward(x, "infer")
        inv = 1.0 / np.sqrt(bn.buffers["running_var"] + BN_EPSILON)
        want = bn.params["gamma"] * ((x - bn.buffers["running_mean"]) * inv) + bn.params["beta"]
        assert out.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()
        assert not np.shares_memory(out, x)

    def test_infer_forward_drops_the_train_tape(self, rng):
        bn = BatchNorm1d(2)
        x = rng.standard_normal((2, 10, 2))
        bn.forward(x, "train")
        bn.forward(x, "infer")
        with pytest.raises(StateError):
            bn.backward(np.ones_like(x))

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


@given(
    shape=st.sampled_from([(750, 8), (187, 16)]),  # the two trunk batch norms' inputs
    batch=st.integers(1, 4),
    scale=st.floats(1e-3, 1e3),
    offset=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batchnorm_statistics_are_numpys_bit_for_bit(shape, batch, scale, offset, seed):
    x = np.random.default_rng(seed).standard_normal((batch, *shape)) * scale + offset
    bn = BatchNorm1d(shape[1])
    bn.forward(x, "train")
    # the first batch seeds the running stats outright
    mean, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
    np.testing.assert_array_equal(bn.buffers["running_mean"], mean)
    assert bn.buffers["running_var"].tobytes() == var.tobytes()
    xhat = bn._cache[0]
    assert xhat.tobytes() == ((x - mean) * (1.0 / np.sqrt(var + BN_EPSILON))).tobytes()


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

    @pytest.mark.parametrize("shape", [(3, 7), (2, 9, 4)])
    def test_seeded_mask(self, shape):
        x = np.random.default_rng(1).standard_normal(shape)
        out = Dropout(0.3).forward(x, "train", np.random.default_rng(7))
        keep = np.random.default_rng(7).random(shape) >= 0.3
        np.testing.assert_array_equal(out, x * (keep / (1 - 0.3)))

    def test_drawn_rows_cut_the_full_sequence_mask(self):
        # x holds every third of 10 steps, from step 1: the mask is the
        # [batch, 10, features] draw cut to those steps
        rows = slice(1, None, 3)
        x = np.random.default_rng(1).standard_normal((2, 3, 4))
        out = Dropout(0.3).forward(x, "train", np.random.default_rng(7), drawn=(10, rows))
        keep = np.random.default_rng(7).random((2, 10, 4)) >= 0.3
        np.testing.assert_array_equal(out, x * (keep[:, rows] / (1 - 0.3)))


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
    # MaxPool1d is relu then max (the trunk's conv relu and pool), so it must
    # match the oracle on relu(x), its gradient masked by x > 0 as the conv
    # relu masked it. `relu` feeds both pools relu'd input, as the trunk's
    # pool was fed before it took the relu over.
    bsz, t, c = shape
    t = max(t, window or 1)
    rng = np.random.default_rng(seed)
    x = np.round(rng.standard_normal((bsz, t, c)), 1)
    if relu:
        x = np.maximum(x, 0.0)
    dy = rng.standard_normal((bsz, t // (window or t), c))
    if window is None:
        want_out, want_dx, want_margin = maxpool(x, dy)
        assert maxpool_margin(x) == want_margin
        pool, want_out, dy = GlobalMaxPool(), want_out[:, 0], dy[:, 0]
    else:
        want_out, want_dx, _ = maxpool(np.maximum(x, 0.0), dy, window)
        want_dx = want_dx * (x > 0.0)
        top, _, gap = maxpool(x, dy, window)
        assert maxpool_margin(x, window, relu=True) == min(gap, float(np.abs(top).min()))
        pool = MaxPool1d(window)
    np.testing.assert_array_equal(pool.forward(x), want_out)
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


# layer, a valid input shape, and the shape its ShapeError names (None: no
# axes are checked); every layer takes 3 input channels or features
CONTRACT = {
    "Conv1d": (lambda rng: Conv1d(3, Conv1dSpec(2, 3), rng), (2, 8, 3), "[batch, time, 3]"),
    "MaxPool1d": (lambda rng: MaxPool1d(2), (2, 8, 3), "[batch, time, channels]"),
    "GlobalMaxPool": (lambda rng: GlobalMaxPool(), (2, 8, 3), "[batch, time, channels]"),
    "BatchNorm1d": (lambda rng: BatchNorm1d(3), (2, 8, 3), "[batch, time, 3]"),
    "Dropout": (lambda rng: Dropout(0.3), (2, 8, 3), None),
    "Dense": (lambda rng: Dense(3, rng), (2, 3), "[batch, 3]"),
    "Lstm": (lambda rng: Lstm(3, 2, rng), (2, 8, 3), "[batch, time, 3]"),
    "Tcn": (lambda rng: Tcn(3, TcnSpec(2, 2, (1, 2), 0.3), rng), (2, 8, 3), "[batch, time, 3]"),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_forward_input_contract(name, rng):
    make, shape, expected = CONTRACT[name]
    layer = make(rng)
    x = np.ones(shape, dtype=np.int64)
    with pytest.raises(ConfigError, match="mode must be one of"):
        layer.forward(x, "eval", rng)
    # train first: batch norm infers only after a training batch
    for mode in ("train", "infer"):
        assert layer.forward(x, mode, rng).dtype == np.float64
    if expected is None:
        return
    wrong = [x[..., None]]  # one axis too many
    if expected.endswith("3]"):
        wrong.append(np.ones(shape[:-1] + (4,)))
    for bad in wrong:
        with pytest.raises(ShapeError, match=re.escape(f"{name} expected {expected}, got")):
            layer.forward(bad, "infer", rng)


# -- fork_join --------------------------------------------------------------------


def _recorder(calls, name, value=None):
    """A task that appends (name, its thread) to `calls` and returns `value`."""

    def task():
        calls.append((name, threading.current_thread()))
        return value

    return task


def test_fork_join_returns_both_results_in_order():
    assert fork_join(lambda: 1, lambda: "two", OVERLAP_BATCH) == (1, "two")


def test_fork_join_runs_second_on_the_helper_from_the_main_thread():
    calls = []
    out = fork_join(_recorder(calls, "first", 1), _recorder(calls, "second", 2), OVERLAP_BATCH)
    assert out == (1, 2)
    threads = dict(calls)
    assert threads["first"] is threading.main_thread()
    assert threads["second"] is not threading.main_thread()


def test_fork_join_runs_inline_off_the_main_thread():
    calls, out = [], []

    def run():
        out.append(fork_join(_recorder(calls, "first", 1), _recorder(calls, "second", 2), OVERLAP_BATCH))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and out == [(1, 2)]
    assert [name for name, _ in calls] == ["first", "second"]
    assert calls[0][1] is calls[1][1] is not threading.main_thread()


def test_fork_join_runs_a_small_batch_inline():
    calls = []
    out = fork_join(_recorder(calls, "first", 1), _recorder(calls, "second", 2), OVERLAP_BATCH - 1)
    assert out == (1, 2)
    assert calls == [("first", threading.main_thread()), ("second", threading.main_thread())]


def test_fork_join_nested_while_the_helper_is_busy_runs_inline():
    calls = []
    released = threading.Event()

    def outer_first():
        inner = fork_join(_recorder(calls, "a", "A"), _recorder(calls, "b", "B"), OVERLAP_BATCH)
        released.set()
        return inner

    # the outer second holds the helper until the nested call is done
    done = fork_join(outer_first, lambda: released.wait(timeout=30), OVERLAP_BATCH)
    assert done == (("A", "B"), True)
    assert calls == [("a", threading.main_thread()), ("b", threading.main_thread())]


class FirstError(Exception):
    pass


class SecondError(Exception):
    pass


@pytest.mark.parametrize(
    "fails, expected",
    [("first", FirstError), ("second", SecondError), ("both", FirstError)],
)
def test_fork_join_raises_after_both_finish_and_first_error_wins(fails, expected):
    finished = []

    def slow_second():
        time.sleep(0.2)
        finished.append("second")
        if fails != "first":
            raise SecondError

    def first():
        if fails != "second":
            raise FirstError
        finished.append("first")

    with pytest.raises(expected):
        fork_join(first, slow_second, OVERLAP_BATCH)
    # the helper finished its task before the error reached the caller
    assert "second" in finished
    # and is free again: the next call uses it
    calls = []
    fork_join(_recorder(calls, "first"), _recorder(calls, "second"), OVERLAP_BATCH)
    assert dict(calls)["second"] is not threading.main_thread()


def test_fork_join_nested_in_first_gets_the_helper_once_the_outer_second_returns():
    calls = []

    def outer_first():
        # the outer second frees the helper when it returns
        assert layers._HELPER_IDLE.acquire(timeout=30)
        layers._HELPER_IDLE.release()
        return fork_join(_recorder(calls, "a", "A"), _recorder(calls, "b", "B"), OVERLAP_BATCH)

    assert fork_join(outer_first, _recorder(calls, "outer", 1), OVERLAP_BATCH) == (("A", "B"), 1)
    threads = dict(calls)
    assert threads["a"] is threading.main_thread()
    assert threads["b"] is threads["outer"] is not threading.main_thread()


def _raises(error):
    def task():
        raise error

    return task


def test_the_helper_is_idle_again_after_a_second_that_raises():
    with pytest.raises(SecondError):
        fork_join(lambda: None, _raises(SecondError), OVERLAP_BATCH)
    assert layers._HELPER_IDLE.acquire(blocking=False)
    layers._HELPER_IDLE.release()


@pytest.mark.parametrize(
    "claim",
    [
        lambda: fork_join(lambda: 1, lambda: 2, OVERLAP_BATCH),
        lambda: each_half(OVERLAP_BATCH, lambda rows: None),
    ],
    ids=["fork_join", "each_half"],
)
def test_a_submit_that_raises_frees_the_helper_and_propagates(claim, monkeypatch):
    def refuse(*args):
        # the claim was taken before the submit
        assert not layers._HELPER_IDLE.acquire(blocking=False)
        raise RuntimeError("cannot schedule new futures")

    monkeypatch.setattr(layers._HELPER, "submit", refuse)
    with pytest.raises(RuntimeError, match="cannot schedule"):
        claim()
    assert layers._HELPER_IDLE.acquire(blocking=False)
    layers._HELPER_IDLE.release()


def _halves(n):
    """(rows, thread) of each part each_half(n, ...) runs, in row order."""
    calls = []
    each_half(n, lambda rows: calls.append((rows, threading.current_thread())))
    return sorted(calls, key=lambda call: call[0].start)


@pytest.mark.parametrize("n", [OVERLAP_BATCH, OVERLAP_BATCH + 1, 512])
def test_each_half_runs_the_second_half_on_the_helper(n):
    (first, here), (second, there) = _halves(n)
    h = (n + 1) // 2
    assert (first, second) == (slice(0, h), slice(h, n))
    assert here is threading.main_thread() and there is not here


def test_each_half_runs_one_part_where_the_helper_cannot_overlap():
    main = threading.main_thread()
    assert _halves(OVERLAP_BATCH - 1) == [(slice(0, OVERLAP_BATCH - 1), main)]
    assert layers._HELPER_IDLE.acquire(blocking=False)
    try:
        assert _halves(OVERLAP_BATCH) == [(slice(0, OVERLAP_BATCH), main)]
    finally:
        layers._HELPER_IDLE.release()
    out = []
    worker = threading.Thread(target=lambda: out.append(_halves(64)))
    worker.start()
    worker.join(timeout=30)
    assert out == [[(slice(0, 64), worker)]]


def _timed_out(signum, frame):
    raise TimeoutError("a claim of the helper was lost")


def test_claims_under_fast_thread_switches_run_every_row_once():
    # the outer second frees the helper while first is still claiming it for
    # halves; a lost claim hangs a wait (the alarm ends it), a doubled one
    # runs rows twice, and a leaked one leaves the helper busy
    n = OVERLAP_BATCH
    switch = sys.getswitchinterval()
    alarm = signal.signal(signal.SIGALRM, _timed_out)
    sys.setswitchinterval(1e-6)
    signal.alarm(60)
    try:
        for _ in range(300):
            a, b = np.zeros(n, dtype=int), np.zeros(n, dtype=int)

            def mark(hits):
                def part(rows):
                    hits[rows] += 1

                return lambda: each_half(n, part)

            fork_join(lambda: [mark(a)() for _ in range(3)], mark(b), n)
            assert (a == 3).all() and (b == 1).all()
            assert layers._HELPER_IDLE.acquire(blocking=False)
            layers._HELPER_IDLE.release()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, alarm)
        sys.setswitchinterval(switch)


# A process forked after the helper ran: the parent starts the helper, forks,
# and waits for the child, which must run fork_join and predict_proba in turn
# on its main thread. A hung child is killed at the deadline.
FORKED_CHILD = """
import os, signal, sys, threading, time
import ppgemo
import numpy as np
from ppgemo.models import ModelConfig, ConvStage, build
from ppgemo.nn.layers import OVERLAP_BATCH, fork_join
from ppgemo.nn.tcn import TcnSpec
from ppgemo.training import predict_proba

config = ModelConfig(input_len=240, conv1=ConvStage(4, 16, 4), conv2=ConvStage(6, 8, 2),
                     tcn=TcnSpec(filters=3, kernel_size=4, dilations=(1, 2)), lstm_units=5)
model = build(config, np.random.default_rng(0))
x = np.random.default_rng(1).standard_normal((130, 240, 1))
model.forward(x[:8], "train", np.random.default_rng(2))
threads = []
assert fork_join(lambda: 1, lambda: threads.append(threading.current_thread()) or 2,
                 OVERLAP_BATCH) == (1, 2)
assert threads and threads[0] is not threading.main_thread()
expected = predict_proba(model, x)
pid = os.fork()
if pid == 0:
    threads.clear()
    ok = fork_join(lambda: 1, lambda: threads.append(threading.current_thread()) or 2,
                   OVERLAP_BATCH) == (1, 2) and threads == [threading.main_thread()]
    ok = ok and predict_proba(model, x).tobytes() == expected.tobytes()
    os._exit(0 if ok else 3)
deadline = time.monotonic() + float(sys.argv[1])
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the forked child hung")
"""


def test_a_forked_child_runs_fork_join_and_predict_proba_in_turn():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", FORKED_CHILD, "60"], env=env, capture_output=True, text=True,
        timeout=240,
    )
    assert out.returncode == 0, out.stderr
