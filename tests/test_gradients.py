"""Targeted gradient identities plus a quick pass of the finite-difference
suite; the full 20-case-per-layer run lives in the acceptance tests."""

import numpy as np

from ppgemo.nn import Conv1d, Conv1dSpec, Dense, Lstm, Tcn, TcnSpec
from ppgemo.nn.gradcheck import FAMILIES, run_suite
from ppgemo.training import weighted_cce_grad


def test_suite_smoke(rng):
    results = run_suite(cases_per_layer=3, seed=1)
    assert {r.name for r in results} == {
        "conv1d_same",
        "conv1d_causal",
        "maxpool1d",
        "global_maxpool",
        "batchnorm1d_train",
        "dropout_frozen_mask",
        "lstm",
        "tcn",
        "dense_softmax_weighted_cce",
    }
    for r in results:
        assert r.ok, f"{r.name}: max relative error {r.max_rel_err}"


def test_conv_families_check_the_input_gradient():
    rng = np.random.default_rng(0)
    for name in ("conv1d_same", "conv1d_causal"):
        for _ in range(5):
            case = FAMILIES[name](rng)
            assert case.analytic()["x"].shape == case.arrays["x"].shape


def test_zero_upstream_gives_zero_grads(rng):
    conv = Conv1d(2, Conv1dSpec(3, 4, stride=2, activation="relu"), rng)
    out = conv.forward(rng.standard_normal((2, 12, 2)))
    conv.backward(np.zeros_like(out))
    for g in conv.grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def test_softmax_cce_bias_gradient_closed_form(rng):
    # single sample, unit weights: dL/dz = p - onehot, and the bias gradient
    # equals dL/dz directly
    dense = Dense(3, rng)
    x = rng.standard_normal((1, 3))
    onehot = np.array([[0.0, 1.0]])
    probs = dense.forward(x)
    dense.backward(weighted_cce_grad(probs, onehot, np.array([1.0, 1.0])))
    np.testing.assert_allclose(dense.grads["b"], (probs - onehot)[0], atol=1e-12)


class TestLstmFixedPoints:
    def test_all_zero_parameters_give_zero_state(self, rng):
        lstm = Lstm(3, 4, rng)
        for p in lstm.params.values():
            p[...] = 0.0
        out = lstm.forward(rng.standard_normal((2, 6, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 4)))

    def test_single_step_hand_computation(self, rng):
        # all weights and biases zero: i = f = o = 0.5, g = tanh(0) = 0,
        # so c1 = 0 and h1 = 0.5 * tanh(0) = 0 regardless of the input
        lstm = Lstm(1, 1, rng)
        for p in lstm.params.values():
            p[...] = 0.0
        out = lstm.forward(np.array([[[3.7]]]))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_zero_point_is_fixed_for_longer_sequences(self, rng):
        lstm = Lstm(2, 3, rng)
        for p in lstm.params.values():
            p[...] = 0.0
        out = lstm.forward(rng.standard_normal((1, 40, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_tcn_zero_parameters_give_zero_output(rng):
    tcn = Tcn(3, TcnSpec(filters=2, kernel_size=3, dilations=(1, 2)), rng)
    for p in tcn.named_params().values():
        p[...] = 0.0
    out = tcn.forward(rng.standard_normal((2, 10, 3)), "infer")
    np.testing.assert_array_equal(out, np.zeros((2, 2)))
