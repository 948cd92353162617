import numpy as np
import pytest

from ppgemo.errors import ConfigError, StateError
from ppgemo.nn import Tcn, TcnSpec


def test_receptive_field_formula():
    assert TcnSpec().receptive_field == 931
    assert TcnSpec(kernel_size=3, dilations=(1, 2)).receptive_field == 1 + 2 * 2 * 3


def test_dilations_must_ascend():
    with pytest.raises(ConfigError, match="ascending"):
        TcnSpec(dilations=(4, 2, 1))


def test_causality_on_full_sequence(rng):
    # randomized parameters: perturbing time t may only change outputs >= t
    for _ in range(5):
        spec = TcnSpec(
            filters=int(rng.integers(1, 4)),
            kernel_size=int(rng.integers(2, 5)),
            dilations=(1, 2),
            dropout_rate=0.0,
        )
        tcn = Tcn(2, spec, rng)
        x = rng.standard_normal((1, 30, 2))
        base = tcn.forward_sequence(x, "infer")
        t0 = int(rng.integers(0, 30))
        bumped = x.copy()
        bumped[0, t0, :] += rng.uniform(0.5, 2.0)
        out = tcn.forward_sequence(bumped, "infer")
        np.testing.assert_array_equal(out[:, :t0, :], base[:, :t0, :])


def test_receptive_field_boundary(rng):
    # default spec: RF = 931, so a perturbation 931 steps before the final
    # step cannot reach it, while one 930 steps before can
    spec = TcnSpec()
    tcn = Tcn(2, spec, rng)
    t = 940
    x = rng.standard_normal((1, t, 2))
    base = tcn.forward(x, "infer")

    outside = x.copy()
    outside[0, t - 1 - 931, :] += 10.0
    np.testing.assert_allclose(tcn.forward(outside, "infer"), base, rtol=0, atol=1e-12)

    inside = x.copy()
    inside[0, t - 1 - 930, :] += 10.0
    assert not np.allclose(tcn.forward(inside, "infer"), base, rtol=0, atol=1e-12)


def test_skip_and_no_skip_shapes(rng):
    x = rng.standard_normal((3, 20, 4))
    for use_skip in (True, False):
        spec = TcnSpec(filters=5, kernel_size=3, dilations=(1, 2), use_skip=use_skip)
        out = Tcn(4, spec, rng).forward(x, "infer")
        assert out.shape == (3, 5)


def test_residual_projection_only_when_channels_differ(rng):
    tcn = Tcn(4, TcnSpec(filters=4, kernel_size=3, dilations=(1, 2)), rng)
    assert all("proj" not in name for name in tcn.named_params())
    tcn = Tcn(6, TcnSpec(filters=4, kernel_size=3, dilations=(1, 2)), rng)
    assert any(name.startswith("block0.proj") for name in tcn.named_params())
    assert all(not name.startswith("block1.proj") for name in tcn.named_params())


def test_backward_sequence_consumes_the_tape(rng):
    tcn = Tcn(2, TcnSpec(filters=3, kernel_size=3, dilations=(1, 2)), rng)
    out = tcn.forward_sequence(rng.standard_normal((2, 12, 2)), "train", rng)
    tcn.backward_sequence(np.ones_like(out))
    with pytest.raises(StateError):
        tcn.backward_sequence(np.ones_like(out))
