import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rel_err, tcn_backward, tcn_forward
from ppgemo.errors import ConfigError
from ppgemo.nn import Tcn, TcnSpec

TOL = 1e-12


def test_receptive_field_formula():
    assert TcnSpec().receptive_field == 931
    assert TcnSpec(kernel_size=3, dilations=(1, 2)).receptive_field == 1 + 2 * 2 * 3


def test_dilations_must_ascend():
    with pytest.raises(ConfigError, match="ascending"):
        TcnSpec(dilations=(4, 2, 1))


@pytest.mark.parametrize("dilations", [(2, 3), (2, 4, 6), (3, 2)])
def test_each_dilation_must_divide_the_next(dilations):
    with pytest.raises(ConfigError, match="dividing the next"):
        TcnSpec(dilations=dilations)


@pytest.mark.parametrize("dilations", [(1, 3), (2, 4), (3, 3, 6)])
def test_dividing_dilations_are_accepted(dilations):
    assert TcnSpec(dilations=dilations).dilations == dilations


def test_first_dilation_above_one_runs_the_subsequence_path(rng):
    # (2, 4) starts every block on a subsequence: no step is left over
    tcn = Tcn(3, TcnSpec(filters=2, kernel_size=3, dilations=(2, 4), dropout_rate=0.0), rng)
    x = rng.standard_normal((2, 11, 3))
    want = tcn.forward_sequence(x)[:, -1]
    out = tcn.forward(x, "train", rng)
    np.testing.assert_array_equal(out, want)
    dx = tcn.backward(np.ones_like(out))
    # the final step's receptive field holds only the even offsets from it
    assert not dx[:, 1::2].any() and dx[:, 0::2].any()


def test_forward_sequence_is_infer_only(rng):
    tcn = Tcn(2, TcnSpec(filters=2, kernel_size=3, dilations=(1, 2)), rng)
    with pytest.raises(ConfigError, match="infer"):
        tcn.forward_sequence(rng.standard_normal((1, 8, 2)), "train")


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


def test_skip_sum_shapes(rng):
    x = rng.standard_normal((3, 20, 4))
    spec = TcnSpec(filters=5, kernel_size=3, dilations=(1, 2))
    assert Tcn(4, spec, rng).forward(x, "infer").shape == (3, 5)


def test_residual_projection_only_when_channels_differ(rng):
    tcn = Tcn(4, TcnSpec(filters=4, kernel_size=3, dilations=(1, 2)), rng)
    assert all("proj" not in name for name in tcn.named_params())
    tcn = Tcn(6, TcnSpec(filters=4, kernel_size=3, dilations=(1, 2)), rng)
    assert any(name.startswith("block0.proj") for name in tcn.named_params())
    assert all(not name.startswith("block1.proj") for name in tcn.named_params())


@st.composite
def tcn_cases(draw):
    dilations = [draw(st.integers(1, 3))]
    for _ in range(draw(st.integers(0, 3))):
        dilations.append(dilations[-1] * draw(st.integers(1, 3)))
    spec = TcnSpec(
        filters=draw(st.integers(1, 4)),
        kernel_size=draw(st.integers(1, 5)),
        dilations=tuple(dilations),
        dropout_rate=draw(st.sampled_from((0.0, 0.3))),
    )
    filters = spec.filters
    # equal widths leave the residual unprojected
    channels = filters if draw(st.booleans()) else draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)), channels)
    return spec, shape, draw(st.integers(0, 2**32 - 1))


@given(case=tcn_cases())
def test_matches_full_sequence_oracle(case):
    spec, shape, seed = case
    rng = np.random.default_rng(seed)
    tcn = Tcn(shape[2], spec, rng)
    for name, p in tcn.named_params().items():
        if name.endswith(".b"):
            p[...] = rng.standard_normal(p.shape)
    params = tcn.named_params()
    x = rng.standard_normal(shape)

    out = tcn.forward(x, "infer")
    want, (_, z, _) = tcn_forward(params, spec, x)
    assert rel_err(out, want) <= TOL
    # every step of the full sequence, against the oracle's output before the last is taken
    assert rel_err(tcn.forward_sequence(x), np.maximum(z, 0.0)) <= TOL

    out = tcn.forward(x, "train", np.random.default_rng(seed))
    want, tape = tcn_forward(params, spec, x, "train", np.random.default_rng(seed))
    assert rel_err(out, want) <= TOL
    dy = rng.standard_normal(out.shape)
    dx = tcn.backward(dy)
    dx_ref, grads_ref = tcn_backward(spec, tape, dy)
    assert dx.shape == x.shape
    assert rel_err(dx, dx_ref) <= TOL
    grads = tcn.named_grads()
    assert sorted(grads) == sorted(grads_ref)
    for name, g in grads.items():
        assert rel_err(g, grads_ref[name]) <= TOL, name
