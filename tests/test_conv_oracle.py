"""Conv1d's unfolded-window kernel against the per-tap reference in oracles.py."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import conv1d_backward, conv1d_forward
from ppgemo.nn import Conv1d, Conv1dSpec
from ppgemo.nn import layers

TOL = 1e-12


def rel_err(got, want):
    """Largest elementwise error relative to the reference's largest magnitude."""
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    return float(np.abs(got - want).max(initial=0.0)) / scale


def assert_matches_oracle(conv, x, seed):
    dy_rng = np.random.default_rng(seed)
    y = conv.forward(x)
    dy = dy_rng.standard_normal(y.shape)
    dx = conv.backward(dy)
    w, b = conv.params["W"], conv.params["b"]
    y_ref, z_ref = conv1d_forward(x, w, b, conv.spec)
    dx_ref, dw_ref, db_ref = conv1d_backward(x, w, conv.spec, z_ref, dy)
    for name, got, want in (
        ("y", y, y_ref),
        ("dx", dx, dx_ref),
        ("dW", conv.grads["W"], dw_ref),
        ("db", conv.grads["b"], db_ref),
    ):
        assert got.shape == want.shape, name
        assert rel_err(got, want) <= TOL, (name, rel_err(got, want))


@st.composite
def conv_cases(draw):
    padding = draw(st.sampled_from(("same", "causal")))
    if padding == "same":
        stride, dilation = draw(st.integers(1, 5)), 1
    else:
        stride, dilation = 1, draw(st.integers(1, 8))
    spec = Conv1dSpec(
        filters=draw(st.integers(1, 6)),
        kernel_size=draw(st.integers(1, 9)),
        stride=stride,
        padding=padding,
        activation=draw(st.sampled_from(("relu", "none"))),
        dilation=dilation,
    )
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 5)))
    return spec, shape, draw(st.integers(0, 2**32 - 1))


@given(case=conv_cases(), chunk_elems=st.integers(1, 600))
def test_matches_oracle_for_every_padding_stride_dilation(case, chunk_elems):
    # a small chunk cap makes most drawn batches span several chunks,
    # including a short last one
    spec, shape, seed = case
    rng = np.random.default_rng(seed)
    conv = Conv1d(shape[2], spec, rng)
    conv.params["b"][...] = rng.standard_normal(spec.filters)
    with mock.patch.object(layers, "CHUNK_ELEMS", chunk_elems):
        assert_matches_oracle(conv, rng.standard_normal(shape), seed)


@pytest.mark.parametrize(
    "batch, time, channels, spec",
    [
        # trunk conv1 and conv2, and a dilated TCN conv, at the model's shapes
        (3, 6000, 1, Conv1dSpec(8, 64, 4, "same", "relu")),
        (3, 750, 8, Conv1dSpec(16, 32, 2, "same", "relu")),
        (3, 187, 16, Conv1dSpec(8, 32, 1, "causal", "relu", 8)),
    ],
)
def test_matches_oracle_across_chunks_at_model_shapes(batch, time, channels, spec, rng):
    conv = Conv1d(channels, spec, rng)
    width = spec.kernel_size * channels * conv.output_len(time)
    assert batch * width > layers.CHUNK_ELEMS  # the batch spans several chunks
    assert_matches_oracle(conv, rng.standard_normal((batch, time, channels)), 7)
