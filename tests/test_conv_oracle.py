"""Conv1d's unfolded-window kernel against the per-tap reference in oracles.py,
and the model's blocked convs against the phase-split one they replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import PhaseSplitConv, conv1d_backward, conv1d_forward, rel_err
from ppgemo.models import ModelConfig, build
from ppgemo.nn import Conv1d, Conv1dSpec
from ppgemo.nn import layers
from ppgemo.nn.layers import walk

TOL = 1e-12


def assert_matches_oracle(conv, x, seed, start=0, step=1):
    """Rows start::step of the oracle's full output, and the oracle's
    gradients for an upstream gradient that is zero on every other row."""
    dy_rng = np.random.default_rng(seed)
    y = conv.forward(x, start=start, step=step)
    dy = dy_rng.standard_normal(y.shape)
    dx = conv.backward(dy)
    w, b = conv.params["W"], conv.params["b"]
    y_ref, z_ref = conv1d_forward(x, w, b, conv.spec)
    dy_full = np.zeros_like(y_ref)
    dy_full[:, start::step] = dy
    dx_ref, dw_ref, db_ref = conv1d_backward(x, w, conv.spec, z_ref, dy_full)
    for name, got, want in (
        ("y", y, y_ref[:, start::step]),
        ("dx", dx, dx_ref),
        ("dW", conv.grads["W"], dw_ref),
        ("db", conv.grads["b"], db_ref),
    ):
        assert got.shape == want.shape, name
        assert rel_err(got, want) <= TOL, (name, rel_err(got, want))


@st.composite
def conv_cases(draw):
    padding = draw(st.sampled_from(("same", "causal")))
    spec = Conv1dSpec(
        filters=draw(st.integers(1, 6)),
        kernel_size=draw(st.integers(1, 9)),
        stride=draw(st.integers(1, 5)) if padding == "same" else 1,
        padding=padding,
        activation=draw(st.sampled_from(("relu", "none"))),
    )
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 40)), draw(st.integers(1, 5)))
    # most draws select every row; the rest, rows start::step
    rows = draw(st.one_of(st.just((0, 1)), st.tuples(st.integers(0, 40), st.integers(1, 6))))
    return spec, shape, rows, draw(st.integers(0, 2**32 - 1))


@given(case=conv_cases(), chunk_elems=st.integers(1, 600))
def test_matches_oracle_for_every_padding_stride_and_row_selection(case, chunk_elems):
    # a small chunk cap makes most drawn batches span several chunks,
    # including a short last one
    spec, shape, (start, step), seed = case
    rng = np.random.default_rng(seed)
    conv = Conv1d(shape[2], spec, rng)
    conv.params["b"][...] = rng.standard_normal(spec.filters)
    start %= conv.output_len(shape[1])
    with mock.patch.object(layers, "CHUNK_ELEMS", chunk_elems):
        assert_matches_oracle(conv, rng.standard_normal(shape), seed, start, step)


@pytest.mark.parametrize(
    "batch, time, channels, spec",
    [
        # trunk conv1 and conv2, and a TCN conv, at the model's shapes
        (3, 6000, 1, Conv1dSpec(8, 64, 4, "same", "relu")),
        (3, 750, 8, Conv1dSpec(16, 32, 2, "same", "relu")),
        (3, 187, 16, Conv1dSpec(8, 32, 1, "causal", "relu")),
    ],
)
def test_matches_oracle_across_chunks_at_model_shapes(batch, time, channels, spec, rng):
    conv = Conv1d(channels, spec, rng)
    width = spec.kernel_size * channels * conv.output_len(time)
    assert batch * width > layers.CHUNK_ELEMS  # the batch spans several chunks
    assert_matches_oracle(conv, rng.standard_normal((batch, time, channels)), 7)


def test_end_aligned_rows_across_chunks_at_model_shape(rng):
    # the default TCN's block 0 conv_b: 187 input rows, every second one
    # computed, ending at the last
    conv = Conv1d(8, Conv1dSpec(8, 32, 1, "causal", "relu"), rng)
    assert 6 * 94 * 32 * 8 > layers.CHUNK_ELEMS
    assert_matches_oracle(conv, rng.standard_normal((6, 187, 8)), 7, start=0, step=2)


@pytest.mark.parametrize(
    "channels, spec, start, step",
    [
        # stride*step > kernel_size: phases r >= kernel_size hold no tap
        (2, Conv1dSpec(3, 3, 5, "same", "relu"), 0, 1),
        (3, Conv1dSpec(2, 3, 2, "same", "none"), 1, 3),
        (2, Conv1dSpec(4, 2, 1, "causal", "relu"), 2, 4),
        (3, Conv1dSpec(2, 1, 1, "same", "none"), 0, 3),
        # kernel_size not a multiple of stride*step: phases hold unequal tap counts
        (2, Conv1dSpec(3, 7, 3, "same", "relu"), 0, 1),
        (3, Conv1dSpec(2, 5, 2, "same", "none"), 1, 2),
        (2, Conv1dSpec(3, 9, 1, "causal", "relu"), 0, 2),
    ],
)
def test_phase_split_input_gradient(channels, spec, start, step):
    rng = np.random.default_rng(11)
    conv = Conv1d(channels, spec, rng)
    conv.params["b"][...] = rng.standard_normal(spec.filters)
    x = rng.standard_normal((4, 37, channels))
    with mock.patch.object(layers, "CHUNK_ELEMS", 50):
        assert_matches_oracle(conv, x, 3, start, step)
        y = conv.forward(x, start=start, step=step)
        dx = conv.backward(np.ones_like(y))
    # the input steps that no computed row reads, by the oracle with unit
    # weights and no activation, get exactly zero gradient
    linear = Conv1dSpec(spec.filters, spec.kernel_size, spec.stride, spec.padding, "none")
    dy_full = np.zeros((1, conv.output_len(x.shape[1]), spec.filters))
    dy_full[:, start::step] = 1.0
    reach = conv1d_backward(x[:1], np.ones_like(conv.params["W"]), linear, None, dy_full)[0]
    unread = reach[0, :, 0] == 0.0
    if spec.stride * step > spec.kernel_size:
        assert unread[spec.kernel_size : -spec.kernel_size].any()
    np.testing.assert_array_equal(dx[:, unread], 0.0)


@pytest.mark.parametrize(
    "time, channels, spec, start, step, edge",
    [
        # fewer output rows than one block: every row takes block 1
        (9, 2, Conv1dSpec(3, 4, 3, "same", "relu"), 0, 1, "n < BLOCK_ROWS"),
        (20, 3, Conv1dSpec(2, 5, 1, "causal", "none"), 3, 7, "n < BLOCK_ROWS"),
        # full blocks, then a remainder of block-1 rows
        (23, 2, Conv1dSpec(4, 6, 1, "same", "relu"), 0, 1, "n % BLOCK_ROWS != 0"),
        (41, 3, Conv1dSpec(2, 7, 2, "same", "none"), 1, 2, "n % BLOCK_ROWS != 0"),
        # super-rows wider than the kernel: taps padded with zeros, unread steps
        (37, 2, Conv1dSpec(3, 3, 5, "same", "relu"), 0, 1, "stride*step > kernel_size"),
        (37, 2, Conv1dSpec(2, 2, 1, "causal", "relu"), 2, 4, "stride*step > kernel_size"),
        # the last super-row of taps only partly filled
        (37, 2, Conv1dSpec(3, 7, 3, "same", "relu"), 0, 1, "kernel_size % (stride*step) != 0"),
        (37, 3, Conv1dSpec(2, 9, 1, "causal", "none"), 1, 2, "kernel_size % (stride*step) != 0"),
        # the first computed row's window starts right of the left pad
        (30, 2, Conv1dSpec(2, 1, 1, "same", "none"), 5, 3, "first > left"),
    ],
)
@pytest.mark.parametrize("chunk_elems", [layers.CHUNK_ELEMS, 8])
def test_blocked_rows_match_oracle(time, channels, spec, start, step, edge, chunk_elems):
    rng = np.random.default_rng(5)
    conv = Conv1d(channels, spec, rng)
    conv.params["b"][...] = rng.standard_normal(spec.filters)
    n = len(range(start, conv.output_len(time), step))
    block, reach = layers.BLOCK_ROWS, spec.stride * step
    assert {
        "n < BLOCK_ROWS": n < block,
        "n % BLOCK_ROWS != 0": n > block and n % block != 0,
        "stride*step > kernel_size": reach > spec.kernel_size,
        "kernel_size % (stride*step) != 0": reach < spec.kernel_size and spec.kernel_size % reach,
        # "same" padding of a 1-tap kernel pads nothing
        "first > left": spec.kernel_size == 1 and start > 0,
    }[edge]
    x = rng.standard_normal((5, time, channels))
    # under a cap of 8 elements each of the 5 batch rows is its own chunk
    with mock.patch.object(layers, "CHUNK_ELEMS", chunk_elems):
        assert_matches_oracle(conv, x, 3, start, step)


# the model's conv stages: trunk conv1 (no input gradient) and conv2, and
# the default TCN's convs, conv_b computing every second row from start
MODEL_CONVS = {
    "trunk.conv1": (6000, 1, Conv1dSpec(8, 64, 4, "same", "none"), 0, 1, False),
    "trunk.conv2": (750, 8, Conv1dSpec(16, 32, 2, "same", "none"), 0, 1, True),
    "block0.conv_a": (187, 16, Conv1dSpec(8, 32, 1, "causal", "relu"), 0, 1, True),
    "block0.conv_b": (187, 8, Conv1dSpec(8, 32, 1, "causal", "relu"), 0, 2, True),
    "block1.conv_b": (94, 8, Conv1dSpec(8, 32, 1, "causal", "relu"), 1, 2, True),
    # the last block keeps only the final step: one row, step = time
    "block3.conv_b": (24, 8, Conv1dSpec(8, 32, 1, "causal", "relu"), 23, 187, True),
}
TRUNK_CONVS = [s for s in MODEL_CONVS if s.startswith("trunk.")]


def model_conv_pair(stage):
    """The stage's conv as build makes it, with a nonzero bias, and a
    PhaseSplitConv holding the same parameters."""
    time, channels, spec, _, _, input_grad = MODEL_CONVS[stage]
    model = build(ModelConfig(variant="cnn_tcn_lstm"), np.random.default_rng(2))
    path = stage if stage.startswith("trunk.") else "tcn." + stage
    new = dict(walk(model))[path]
    assert (new.in_channels, new.spec, new.input_grad) == (channels, spec, input_grad)
    new.params["b"][...] = np.random.default_rng(4).standard_normal(spec.filters)
    old = PhaseSplitConv(channels, spec, np.random.default_rng(2), input_grad=input_grad)
    for name, value in new.params.items():
        old.params[name][...] = value
    return new, old


def test_build_blocks_the_trunk_forwards_only():
    model = build(ModelConfig(variant="cnn_tcn_lstm"), np.random.default_rng(2))
    blocks = {path: layer.forward_block for path, layer in walk(model) if isinstance(layer, Conv1d)}
    assert {p for p, b in blocks.items() if b != 1} == {"trunk.conv1", "trunk.conv2"}
    assert blocks["trunk.conv1"] == blocks["trunk.conv2"] == layers.BLOCK_ROWS


@pytest.mark.parametrize("chunk_elems", [layers.CHUNK_ELEMS, 1000])
@pytest.mark.parametrize("batch", [1, 3, 512])
@pytest.mark.parametrize("stage", TRUNK_CONVS)
def test_blocked_trunk_forward_matches_the_phase_split_one(stage, batch, chunk_elems):
    # conv2's 375 rows end in 375 % BLOCK_ROWS = 3 rows that take block 1;
    # under the small cap every batch row is its own chunk
    time, channels, _, start, step, _ = MODEL_CONVS[stage]
    new, old = model_conv_pair(stage)
    x = np.random.default_rng(9).standard_normal((batch, time, channels))
    with mock.patch.object(layers, "CHUNK_ELEMS", chunk_elems):
        y = new.forward(x, "infer", start=start, step=step)
    assert y.tobytes() == old.forward(x, "infer", start=start, step=step).tobytes()


@pytest.mark.parametrize("batch", [3, 512])
@pytest.mark.parametrize("stage", MODEL_CONVS)
def test_blocked_backward_matches_the_phase_split_one(stage, batch):
    time, channels, _, start, step, input_grad = MODEL_CONVS[stage]
    new, old = model_conv_pair(stage)
    rng = np.random.default_rng(9)
    x = rng.standard_normal((batch, time, channels))
    y = new.forward(x, start=start, step=step)
    # the trunk's blocked forward and the TCN's one-row forward both give
    # the phase-split forward's bytes
    np.testing.assert_array_equal(y, old.forward(x, start=start, step=step))
    dy = rng.standard_normal(y.shape)
    dx, dx_ref = new.backward(dy), old.backward(dy)
    assert (dx is None) == (dx_ref is None) == (not input_grad)
    pairs = [("dW", new.grads["W"], old.grads["W"]), ("db", new.grads["b"], old.grads["b"])]
    for name, got, want in pairs + ([("dx", dx, dx_ref)] if input_grad else []):
        assert got.shape == want.shape, name
        assert rel_err(got, want) <= TOL, (name, rel_err(got, want))


@pytest.mark.parametrize("stage", [s for s in MODEL_CONVS if MODEL_CONVS[s][5]])
def test_input_gradient_is_a_slice_of_no_more_than_twice_its_size(stage):
    # dX is a view into whole blocks of super-rows; rounding up to whole
    # blocks must not hold much more than dX, even for super-rows as wide
    # as the input (block3.conv_b)
    time, channels, spec, start, step, _ = MODEL_CONVS[stage]
    conv = Conv1d(channels, spec, np.random.default_rng(2))
    y = conv.forward(np.random.default_rng(9).standard_normal((4, time, channels)), start=start, step=step)
    dx = conv.backward(np.ones_like(y))
    assert dx.base is not None and dx.base.nbytes <= 2 * dx.nbytes
