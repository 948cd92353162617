"""Dense-tensor layer primitives with exact reverse-mode gradients.

Tensors are plain float64 numpy arrays in row-major order. Every layer
follows one protocol: ``forward(x, mode, rng)`` computes the output and
records the values needed for differentiation (the tape), and
``backward(dy)`` consumes that tape, fills ``self.grads`` with parameter
gradients, and returns the gradient with respect to the layer input (a
``Conv1d`` built with ``input_grad=False`` returns None). ``dy`` is taken
as given: the float64 array that the loss gradient or the next layer's
backward made. No backward converts it or writes into it. The input side
has one contract too, checked by ``check_input`` at the top of every
forward, ``Model.forward`` included: ``mode`` is "train" or "infer" (else
``ConfigError``), ``x`` becomes float64, and its rank and fixed axis sizes
must match the layer's (else ``ShapeError`` naming the layer or model and
the shape it expected; ``Dropout`` checks no axes).
Randomness is never ambient: layers that need it take an explicit
``numpy.random.Generator``. Layers take their hyperparameters as
constructor arguments; only ``Conv1d`` bundles its five in a spec.

Only train-mode forwards record a tape, or build the masks that go on
it; infer-mode forwards keep none. A tape holds what backward reads and
nothing larger: masks, not float copies, for relu convs (``z > 0``), max
pools and dropout. ``MaxPool1d`` is relu then max: the trunk's conv ->
relu -> pool is a linear conv and that pool, as relu commutes with max.

Layers form a tree: ``sublayers()`` lists a layer's parts as ``(name,
layer)`` pairs (``[]`` for a leaf). A layer keeps only its own arrays in
``params``, ``grads`` and ``buffers`` and overrides only
``own_kink_margin``. One walk (``walk``/``gather``, which serve the model
too) derives ``named_params`` and ``named_grads``, keyed by dotted paths
such as ``block0.conv_a.W``, and ``kink_margin``.

Independent computations may overlap on one helper thread, in two ways:
through ``fork_join``, the two branches of a two-branch model (the TCN in
the caller, the LSTM on the helper) and a conv backward's dX and dW; and
through ``each_half``, the two halves of a batch's rows in conv forwards and
in max pool, batch norm and dropout forwards and backwards, each half writing
its own rows of one output. Train steps and infer batches take the same
paths. Each array is still computed by the same operations in the same
order, so the bytes do not change; only numpy's GEMM and ufunc loops, which
release the GIL, run at the same time. What combines rows stays whole, in the
caller: batch norm's sums over batch and time, a conv's dW accumulation and
every rng draw. The helper serves the main thread only, only while it is
idle, and only for batches of ``OVERLAP_BATCH`` rows or more. It is claimed
per task and is idle again as soon as its task ends, so work nested in a
``fork_join``'s first part (the TCN's convs, once the LSTM is done) gets it
from then on. Calls from other threads (LOSO fold workers, whose pool
already keeps the cores busy), calls made while the helper is busy, calls in
a forked child (which has no helper thread) and small batches run everything
in turn.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, ShapeError, StateError, check_choice, check_count, check_real

MODES = ("train", "infer")
PADDINGS = ("same", "causal")
CONV_ACTIVATIONS = ("relu", "none")
# 0.9 keeps inference within ~10 updates of the weights; framework-style
# 0.99 assumes hundreds of optimizer steps per epoch, which subject-scale
# PPG training does not have (often a single batch per epoch)
BN_MOMENTUM = 0.9
BN_EPSILON = 1e-3
# Cap on the elements of one unfolded convolution block. 2**17 float64 is
# 1 MB, which stays in a core's L2 cache between the copy that fills it and
# the matmul that reads it: on a Xeon with 2 MB L2 per core, 2**20 made a
# B=512 train step ~15% slower. A B=512 batch never materialises its whole
# unfolded input (393 MB for conv1).
CHUNK_ELEMS = 2**17
# Consecutive output rows one GEMM row computes, through one window and a
# block-Toeplitz weight (see Conv1d): in every conv backward, and in the
# trunk convs' forwards. The model's conv backwards per B=512 train step,
# medians of 7 in two runs: one row per GEMM row 542 and 474 ms; 2 rows 434
# and 386; 4 rows 333 and 293; 8 rows 319 and 329. 8 wins nothing over 4 and
# multiplies more zeros. The trunk forwards at B=512 took 67.7 (conv1) and
# 72.4 ms (conv2) with 4 rows, 78.6 and 79.0 with 2, 69.4 and 77.8 with 8.
BLOCK_ROWS = 4


# Batch rows from which fork_join overlaps its two parts and each_half splits
# a stage's rows. In smaller batches both parts are Python-bound: they only
# trade the GIL, and the hand-off costs more than the overlap saves.
# cnn_tcn_lstm on the main thread, medians of 21 alternating calls in one
# process, in turn -> overlapped, ms, two processes: B=8 train step 48.6 ->
# 50.8 and 43.1 -> 45.4, infer forward 14.8 -> 15.9 and 9.8 -> 13.1; B=16 step
# 67.3 -> 64.5 and 53.1 -> 57.3, infer 20.6 -> 19.3 and 16.0 -> 16.8; B=32
# step 115.0 -> 93.2 and 116.9 -> 95.4, infer 35.2 -> 30.2 and 35.6 -> 30.2.
# Row halves at B=32, both with the branches overlapped, stages in turn ->
# halves, medians of 21 alternating train steps: 84.6 -> 80.7 and 66.2 ->
# 61.1 ms (64 rows: 125.8 -> 112.0).
OVERLAP_BATCH = 32
# One worker thread, started by its first task; _HELPER_IDLE is held from a
# task's claim until the task ends, so a task never waits behind another.
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="ppgemo-helper")
_HELPER_IDLE = threading.Lock()


def _drop_helper():
    """A forked child inherits the executor but not its thread, and a task
    submitted there would wait forever: the child runs everything in turn."""
    global _HELPER
    _HELPER = None


os.register_at_fork(after_in_child=_drop_helper)


def _claim(batch):
    """True when the helper was taken for a batch of `batch` rows: from
    OVERLAP_BATCH rows, on the main thread, while the helper is idle, in the
    process that made it (a forked child has none). A claim is handed to
    `_beside`, which frees the helper."""
    return (
        batch >= OVERLAP_BATCH
        and _HELPER is not None
        and threading.current_thread() is threading.main_thread()
        and _HELPER_IDLE.acquire(blocking=False)
    )


def _beside(first, second):
    """(first(), second()) with `second` on the claimed helper as `first`
    runs in the caller. `second` frees the helper as soon as it returns or
    raises, so a claim nested in `first` gets the helper from then on; a
    submit that raises frees it here."""
    try:
        pending = _HELPER.submit(_freeing, second)
    except BaseException:
        _HELPER_IDLE.release()
        raise
    try:
        out = first()
    finally:
        wait((pending,))
    return out, pending.result()


def _freeing(task):
    """task() on the helper, which is idle again once it ends."""
    try:
        return task()
    finally:
        _HELPER_IDLE.release()


def fork_join(first, second, batch):
    """(first(), second()), overlapped when the helper can be claimed for
    `batch` rows; otherwise both run here, `first` then `second`. Either way
    `second` has finished before this returns or raises, and if both raise,
    `first`'s error propagates. `first` keeps the caller's thread, so a task
    that draws from an rng must be `first`: the draws then stay in the
    sequential order."""
    return _beside(first, second) if _claim(batch) else (first(), second())


def each_half(n, part):
    """part(rows) over the batch rows 0..n: as part(slice(0, h)) here and
    part(slice(h, n)) on the helper, h = ceil(n/2), when the helper can be
    claimed for `n` rows; otherwise as part(slice(0, n)) here. Each part
    writes only its own rows of outputs the caller allocated, so the halves
    need no joining, and a part must not draw from an rng."""
    if _claim(n):
        h = -(-n // 2)
        _beside(partial(part, slice(0, h)), partial(part, slice(h, n)))
    else:
        part(slice(0, n))


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for numerical stability."""
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def walk(root, prefix: str = ""):
    """Every layer below `root`, depth first, as (dotted path, layer)."""
    for name, layer in root.sublayers():
        yield prefix + name, layer
        yield from walk(layer, f"{prefix}{name}.")


def gather(root, attr: str) -> dict[str, np.ndarray]:
    """The `attr` dicts ("params", "grads" or "buffers") of every layer below
    `root`, as one flat dict of live arrays keyed "<path>.<array name>"."""
    return {
        f"{path}.{k}": v for path, layer in walk(root) for k, v in getattr(layer, attr).items()
    }


def check_input(owner, x, mode, shape):
    """`x` as float64, after checking `mode` and that `x` has the axes of
    `shape`: a string entry names a free axis, an integer fixes its size.
    `shape` None checks no axes. Errors name `owner`'s class."""
    check_choice("mode", mode, MODES)
    x = np.asarray(x, dtype=np.float64)
    if shape is not None and (
        x.ndim != len(shape)
        or any(not isinstance(want, str) and n != want for n, want in zip(x.shape, shape))
    ):
        expected = ", ".join(map(str, shape))
        raise ShapeError(f"{type(owner).__name__} expected [{expected}], got {x.shape}")
    return x


class Layer:
    """Base forward/backward pair with parameter, gradient and buffer dicts."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        # non-trainable state (e.g. running stats), updated in place
        self.buffers: dict[str, np.ndarray] = {}
        self._cache = None

    def forward(self, x, mode="train", rng=None):
        raise NotImplementedError

    def backward(self, dy):
        raise NotImplementedError

    def sublayers(self) -> list[tuple[str, "Layer"]]:
        return []

    def named_params(self) -> dict[str, np.ndarray]:
        """Live references to the trainable arrays of this layer's tree."""
        return {**self.params, **gather(self, "params")}

    def named_grads(self) -> dict[str, np.ndarray]:
        return {**self.grads, **gather(self, "grads")}

    def kink_margin(self) -> float:
        """Distance from the last forward pass to the nearest point where
        the layer tree is not differentiable (a relu corner; pooling ties
        are measured from the pool's input, see gradcheck.maxpool_margin).
        Used by the finite-difference checker to reject ill-posed cases."""
        return min([self.own_kink_margin()] + [sub.own_kink_margin() for _, sub in walk(self)])

    def own_kink_margin(self) -> float:
        return np.inf

    def _record(self, mode, *tape):
        """Keep the tape for backward; infer mode has no backward, so an
        infer-mode forward keeps nothing."""
        self._cache = tape if mode == "train" else None

    def _tape(self):
        """Hand the tape to backward and drop the layer's reference, so
        the recorded arrays are freed as soon as backward is done with
        them; a second backward needs a new train-mode forward."""
        if self._cache is None:
            raise StateError(
                f"{type(self).__name__}.backward called without a forward in train "
                "mode since the last backward"
            )
        tape, self._cache = self._cache, None
        return tape


def _windows(a, k, first, stride, n, block=1):
    """Yield (batch slice, row slice, block, windows) covering output rows
    i < n, where row i reads the k rows a[:, first + i*stride :][:, :k] of
    `a` [batch, time, channels]. Each full block of `block` consecutive rows
    is one window of span = k + (block-1)*stride rows; the last n % block
    rows take block 1. windows is those windows unfolded to [batch rows *
    windows, span*channels], at most CHUNK_ELEMS elements (or one batch
    row) at a time."""
    full = n // block
    for b, count, lo in ((block, full, 0), (1, n - full * block, full * block)):
        if count == 0:
            continue
        span = k + (b - 1) * stride
        win = sliding_window_view(a, span, axis=1)[:, first + lo * stride :: b * stride]
        win = win[:, :count].swapaxes(2, 3)
        width = span * a.shape[2]
        rows = max(1, CHUNK_ELEMS // (count * width))
        for b0 in range(0, a.shape[0], rows):
            sl = slice(b0, b0 + rows)
            yield sl, slice(lo, lo + count * b), b, win[sl].reshape(-1, width)


def _toeplitz(w, stride, block):
    """The block-Toeplitz weight [span*c, block*f] of `w` [k, c, f]: w placed
    at row offsets r*stride, r < block, of zeros [span, c, block, f]. One
    window of _windows' `block` rows times it gives those rows' outputs."""
    k, c, f = w.shape
    wb = np.zeros((k + (block - 1) * stride, c, block, f))
    for r in range(block):
        wb[r * stride : r * stride + k, :, r] = w
    return wb.reshape(-1, block * f)


def _padded(a, left, right):
    """`a` [batch, time, channels] with `left` and `right` zero rows added on
    the time axis: np.pad's result without its per-call overhead. Only the
    pad rows are zeroed, so the rows of `a` are written once."""
    t = a.shape[1]
    out = np.empty((a.shape[0], left + t + right, a.shape[2]))
    out[:, :left] = 0.0
    out[:, left + t :] = 0.0
    out[:, left : left + t] = a
    return out


@dataclass(frozen=True)
class Conv1dSpec:
    filters: int
    kernel_size: int
    stride: int = 1
    padding: str = "same"
    activation: str = "none"

    def __post_init__(self):
        for name in ("filters", "kernel_size", "stride"):
            check_count(name, getattr(self, name))
        check_choice("padding", self.padding, PADDINGS)
        check_choice("activation", self.activation, CONV_ACTIVATIONS)
        if self.padding == "causal" and self.stride != 1:
            raise ConfigError("causal padding supports stride 1 only")


class Conv1d(Layer):
    """1-d convolution over [batch, time, channels] inputs.

    'same' padding keeps time_out = ceil(time / stride), splitting the
    total pad floor(pad/2) left and the remainder right. 'causal' padding
    puts all kernel-1 pad samples on the left so output t never sees input
    beyond t, and keeps time_out = time.

    A forward may compute only the output rows start, start + step, ... of
    those time_out rows; the rest are never formed and backward sends no
    gradient through them. The tape records which rows were computed.

    One kernel serves every padding, stride and row selection. The padded
    input is read through a window view [batch, rows, kernel, channels]
    whose element [b, i, j, c] is xp[b, first + i*S + j, c], where first =
    start*stride and S = stride*step. The output is that view unfolded to
    [batch*rows, kernel*channels] times W reshaped to [kernel*channels,
    filters]. The unfolded copy is built a few batch rows at a time, at
    most CHUNK_ELEMS elements each (or one row, if a row is larger), so its
    memory stays bounded whatever the batch size. Each chunk's product gets
    the bias while it is still in cache. The two halves of the batch's rows
    walk their own chunks, through each_half.

    With forward_block = BLOCK_ROWS (the trunk convs, as models.build makes
    them) one GEMM row of the forward computes BLOCK_ROWS consecutive output
    rows: their windows overlap in one window of kernel + (BLOCK_ROWS-1)*S
    input rows, times the block-Toeplitz weight that holds W at row offsets
    r*S (_toeplitz); rows past the last full block take block 1. The zeros
    add exact zeros and, at the trunk's windows (76 and 304 values), every
    dot product keeps its order, so the outputs are the one-row forward's
    bit for bit. The TCN's convs keep one row per GEMM row: blocked, the
    512-value windows of its first conv change results by up to 2e-15
    relative, and its other convs gained no time. What stays pinned is the
    model's infer outputs.

    Backward takes BLOCK_ROWS consecutive output rows per GEMM row. Their
    windows overlap in one window of kernel + (BLOCK_ROWS-1)*S input rows,
    unfolded once; rows past the last full block take a window each. dW is
    those windows transposed times dy grouped BLOCK_ROWS rows at a time: the
    [span*channels, BLOCK_ROWS*filters] product holds each row's
    [kernel*channels, filters] term at row offset r*S, column block r, and
    dW is the sum of those diagonal blocks.

    dX is a transposed convolution (Dumoulin and Visin, arXiv:1603.07285)
    computed as one stride-1 correlation. Every S input positions form one
    super-row of S*channels values, and the taps, zero-padded to M*S with M
    = ceil(kernel/S), form M blocks of S taps. Super-row q then takes dy
    rows q-M+1 .. q through those blocks flipped in time, so dX is dy,
    padded by M-1 rows on each side, correlated with them: its GEMM row is
    a window of M + BLOCK_ROWS - 1 dy rows times the block-Toeplitz weight
    of BLOCK_ROWS super-rows (_toeplitz). The result is allocated in whole
    blocks of super-rows (one block, if fewer rows are needed) from a
    position at or left of the returned range, and dX is a slice of it; a
    result of one super-row keeps only the positions returned. Positions no
    row reads get the zero-padded taps' zeros. dX runs beside dW and db
    through fork_join. With input_grad=False (a layer whose input is the
    raw signal) backward fills only the parameter gradients and returns
    None.
    """

    def __init__(
        self,
        in_channels: int,
        spec: Conv1dSpec,
        rng: np.random.Generator,
        input_grad: bool = True,
        forward_block: int = 1,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.spec = spec
        self.input_grad = input_grad
        self.forward_block = forward_block
        k, f = spec.kernel_size, spec.filters
        self.params = {
            "W": glorot_uniform(rng, (k, in_channels, f), k * in_channels, k * f),
            "b": np.zeros(f),
        }

    def output_len(self, time: int) -> int:
        if self.spec.padding == "same":
            return -(-time // self.spec.stride)
        return time

    def forward(self, x, mode="train", rng=None, start=0, step=1):
        x = check_input(self, x, mode, ("batch", "time", self.in_channels))
        spec = self.spec
        k, s = spec.kernel_size, spec.stride
        t = x.shape[1]
        if spec.padding == "same":
            pad = max((self.output_len(t) - 1) * s + k - t, 0)
            left = pad // 2
            right = pad - left
        else:
            left = k - 1
            right = 0
        xp = _padded(x, left, right)
        z = self._preactivation(xp, t, start, step)
        if spec.activation == "relu":
            live = z > 0.0 if mode == "train" else None
            self._record(mode, xp, live, t, left, start, step)
            return np.maximum(z, 0.0, out=z)
        self._record(mode, xp, None, t, left, start, step)
        return z

    def _preactivation(self, xp, t, start, step):
        """Output rows start, start + step, ... before the activation, from
        the padded input `xp` of a `t`-step input."""
        k, s, f = self.spec.kernel_size, self.spec.stride, self.spec.filters
        w, bias = self.params["W"], self.params["b"]
        z = np.empty((xp.shape[0], len(range(start, self.output_len(t), step)), f))
        block = self.forward_block
        blocks = {b: _toeplitz(w, s * step, b) for b in {1, block}}

        def part(rows):
            zr = z[rows]
            for sl, sel, b, cols in _windows(xp[rows], k, start * s, s * step, z.shape[1], block):
                zs = zr[sl, sel]
                # the product goes straight into z unless the chunk's rows
                # skip the tail rows of a blocked forward
                if zs.flags.c_contiguous:
                    np.matmul(cols, blocks[b], out=zs.reshape(-1, b * f))
                    zs += bias
                else:
                    np.add((cols @ blocks[b]).reshape(zs.shape), bias, out=zs)

        each_half(len(z), part)
        return z

    def backward(self, dy):
        xp, live, t, left, start, step = self._tape()
        if live is not None:
            dy = dy * live
        # output row i read xp[first + i*stride_in + j] through tap j
        first, stride_in = start * self.spec.stride, self.spec.stride * step
        if not self.input_grad:
            self.grads = self._param_grads(xp, dy, first, stride_in)
            return None
        dx, self.grads = fork_join(
            lambda: self._input_grad(dy, t, left, first, stride_in),
            lambda: self._param_grads(xp, dy, first, stride_in),
            dy.shape[0],
        )
        return dx

    def _param_grads(self, xp, dy, first, stride_in):
        """dW and db from the padded input and the output gradient."""
        k, c, f = self.params["W"].shape
        dw = np.zeros((k, c, f))
        for sl, sel, b, cols in _windows(xp, k, first, stride_in, dy.shape[1], BLOCK_ROWS):
            g = (cols.T @ dy[sl, sel].reshape(-1, b * f)).reshape(-1, c, b, f)
            for r in range(b):
                dw += g[r * stride_in : r * stride_in + k, :, r]
        return {"W": dw, "b": dy.sum(axis=(0, 1))}

    def _input_grad(self, dy, t, left, first, stride_in):
        """dX of the `t`-step input, `left` pad rows before it."""
        w = self.params["W"]
        k, c, f = w.shape
        n = dy.shape[1]
        # super-row q holds the stride_in positions from o + q*stride_in;
        # o is first, moved left by whole super-rows to at most `left`
        m = -(-k // stride_in)
        lead = max(0, -(-(first - left) // stride_in))
        o = first - lead * stride_in
        end = left - o + t  # the positions from o that dX returns
        rows = -(-end // stride_in)
        block = min(BLOCK_ROWS, rows)
        rows = -(-rows // block) * block
        taps = np.zeros((m * stride_in, c, f))
        taps[:k] = w
        # the M tap blocks, flipped in time, each as [filters, stride_in*c];
        # a single super-row keeps only the positions returned
        taps = taps.reshape(m, stride_in, c, f)[::-1].transpose(0, 3, 1, 2)
        taps = taps.reshape(m, f, stride_in * c)[:, :, : min(stride_in, end) * c]
        wb = _toeplitz(taps, 1, block)
        dy = _padded(dy, m - 1 + lead, rows - lead - n)
        dxp = np.empty((dy.shape[0], rows, taps.shape[2]))
        for sl, _, _, cols in _windows(dy, m, 0, 1, rows, block):
            np.matmul(cols, wb, out=dxp[sl].reshape(-1, wb.shape[1]))
        return dxp.reshape(dy.shape[0], -1, c)[:, left - o : end]

    def own_kink_margin(self) -> float:
        """The smallest |z| of the last train forward's relu, recomputed from
        its tape: the tape keeps only z > 0, and a production step never
        needs the margin."""
        if self._cache is None or self.spec.activation != "relu":
            return np.inf
        xp, _, t, _, start, step = self._cache
        z = self._preactivation(xp, t, start, step)
        return float(np.abs(z).min()) if z.size else np.inf


class MaxPool1d(Layer):
    """Relu, then the per-channel maximum over non-overlapping windows;
    trailing samples that cannot fill a window are dropped. This is the
    trunk's conv relu and pool in one layer: relu commutes with max, so it
    is applied to the maxima and neither stage keeps a float copy.

    Forward folds np.maximum over the windows' strided slots; in train mode
    it notes where each slot beats every slot before it, and which maxima
    are positive. Backward sends each window's gradient to its first
    maximum, the one argmax would pick: the last slot that beat all earlier
    ones, else slot 0. Windows whose maximum is not positive send none."""

    def __init__(self, pool_size: int):
        super().__init__()
        check_count("pool_size", pool_size)
        self.pool = pool_size

    def forward(self, x, mode="train", rng=None):
        x = check_input(self, x, mode, ("batch", "time", "channels"))
        p = self.pool
        if x.shape[1] < p:
            raise ShapeError(f"time axis {x.shape[1]} shorter than pool window {p}")
        end = x.shape[1] // p * p
        train = mode == "train"
        out = np.empty((x.shape[0], end // p, x.shape[2]))
        # beats[j - 1]: slot j is above every slot before it
        beats = [np.empty(out.shape, dtype=bool) for _ in range(1, p)] if train else []
        live = np.empty(out.shape, dtype=bool) if train else None

        def part(rows):
            top = x[rows, 0:end:p]
            for j in range(1, p):
                slot = x[rows, j:end:p]
                if train:
                    np.greater(slot, top, out=beats[j - 1][rows])
                top = np.maximum(top, slot, out=out[rows])
            if train:
                np.greater(top, 0.0, out=live[rows])
            # with p = 1, top is still a view of x
            np.maximum(top, 0.0, out=out[rows])

        each_half(len(x), part)
        self._record(mode, beats, live, x.shape)
        return out

    def backward(self, dy):
        beats, live, shape = self._tape()
        p = self.pool
        end = shape[1] // p * p
        dx = np.zeros(shape)

        def part(rows):
            # dy * live, not a masked copy: a non-finite dy stays non-finite,
            # as through the conv relu's dy * (z > 0)
            g = dy[rows] * live[rows]
            rest = np.ones(g.shape, dtype=bool)  # windows not yet routed
            for j in range(p - 1, 0, -1):
                np.copyto(dx[rows, j:end:p], g, where=beats[j - 1][rows] & rest)
                rest &= ~beats[j - 1][rows]
            np.copyto(dx[rows, 0:end:p], g, where=rest)

        each_half(len(dy), part)
        return dx


class GlobalMaxPool(Layer):
    """Maximum over the time axis: [batch, time, channels] -> [batch, channels].
    Backward sends each gradient to the first maximum, the one argmax picks."""

    def forward(self, x, mode="train", rng=None):
        x = check_input(self, x, mode, ("batch", "time", "channels"))
        if x.shape[1] < 1:
            raise ShapeError("GlobalMaxPool needs a non-empty time axis")
        out = x.max(axis=1)
        first = (x == out[:, None]).argmax(axis=1) if mode == "train" else None
        self._record(mode, first, x.shape)
        return out

    def backward(self, dy):
        first, shape = self._tape()
        dx = np.zeros(shape)
        np.put_along_axis(dx, first[:, None], dy[:, None], axis=1)
        return dx


class BatchNorm1d(Layer):
    """Channel-wise normalization pooling statistics over batch and time.

    Train mode normalizes with the current batch's statistics and keeps an
    exponential moving average (running = m*running + (1-m)*batch, with
    m = BN_MOMENTUM) for inference; infer mode uses the running statistics
    only and fails if no training batch has ever been seen. Infer mode
    scales and shifts its own centred copy of x in place and returns it, so
    it makes one full-size array and leaves x unchanged.

    The elementwise passes (centring and squaring, scaling, gamma and beta,
    and backward's dx formula) run on the batch's two row halves through
    each_half. The four sums over batch and time (the mean, the variance,
    dgamma and dbeta) stay whole in the caller, so every statistic, running
    buffer and gradient keeps its bits.
    """

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        self.params = {"gamma": np.ones(channels), "beta": np.zeros(channels)}
        # seen_batch is 1.0 once a training batch has been seen; a buffer, so
        # snapshots, restores and saved models carry it with the running stats
        self.buffers = {
            "running_mean": np.zeros(channels),
            "running_var": np.ones(channels),
            "seen_batch": np.zeros(()),
        }

    def forward(self, x, mode="train", rng=None):
        x = check_input(self, x, mode, ("batch", "time", self.channels))
        buf = self.buffers
        n = x.shape[0] * x.shape[1]
        gamma, beta = self.params["gamma"], self.params["beta"]
        xhat = np.empty(x.shape)
        # train mode squares xhat into out before the output goes there; no
        # tape keeps an infer-mode xhat, so it becomes the output
        out = np.empty(x.shape) if mode == "train" else xhat
        if mode == "train":
            # x.mean and x.var as numpy's _mean and _var compute them, bit
            # for bit, with the centred copy kept for xhat
            mean = x.sum(axis=(0, 1), keepdims=True) / n

            def centre(rows):
                np.subtract(x[rows], mean, out=xhat[rows])
                np.square(xhat[rows], out=out[rows])

            each_half(len(x), centre)
            var = out.sum(axis=(0, 1)) / n
            mean = mean[0, 0]
            # in-place so external references to the buffers stay live;
            # the first batch seeds the running stats outright, otherwise
            # inference is biased toward the arbitrary 0/1 init for the
            # first ~1/(1-momentum) updates
            m = BN_MOMENTUM if buf["seen_batch"] else 0.0
            buf["running_mean"] *= m
            buf["running_mean"] += (1.0 - m) * mean
            buf["running_var"] *= m
            buf["running_var"] += (1.0 - m) * var
            buf["seen_batch"][...] = 1.0
        else:
            if not buf["seen_batch"]:
                raise StateError(
                    "batchnorm inference requested before any training batch"
                )
            var = buf["running_var"]
            mean = buf["running_mean"]
        inv = 1.0 / np.sqrt(var + BN_EPSILON)

        def part(rows):
            xr = xhat[rows]
            if mode != "train":
                np.subtract(x[rows], mean, out=xr)
            xr *= inv
            np.multiply(xr, gamma, out=out[rows])
            out[rows] += beta

        each_half(len(x), part)
        self._record(mode, xhat, inv, n)
        return out

    def backward(self, dy):
        xhat, inv, n = self._tape()
        dx = np.empty(dy.shape)
        each_half(len(dy), lambda rows: np.multiply(dy[rows], xhat[rows], out=dx[rows]))
        dgamma = dx.sum(axis=(0, 1))
        dbeta = dy.sum(axis=(0, 1))
        self.grads = {"gamma": dgamma, "beta": dbeta}
        scale = self.params["gamma"] * inv

        # batch statistics depend on every element, hence the centering terms
        def part(rows):
            d, xr = dx[rows], xhat[rows]
            np.subtract(dy[rows], dbeta / n, out=d)
            xr *= dgamma / n  # _tape() handed xhat over, so it is scaled in place
            d -= xr
            d *= scale

        each_half(len(dy), part)
        return dx


class Dropout(Layer):
    """Inverted dropout: train-time zeroing with a 1/(1-rate) rescale on
    the survivors, so inference is exactly the identity."""

    def __init__(self, rate: float):
        super().__init__()
        check_real("rate", rate, "[0, 1)")
        self.rate = rate

    def forward(self, x, mode="train", rng=None, drawn=None):
        """Axis 1 of `x` is time. `drawn=(time, rows)`: x holds only the time
        steps `rows` (a slice) of a `time`-step sequence; without it, x is
        the whole sequence. The mask is drawn for all `time` steps, as a
        forward over the whole sequence draws it, and cut to `rows`."""
        x = check_input(self, x, mode, None)
        keep = None
        if mode == "train" and self.rate > 0.0:
            if rng is None:
                raise StateError("dropout in train mode needs an explicit rng")
            time, rows = drawn or (x.shape[1], slice(None))
            full = rng.random((x.shape[0], time, *x.shape[2:])) >= self.rate
            # a copy only when rows cut the draw, so the tape keeps no more
            keep = np.ascontiguousarray(full[:, rows])
        self._record(mode, keep)
        return x if keep is None else self._scaled(x, keep)

    def backward(self, dy):
        (keep,) = self._tape()
        return dy if keep is None else self._scaled(dy, keep)

    def _scaled(self, a, keep):
        """a * keep / (1 - rate), rounded as a * (keep / (1 - rate)) is."""
        out = np.empty(a.shape)

        def part(rows):
            np.multiply(a[rows], keep[rows], out=out[rows])
            out[rows] *= 1.0 / (1.0 - self.rate)

        each_half(len(a), part)
        return out


class Dense(Layer):
    """The binary head: an affine map from [batch, features] to two logits,
    through a row-wise softmax."""

    def __init__(self, in_features: int, rng: np.random.Generator):
        super().__init__()
        self.in_features = in_features
        self.params = {
            "W": glorot_uniform(rng, (in_features, 2), in_features, 2),
            "b": np.zeros(2),
        }

    def forward(self, x, mode="train", rng=None):
        x = check_input(self, x, mode, ("batch", self.in_features))
        p = softmax(x @ self.params["W"] + self.params["b"])
        self._record(mode, x, p)
        return p

    def backward(self, dy):
        x, p = self._tape()
        dz = p * (dy - (dy * p).sum(axis=1, keepdims=True))
        self.grads = {"W": x.T @ dz, "b": dz.sum(axis=0)}
        return dz @ self.params["W"].T
