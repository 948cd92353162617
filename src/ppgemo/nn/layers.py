"""Dense-tensor layer primitives with exact reverse-mode gradients.

Tensors are plain float64 numpy arrays in row-major order. Every layer
follows one protocol: ``forward(x, mode, rng)`` computes the output and
records the values needed for differentiation (the tape), and
``backward(dy)`` consumes that tape, fills ``self.grads`` with parameter
gradients, and returns the gradient with respect to the layer input (a
``Conv1d`` built with ``input_grad=False`` returns None).
Randomness is never ambient: layers that need it take an explicit
``numpy.random.Generator``. Layers take their hyperparameters as
constructor arguments; only ``Conv1d`` bundles its five in a spec.

Only train-mode forwards record a tape; infer-mode forwards keep none.

Layers form a tree: ``sublayers()`` lists a layer's parts as ``(name,
layer)`` pairs (``[]`` for a leaf). A layer keeps only its own arrays in
``params``, ``grads`` and ``buffers`` and overrides only
``own_kink_margin``. One walk (``walk``/``gather``, which serve the model
too) derives ``named_params`` and ``named_grads``, keyed by dotted paths
such as ``block0.conv_a.W``, and ``kink_margin``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError, ShapeError, StateError, check_count

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


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")


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
        the layer tree is not differentiable (relu corner, pooling tie).
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


def _unfolded(a, k, first=0, stride=1):
    """Yield (batch slice, unfolded windows [batch rows * windows, k*channels])
    of `a` [batch, time, channels]: the k-step windows that start at first,
    first + stride, ..., at most CHUNK_ELEMS elements (or one batch row) at
    a time."""
    win = sliding_window_view(a, k, axis=1)[:, first::stride].swapaxes(2, 3)
    width = k * a.shape[2]
    rows = max(1, CHUNK_ELEMS // (win.shape[1] * width))
    for b0 in range(0, a.shape[0], rows):
        sl = slice(b0, b0 + rows)
        yield sl, win[sl].reshape(-1, width)


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
        if self.padding not in PADDINGS:
            raise ConfigError(f"padding must be one of {PADDINGS}, got {self.padding!r}")
        if self.activation not in CONV_ACTIVATIONS:
            raise ConfigError(
                f"activation must be one of {CONV_ACTIVATIONS}, got {self.activation!r}"
            )
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
    whose element [b, i, j, c] is xp[b, (start + i*step)*stride + j, c];
    the output is that view unfolded to [batch*rows, kernel*channels] times
    W reshaped to [kernel*channels, filters], and dW is the unfolded view
    transposed times dy. The unfolded copy is built a few batch rows at a
    time, at most CHUNK_ELEMS elements each (or one row, if a row is
    larger), so its memory stays bounded whatever the batch size.

    dX is a transposed convolution (Dumoulin and Visin, arXiv:1603.07285)
    computed as one correlation per input phase, through the same unfolded
    kernel. Output row i reads xp[first + i*S + j] through tap j, where
    first = start*stride and S = stride*step. The positions first + r +
    m*S of phase r < S take the taps W[r::S], M of them: they are dy,
    padded by M-1 rows on each side, correlated with those taps flipped in
    time. Phases write disjoint positions; a phase r >= kernel_size has no
    taps and its positions get no gradient. With input_grad=False (a
    layer whose input is the raw signal) backward fills only the
    parameter gradients and returns None.
    """

    def __init__(
        self,
        in_channels: int,
        spec: Conv1dSpec,
        rng: np.random.Generator,
        input_grad: bool = True,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.spec = spec
        self.input_grad = input_grad
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
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_channels:
            raise ShapeError(
                f"conv1d expected [batch, time, {self.in_channels}], got {x.shape}"
            )
        spec = self.spec
        k, s, f = spec.kernel_size, spec.stride, spec.filters
        bsz, t, _ = x.shape
        t_out = self.output_len(t)
        if spec.padding == "same":
            pad = max((t_out - 1) * s + k - t, 0)
            left = pad // 2
            right = pad - left
        else:
            left = k - 1
            right = 0
        xp = np.pad(x, ((0, 0), (left, right), (0, 0)))
        w = self.params["W"].reshape(-1, f)
        z = np.empty((bsz, len(range(start, t_out, step)), f))
        for sl, cols in _unfolded(xp, k, start * s, s * step):
            np.matmul(cols, w, out=z[sl].reshape(-1, f))
        z += self.params["b"]
        self._record(mode, xp, z, t, left, start, step)
        if spec.activation == "relu":
            return np.maximum(z, 0.0)
        return z

    def backward(self, dy):
        xp, z, t, left, start, step = self._tape()
        spec = self.spec
        k, s, f = spec.kernel_size, spec.stride, spec.filters
        dy = np.asarray(dy, dtype=np.float64)
        if spec.activation == "relu":
            dy = dy * (z > 0.0)
        w = self.params["W"]
        dw = np.zeros((k * self.in_channels, f))
        # output row i read xp[first + i*stride_in + j] through tap j
        first, stride_in = start * s, s * step
        for sl, cols in _unfolded(xp, k, first, stride_in):
            dw += cols.T @ dy[sl].reshape(-1, f)
        self.grads = {"W": dw.reshape(w.shape), "b": dy.sum(axis=(0, 1))}
        if not self.input_grad:
            return None
        n = dy.shape[1]
        pad = -(-k // stride_in) - 1  # phase 0 has the most taps
        # rebinding frees the relu-masked copy
        dy = np.pad(dy, ((0, 0), (pad, pad), (0, 0)))
        dxp = np.zeros_like(xp)
        for r in range(min(stride_in, k)):
            taps = w[r::stride_in][::-1]
            m = len(taps)
            wt = taps.transpose(0, 2, 1).reshape(m * f, self.in_channels)
            # position first + r + i*stride_in takes dy rows i-m+1 .. i
            dxr = dxp[:, first + r :: stride_in][:, : n + m - 1]
            for sl, cols in _unfolded(dy[:, pad - m + 1 : pad + n + m - 1], m):
                dxr[sl] = (cols @ wt).reshape(-1, n + m - 1, self.in_channels)
        return dxp[:, left : left + t, :]

    def own_kink_margin(self) -> float:
        if self._cache is None or self.spec.activation != "relu":
            return np.inf
        z = self._cache[1]
        return float(np.abs(z).min()) if z.size else np.inf


class MaxPool1d(Layer):
    """Per-channel maximum over non-overlapping windows; trailing samples
    that cannot fill a window are dropped.

    Forward computes only the maxima. Backward sends each window's gradient
    to the first element equal to its maximum, the one argmax would pick."""

    def __init__(self, pool_size: int):
        super().__init__()
        check_count("pool_size", pool_size)
        self.pool = pool_size

    def _windows(self, a):
        """View of `a` [batch, time, channels] as [batch, windows, window, channels]."""
        bsz, t, c = a.shape
        n = t // self.pool
        return a[:, : n * self.pool, :].reshape(bsz, n, self.pool, c)

    def forward(self, x, mode="train", rng=None):
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"maxpool expected [batch, time, channels], got {x.shape}")
        if x.shape[1] < self.pool:
            raise ShapeError(f"time axis {x.shape[1]} shorter than pool window {self.pool}")
        out = self._windows(x).max(axis=2)
        self._record(mode, x, out)
        return out

    def backward(self, dy):
        x, out = self._tape()
        dy = np.asarray(dy, dtype=np.float64)
        arg = (self._windows(x) == out[:, :, None, :]).argmax(axis=2, keepdims=True)
        dx = np.zeros_like(x)
        # windows do not overlap, so each input takes at most one gradient
        np.put_along_axis(self._windows(dx), arg, dy[:, :, None, :], axis=2)
        return dx

    def own_kink_margin(self) -> float:
        if self._cache is None:
            return np.inf
        windows = self._windows(self._cache[0])
        if windows.shape[2] < 2:
            return np.inf
        top2 = np.sort(windows, axis=2)[:, :, -2:, :]
        return float((top2[:, :, 1, :] - top2[:, :, 0, :]).min())


class GlobalMaxPool(MaxPool1d):
    """Maximum over the time axis: [batch, time, channels] -> [batch, channels];
    a max pool whose one window is the whole sequence."""

    def __init__(self):
        super().__init__(1)

    def _windows(self, a):
        return a[:, None]

    def forward(self, x, mode="train", rng=None):
        return super().forward(x, mode, rng)[:, 0]

    def backward(self, dy):
        return super().backward(np.asarray(dy)[:, None])


class BatchNorm1d(Layer):
    """Channel-wise normalization pooling statistics over batch and time.

    Train mode normalizes with the current batch's statistics and keeps an
    exponential moving average (running = m*running + (1-m)*batch, with
    m = BN_MOMENTUM) for inference; infer mode uses the running statistics
    only and fails if no training batch has ever been seen.
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
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.channels:
            raise ShapeError(
                f"batchnorm expected [batch, time, {self.channels}], got {x.shape}"
            )
        buf = self.buffers
        if mode == "train":
            mean = x.mean(axis=(0, 1))
            var = x.var(axis=(0, 1))
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
            mean, var = buf["running_mean"], buf["running_var"]
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (x - mean) * inv
        out = self.params["gamma"] * xhat + self.params["beta"]
        self._record(mode, xhat, inv, x.shape[0] * x.shape[1])
        return out

    def backward(self, dy):
        xhat, inv, n = self._tape()
        dy = np.asarray(dy, dtype=np.float64)
        g = self.params["gamma"]
        dgamma = (dy * xhat).sum(axis=(0, 1))
        dbeta = dy.sum(axis=(0, 1))
        self.grads = {"gamma": dgamma, "beta": dbeta}
        # batch statistics depend on every element, hence the centering terms
        return (g * inv) * (dy - dbeta / n - xhat * (dgamma / n))


class Dropout(Layer):
    """Inverted dropout: train-time zeroing with a 1/(1-rate) rescale on
    the survivors, so inference is exactly the identity."""

    def __init__(self, rate: float):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, mode="train", rng=None, drawn=None):
        """`drawn=(time, rows)`: x holds only the time steps `rows` (a slice)
        of a `time`-step sequence. The mask is drawn for all `time` steps,
        as a forward over the whole sequence draws it, and cut to `rows`."""
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        scale = None
        if mode == "train" and self.rate > 0.0:
            if rng is None:
                raise StateError("dropout in train mode needs an explicit rng")
            if drawn is None:
                keep = rng.random(x.shape) >= self.rate
            else:
                time, rows = drawn
                keep = (rng.random((x.shape[0], time, x.shape[2])) >= self.rate)[:, rows]
            scale = keep / (1.0 - self.rate)
        self._record(mode, scale)
        return x if scale is None else x * scale

    def backward(self, dy):
        (scale,) = self._tape()
        dy = np.asarray(dy, dtype=np.float64)
        return dy if scale is None else dy * scale


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
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"dense expected [batch, {self.in_features}], got {x.shape}")
        p = softmax(x @ self.params["W"] + self.params["b"])
        self._record(mode, x, p)
        return p

    def backward(self, dy):
        x, p = self._tape()
        dy = np.asarray(dy, dtype=np.float64)
        dz = p * (dy - (dy * p).sum(axis=1, keepdims=True))
        self.grads = {"W": x.T @ dz, "b": dz.sum(axis=0)}
        return dz @ self.params["W"].T
