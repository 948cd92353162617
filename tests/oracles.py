"""Independent reference implementations used only to check the package.

These stay deliberately naive (direct formulas, brute-force loops) so they
share no code path with what they verify. Two kinds of layer at the end
are the exception: the float-tape layers are the package's layers before
their tapes held masks, kept as the bit-exact reference for that rewrite,
and PhaseSplitConv is Conv1d before its backward took several output rows
per GEMM row.
"""

from dataclasses import replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ppgemo.nn import BatchNorm1d, Conv1d, Conv1dSpec, Dropout, MaxPool1d, layers
from ppgemo.nn.layers import BN_EPSILON, BN_MOMENTUM, _padded


def sos_magnitude_db(sos, f_hz, fs_hz):
    """|H| in dB at one frequency, evaluating each biquad on the unit circle."""
    z1 = np.exp(-2j * np.pi * f_hz / fs_hz)  # z^-1
    h = 1.0 + 0.0j
    for b0, b1, b2, a0, a1, a2 in sos:
        h *= (b0 + b1 * z1 + b2 * z1 * z1) / (a0 + a1 * z1 + a2 * z1 * z1)
    return 20.0 * np.log10(abs(h))


def brute_force_auc(scores, labels):
    """Mean over all (positive, negative) pairs of win + half-tie credit."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pos = s[y == 1]
    neg = s[y == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def confusion_counts(preds, labels, cls):
    tp = fp = fn = tn = 0
    for p, y in zip(preds, labels):
        if p == cls and y == cls:
            tp += 1
        elif p == cls and y != cls:
            fp += 1
        elif p != cls and y == cls:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def oracle_f1(preds, labels, cls):
    tp, fp, fn, _ = confusion_counts(preds, labels, cls)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def oracle_accuracy(preds, labels):
    return sum(int(p == y) for p, y in zip(preds, labels)) / len(labels)


def oracle_weighted_f1(preds, labels):
    n = len(labels)
    total = 0.0
    for cls in (0, 1):
        support = sum(int(y == cls) for y in labels)
        total += support * oracle_f1(preds, labels, cls)
    return total / n


def dominant_peak_hz(x, fs_hz):
    """Frequency of the largest discrete Fourier magnitude, DC excluded."""
    mag = np.abs(np.fft.rfft(x))
    freqs = np.fft.rfftfreq(x.size, 1.0 / fs_hz)
    return freqs[mag[1:].argmax() + 1]


def hr_variability_stat(x, fs_hz, chunk_s=10.0):
    """Std of the per-chunk dominant frequency in the plausible pulse band."""
    n = int(chunk_s * fs_hz)
    found = []
    for i in range(0, x.size - n + 1, n):
        chunk = x[i : i + n]
        mag = np.abs(np.fft.rfft(chunk))
        freqs = np.fft.rfftfreq(n, 1.0 / fs_hz)
        band = (freqs >= 0.5) & (freqs <= 3.5)
        found.append(freqs[band][mag[band].argmax()])
    return float(np.std(found))


def rel_err(got, want):
    """Largest elementwise error relative to the reference's largest magnitude."""
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    return float(np.abs(got - want).max(initial=0.0)) / scale


def maxpool(x, dy, window=None):
    """Max pool over non-overlapping windows of `window` time steps (the
    whole time axis when None), one window at a time.

    Returns the maxima [batch, windows, channels], the input gradient that
    sends each dy entry to the first maximum of its window, and the smallest
    gap between a window's largest and second-largest values (inf when the
    windows hold one sample).
    """
    bsz, t, c = x.shape
    size = t if window is None else window
    out = np.empty((bsz, t // size, c))
    dx = np.zeros_like(x)
    margin = np.inf
    for b in range(bsz):
        for i in range(t // size):
            for ch in range(c):
                vals = [float(x[b, i * size + j, ch]) for j in range(size)]
                first = 0
                for j in range(1, size):
                    if vals[j] > vals[first]:
                        first = j
                out[b, i, ch] = vals[first]
                dx[b, i * size + first, ch] = dy[b, i, ch]
                if size > 1:
                    runner_up = max(v for j, v in enumerate(vals) if j != first)
                    margin = min(margin, vals[first] - runner_up)
    return out, dx, margin


def _conv1d_pad(x, spec, dilation):
    k, s, d = spec.kernel_size, spec.stride, dilation
    t = x.shape[1]
    if spec.padding == "same":
        t_out = -(-t // s)
        pad = max((t_out - 1) * s + k - t, 0)
        left = pad // 2
        right = pad - left
    else:
        t_out = t
        left = (k - 1) * d
        right = 0
    return np.pad(x, ((0, 0), (left, right), (0, 0))), t_out, left


def conv1d_forward(x, w, b, spec, dilation=1):
    """Conv1d output and pre-activation over every output row, one matmul
    per kernel tap; taps are `dilation` input steps apart."""
    k, s, d = spec.kernel_size, spec.stride, dilation
    xp, t_out, _ = _conv1d_pad(x, spec, d)
    z = np.zeros((x.shape[0], t_out, spec.filters))
    span = (t_out - 1) * s + 1
    for j in range(k):
        z += xp[:, j * d : j * d + span : s, :] @ w[j]
    z += b
    y = np.maximum(z, 0.0) if spec.activation == "relu" else z
    return y, z


def conv1d_backward(x, w, spec, z, dy, dilation=1):
    """(dx, dW, db) of conv1d_forward, one einsum and one scatter per kernel tap."""
    k, s, d = spec.kernel_size, spec.stride, dilation
    xp, t_out, left = _conv1d_pad(x, spec, d)
    if spec.activation == "relu":
        dy = dy * (z > 0.0)
    dw = np.empty_like(w)
    dxp = np.zeros_like(xp)
    span = (t_out - 1) * s + 1
    for j in range(k):
        sl = slice(j * d, j * d + span, s)
        dw[j] = np.einsum("btc,btf->cf", xp[:, sl, :], dy)
        dxp[:, sl, :] += dy @ w[j].T
    return dxp[:, left : left + x.shape[1], :], dw, dy.sum(axis=(0, 1))


def tcn_forward(params, spec, x, mode="infer", rng=None):
    """The TCN as a full-sequence stack of dilated causal convolutions.

    `params` are a Tcn's `named_params()` and `spec` its TcnSpec. Every
    block computes every time step; dropout masks are drawn per block (a,
    then b) at [batch, time, filters]. Returns the final time step
    [batch, filters] and the tape that tcn_backward reads.
    """
    conv = Conv1dSpec(spec.filters, spec.kernel_size, 1, "causal", "relu")
    proj = Conv1dSpec(spec.filters, 1, 1, "same", "none")
    h, tape, skips = x, [], []
    for i, d in enumerate(spec.dilations):
        p = {k.split(".", 1)[1]: v for k, v in params.items() if k.startswith(f"block{i}.")}
        ya, za = conv1d_forward(h, p["conv_a.W"], p["conv_a.b"], conv, d)
        ma = _dropout_scale(ya.shape, spec.dropout_rate, mode, rng)
        ua = ya * ma
        yb, zb = conv1d_forward(ua, p["conv_b.W"], p["conv_b.b"], conv, d)
        mb = _dropout_scale(yb.shape, spec.dropout_rate, mode, rng)
        res = conv1d_forward(h, p["proj.W"], p["proj.b"], proj)[0] if "proj.W" in p else h
        tape.append((p, d, h, za, ma, ua, zb, mb))
        h = yb * mb + res
        skips.append(h)
    z = sum(skips[1:], skips[0].copy())
    seq = np.maximum(z, 0.0)
    return seq[:, -1], (tape, z, seq.shape)


def tcn_backward(spec, tape, dy):
    """(dx, grads keyed like named_grads()) of tcn_forward for an upstream
    gradient `dy` at the final time step."""
    blocks, z, shape = tape
    conv = Conv1dSpec(spec.filters, spec.kernel_size, 1, "causal", "relu")
    proj = Conv1dSpec(spec.filters, 1, 1, "same", "none")
    dseq = np.zeros(shape)
    dseq[:, -1] = dy
    dskip = dseq * (z > 0.0)
    dh = np.zeros(shape)
    grads = {}
    for i in reversed(range(len(blocks))):
        p, d, h, za, ma, ua, zb, mb = blocks[i]
        dout = dh + dskip
        dua, grads[f"block{i}.conv_b.W"], grads[f"block{i}.conv_b.b"] = conv1d_backward(
            ua, p["conv_b.W"], conv, zb, dout * mb, d
        )
        dh, grads[f"block{i}.conv_a.W"], grads[f"block{i}.conv_a.b"] = conv1d_backward(
            h, p["conv_a.W"], conv, za, dua * ma, d
        )
        if "proj.W" in p:
            dres, grads[f"block{i}.proj.W"], grads[f"block{i}.proj.b"] = conv1d_backward(
                h, p["proj.W"], proj, None, dout
            )
        else:
            dres = dout
        dh = dh + dres
    return dh, grads


def _dropout_scale(shape, rate, mode, rng):
    if mode != "train" or rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


# -- float-tape layers ---------------------------------------------------------
# The trunk and TCN layers as they were before their tapes held masks: a relu
# conv keeps its pre-activation z, a max pool its input and output, dropout
# its float scale, and batch norm takes x.mean and x.var and builds a new
# array for each term of its backward. float_tape_model
# swaps them into a built model, so a train step through them is the
# reference the mask tapes must reproduce bit for bit.


class FloatTapeReluConv(Conv1d):
    """A linear Conv1d, then relu, with z on the tape."""

    def forward(self, x, mode="train", rng=None, start=0, step=1):
        z = super().forward(x, mode, rng, start, step)
        self.z = z if mode == "train" else None
        return np.maximum(z, 0.0)

    def backward(self, dy):
        return super().backward(dy * (self.z > 0.0))


class FloatTapeMaxPool(MaxPool1d):
    def _windows(self, a):
        bsz, t, c = a.shape
        n = t // self.pool
        return a[:, : n * self.pool, :].reshape(bsz, n, self.pool, c)

    def forward(self, x, mode="train", rng=None):
        out = self._windows(x).max(axis=2)
        self._record(mode, x, out)
        return out

    def backward(self, dy):
        x, out = self._tape()
        arg = (self._windows(x) == out[:, :, None, :]).argmax(axis=2, keepdims=True)
        dx = np.zeros_like(x)
        np.put_along_axis(self._windows(dx), arg, dy[:, :, None, :], axis=2)
        return dx


class FloatTapeBatchNorm(BatchNorm1d):
    def forward(self, x, mode="train", rng=None):
        buf = self.buffers
        if mode == "train":
            mean = x.mean(axis=(0, 1))
            var = x.var(axis=(0, 1))
            m = BN_MOMENTUM if buf["seen_batch"] else 0.0
            buf["running_mean"] *= m
            buf["running_mean"] += (1.0 - m) * mean
            buf["running_var"] *= m
            buf["running_var"] += (1.0 - m) * var
            buf["seen_batch"][...] = 1.0
        else:
            mean, var = buf["running_mean"], buf["running_var"]
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat = (x - mean) * inv
        out = self.params["gamma"] * xhat + self.params["beta"]
        self._record(mode, xhat, inv, x.shape[0] * x.shape[1])
        return out

    def backward(self, dy):
        xhat, inv, n = self._tape()
        g = self.params["gamma"]
        dgamma = (dy * xhat).sum(axis=(0, 1))
        dbeta = dy.sum(axis=(0, 1))
        self.grads = {"gamma": dgamma, "beta": dbeta}
        return (g * inv) * (dy - dbeta / n - xhat * (dgamma / n))


class FloatTapeDropout(Dropout):
    def forward(self, x, mode="train", rng=None, drawn=None):
        scale = None
        if mode == "train" and self.rate > 0.0:
            time, rows = drawn or (x.shape[1], slice(None))
            full = rng.random((x.shape[0], time, *x.shape[2:])) >= self.rate
            scale = full[:, rows] / (1.0 - self.rate)
        self._record(mode, scale)
        return x if scale is None else x * scale

    def backward(self, dy):
        (scale,) = self._tape()
        return dy if scale is None else dy * scale


def _float_tape(layer, relu_conv=False):
    """`layer` itself, its class swapped for the float-tape one; it keeps its
    parameters and buffers."""
    if isinstance(layer, Conv1d):
        if not relu_conv and layer.spec.activation != "relu":
            return layer
        layer.spec = replace(layer.spec, activation="none")
        layer.__class__ = FloatTapeReluConv
    else:
        layer.__class__ = {
            MaxPool1d: FloatTapeMaxPool,
            BatchNorm1d: FloatTapeBatchNorm,
            Dropout: FloatTapeDropout,
        }[type(layer)]
    return layer


def float_tape_model(model):
    """`model` with the float-tape layers in place of the mask-tape ones:
    each trunk conv takes back its relu from the pool that follows it."""
    model.trunk = [(name, _float_tape(layer, relu_conv=True)) for name, layer in model.trunk]
    tcn = model.branches.get("tcn")
    for block in [] if tcn is None else tcn.blocks:
        for name in ("conv_a", "drop_a", "conv_b", "drop_b"):
            setattr(block, name, _float_tape(getattr(block, name)))
    return model


# -- phase-split conv ------------------------------------------------------------
# Conv1d as it was before its backward became block-Toeplitz GEMMs: one
# unfolded window per output row, and dX as one correlation per input phase.


def _unfolded(a, k, first=0, stride=1):
    """Yield (batch slice, unfolded windows [batch rows * windows, k*channels])
    of `a` [batch, time, channels]: the k-step windows that start at first,
    first + stride, ..., at most CHUNK_ELEMS elements (or one batch row) at
    a time."""
    win = sliding_window_view(a, k, axis=1)[:, first::stride].swapaxes(2, 3)
    width = k * a.shape[2]
    rows = max(1, layers.CHUNK_ELEMS // (win.shape[1] * width))
    for b0 in range(0, a.shape[0], rows):
        sl = slice(b0, b0 + rows)
        yield sl, win[sl].reshape(-1, width)


class PhaseSplitConv(Conv1d):
    """Conv1d with the pre-rewrite pre-activation and backward."""

    def _preactivation(self, xp, t, start, step):
        k, s, f = self.spec.kernel_size, self.spec.stride, self.spec.filters
        w = self.params["W"].reshape(-1, f)
        z = np.empty((xp.shape[0], len(range(start, self.output_len(t), step)), f))
        for sl, cols in _unfolded(xp, k, start * s, s * step):
            np.matmul(cols, w, out=z[sl].reshape(-1, f))
        z += self.params["b"]
        return z

    def backward(self, dy):
        xp, live, t, left, start, step = self._tape()
        spec = self.spec
        k, s, f = spec.kernel_size, spec.stride, spec.filters
        if live is not None:
            dy = dy * live
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
        dy = _padded(dy, pad, pad)
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
