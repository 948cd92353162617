"""LSTM layer returning the final hidden state, with exact BPTT.

Recurrence, with sigma the logistic function:

    z_t = x_t W + h_{t-1} R + b          (gates packed as i, f, g, o)
    i, f, o = sigma(z_i), sigma(z_f), sigma(z_o)
    g = tanh(z_g)
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

h_0 = c_0 = 0 and only h_T is emitted. The forget-gate bias starts at 1.0.
Only a train-mode forward keeps every step's gates, cells and hidden states
for backward; an infer-mode forward keeps one step of each.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..errors import ShapeError, check_count
from .layers import Layer, _check_mode, glorot_uniform


class Lstm(Layer):
    def __init__(self, in_features: int, units: int, rng: np.random.Generator):
        super().__init__()
        check_count("units", units)
        self.in_features = in_features
        self.units = units
        u = units
        b = np.zeros(4 * u)
        b[u : 2 * u] = 1.0
        self.params = {
            "W": glorot_uniform(rng, (in_features, 4 * u), in_features, 4 * u),
            "R": glorot_uniform(rng, (u, 4 * u), u, 4 * u),
            "b": b,
        }

    def forward(self, x, mode="train", rng=None):
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ShapeError(
                f"lstm expected [batch, time, {self.in_features}], got {x.shape}"
            )
        bsz, t, _ = x.shape
        u = self.units
        w, r, bias = self.params["W"], self.params["R"], self.params["b"]
        h = np.zeros((bsz, u))
        c = np.zeros((bsz, u))
        # steps kept: all of them for backward, else step k overwrites k-1
        n = t if mode == "train" else 1
        gates = np.empty((n, bsz, 4 * u))
        cells = np.empty((n, bsz, u))
        hiddens = np.zeros((n + 1, bsz, u))  # hiddens[k] is h_{k-1} seen by step k
        for k in range(t):
            z = x[:, k, :] @ w + h @ r + bias
            gate = gates[k % n]
            # one logistic pass over the packed block; g is then overwritten
            expit(z, out=gate)
            i, f, g, o = gate[:, :u], gate[:, u : 2 * u], gate[:, 2 * u : 3 * u], gate[:, 3 * u :]
            np.tanh(z[:, 2 * u : 3 * u], out=g)
            c = f * c + i * g
            h = o * np.tanh(c)
            cells[k % n] = c
            hiddens[k % n + 1] = h
        self._record(mode, x, gates, cells, hiddens)
        return h

    def backward(self, dh_last):
        x, gates, cells, hiddens = self._tape()
        bsz, t, _ = x.shape
        u = self.units
        w, r = self.params["W"], self.params["R"]
        dw = np.zeros_like(w)
        dr = np.zeros_like(r)
        db = np.zeros_like(self.params["b"])
        dx = np.empty_like(x)
        dh = np.asarray(dh_last, dtype=np.float64).copy()
        dc = np.zeros((bsz, u))
        for k in range(t - 1, -1, -1):
            i = gates[k, :, :u]
            f = gates[k, :, u : 2 * u]
            g = gates[k, :, 2 * u : 3 * u]
            o = gates[k, :, 3 * u :]
            c_prev = cells[k - 1] if k > 0 else np.zeros((bsz, u))
            tc = np.tanh(cells[k])
            do = dh * tc * o * (1.0 - o)
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g * i * (1.0 - i)
            df = dc * c_prev * f * (1.0 - f)
            dg = dc * i * (1.0 - g * g)
            dz = np.concatenate([di, df, dg, do], axis=1)
            dw += x[:, k, :].T @ dz
            dr += hiddens[k].T @ dz
            db += dz.sum(axis=0)
            dx[:, k, :] = dz @ w.T
            dh = dz @ r.T
            dc = dc * f
        self.grads = {"W": dw, "R": dr, "b": db}
        return dx
