"""Temporal convolutional stack: dilated causal residual blocks.

One residual block per dilation d: two causal convolutions of dilation d
(kernel k, F filters), each followed by relu and dropout, plus a residual
from the block input (through a width-1 convolution when the channel
counts differ). The block outputs are summed (skip connections) and
relu-activated. The model reads the final step T-1 only; its receptive
field is 1 + 2*(k-1)*sum(dilations).

`forward` computes only the rows that step depends on. Each dilation must
divide the next. Then the block of dilation d reads its input only at the
steps T-1, T-1-d, ..., the subsequence [:, (T-1) % d :: d]. On it both
convolutions are undilated, and the block keeps only the rows the next
block reads: every (d_next/d)-th one, ending at T-1; the last block keeps
T-1 alone. Train-mode dropout draws each mask at [batch, T, F], in the
order of a full-sequence pass, and keeps the rows in use, so a seeded run
draws the same masks either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError, check_count
from .layers import Conv1d, Conv1dSpec, Dropout, Layer, _check_mode


@dataclass(frozen=True)
class TcnSpec:
    filters: int = 8
    kernel_size: int = 32
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    dropout_rate: float = 0.3

    def __post_init__(self):
        check_count("filters", self.filters)
        check_count("kernel_size", self.kernel_size)
        if not self.dilations:
            raise ConfigError("dilations must be non-empty")
        for i, d in enumerate(self.dilations):
            check_count(f"dilations[{i}]", d)
        if any(b % a for a, b in zip(self.dilations, self.dilations[1:])):
            raise ConfigError(
                f"dilations must be ascending, each dividing the next, got {self.dilations}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        # tuples survive dataclasses.replace / JSON round-trips as lists
        object.__setattr__(self, "dilations", tuple(self.dilations))

    @property
    def receptive_field(self) -> int:
        return 1 + 2 * (self.kernel_size - 1) * sum(self.dilations)


class _Block(Layer):
    """conv-relu-drop twice, plus the residual path, on one subsequence."""

    def __init__(self, in_channels: int, spec: TcnSpec, rng):
        super().__init__()
        cspec = Conv1dSpec(spec.filters, spec.kernel_size, 1, "causal", "relu")
        self.conv_a = Conv1d(in_channels, cspec, rng)
        self.drop_a = Dropout(spec.dropout_rate)
        self.conv_b = Conv1d(spec.filters, cspec, rng)
        self.drop_b = Dropout(spec.dropout_rate)
        self.proj = None
        if in_channels != spec.filters:
            self.proj = Conv1d(
                in_channels, Conv1dSpec(spec.filters, 1, 1, "same", "none"), rng
            )

    def sublayers(self):
        # dropout holds no params, grads, buffers or kinks
        out = [("conv_a", self.conv_a), ("conv_b", self.conv_b)]
        if self.proj is not None:
            out.append(("proj", self.proj))
        return out

    def forward(self, h, mode, rng, time, d, d_next):
        """`h` holds the block input at the steps t = time-1 (mod d) of a
        `time`-step sequence, where the block's dilation-d convs are
        undilated ones. The output is kept at the steps t = time-1
        (mod d_next) that the next block reads; d divides d_next."""
        rows = slice(((time - 1) % d_next) // d, None, d_next // d)
        u = self.conv_a.forward(h, mode)
        u = self.drop_a.forward(u, mode, rng, (time, slice((time - 1) % d, None, d)))
        u = self.conv_b.forward(u, mode, start=rows.start, step=rows.step)
        kept = slice((time - 1) % d_next, None, d_next)
        u = self.drop_b.forward(u, mode, rng, (time, kept))
        res = h[:, rows]
        if self.proj is not None:
            res = self.proj.forward(res, mode)
        self._record(mode, rows)
        return u + res

    def backward(self, dout):
        (rows,) = self._tape()
        du = self.conv_b.backward(self.drop_b.backward(dout))
        dh = self.conv_a.backward(self.drop_a.backward(du))
        dh[:, rows] += self.proj.backward(dout) if self.proj is not None else dout
        return dh


class Tcn(Layer):
    def __init__(self, in_channels: int, spec: TcnSpec, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        self.blocks = []
        ch = in_channels
        for _ in spec.dilations:
            self.blocks.append(_Block(ch, spec, rng))
            ch = spec.filters

    def sublayers(self):
        return [(f"block{i}", block) for i, block in enumerate(self.blocks)]

    @staticmethod
    def _checked(x):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"tcn expected [batch, time, channels], got {x.shape}")
        return x

    def forward(self, x, mode="train", rng=None):
        """Output at the final time step, [batch, filters]."""
        _check_mode(mode)
        x = self._checked(x)
        t = x.shape[1]
        ds = self.spec.dilations
        # the last block keeps the final step only: no step is d * t after it
        d_next = ds[1:] + (ds[-1] * t,)
        h = x[:, (t - 1) % ds[0] :: ds[0]]
        z = None  # the skip sum
        for block, d, dn in zip(self.blocks, ds, d_next):
            h = block.forward(h, mode, rng, t, d, dn)
            z = h[:, -1] if z is None else z + h[:, -1]
        self._record(mode, z, x.shape)
        return np.maximum(z, 0.0)

    def backward(self, dy):
        z, shape = self._tape()
        dlast = np.asarray(dy, dtype=np.float64) * (z > 0.0)
        dh = dlast[:, None, :]
        for i, block in enumerate(reversed(self.blocks)):
            # a block's output feeds the next block and, at the final step,
            # the skip sum
            if i:
                dh[:, -1] += dlast
            dh = block.backward(dh)
        d0 = self.spec.dilations[0]
        dx = np.zeros(shape)
        dx[:, (shape[1] - 1) % d0 :: d0] = dh
        return dx

    def forward_sequence(self, x, mode="infer"):
        """Full-sequence output [batch, time, filters], before the final
        time step is selected. Infer mode only; records no tape. Step t's
        output is `forward` on the steps 0..t, so this costs one forward
        per step."""
        if mode != "infer":
            raise ConfigError(f"forward_sequence runs in infer mode only, got {mode!r}")
        x = self._checked(x)
        return np.stack([self.forward(x[:, : t + 1], mode) for t in range(x.shape[1])], axis=1)

    def own_kink_margin(self) -> float:
        z = np.empty(0) if self._cache is None else self._cache[0]
        return float(np.abs(z).min()) if z.size else np.inf
