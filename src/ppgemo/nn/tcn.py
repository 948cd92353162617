"""Temporal convolutional stack: dilated causal residual blocks.

One residual block per dilation d: two dilated causal convolutions
(kernel k, dilation d, F filters), each followed by relu and dropout,
plus a residual connection from the block input (through a width-1
convolution when the channel counts differ). With skip connections
enabled, the per-block outputs are summed and relu-activated before the
final time step is selected.

The receptive field of the final step is 1 + 2*(k-1)*sum(dilations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ShapeError
from .layers import Conv1d, Conv1dSpec, Dropout, DropoutSpec, Layer, _check_mode


@dataclass(frozen=True)
class TcnSpec:
    filters: int = 8
    kernel_size: int = 32
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    dropout_rate: float = 0.3
    use_skip: bool = True

    def __post_init__(self):
        if self.filters < 1:
            raise ConfigError(f"filters must be >= 1, got {self.filters}")
        if self.kernel_size < 1:
            raise ConfigError(f"kernel_size must be >= 1, got {self.kernel_size}")
        if not self.dilations:
            raise ConfigError("dilations must be non-empty")
        if any(d < 1 for d in self.dilations):
            raise ConfigError(f"dilations must be >= 1, got {self.dilations}")
        if list(self.dilations) != sorted(self.dilations):
            raise ConfigError(f"dilations must be ascending, got {self.dilations}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        # tuples survive dataclasses.replace / JSON round-trips as lists
        object.__setattr__(self, "dilations", tuple(self.dilations))

    @property
    def receptive_field(self) -> int:
        return 1 + 2 * (self.kernel_size - 1) * sum(self.dilations)


class _Block(Layer):
    """conv-relu-drop twice, plus the residual path."""

    def __init__(self, in_channels: int, spec: TcnSpec, dilation: int, rng):
        super().__init__()
        cspec = Conv1dSpec(spec.filters, spec.kernel_size, 1, "causal", "relu", dilation)
        self.conv_a = Conv1d(in_channels, cspec, rng)
        self.drop_a = Dropout(DropoutSpec(spec.dropout_rate))
        self.conv_b = Conv1d(spec.filters, cspec, rng)
        self.drop_b = Dropout(DropoutSpec(spec.dropout_rate))
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

    def forward(self, h, mode, rng):
        u = self.drop_a.forward(self.conv_a.forward(h, mode), mode, rng)
        u = self.drop_b.forward(self.conv_b.forward(u, mode), mode, rng)
        res = self.proj.forward(h, mode) if self.proj is not None else h
        return u + res

    def backward(self, dout):
        du = self.conv_b.backward(self.drop_b.backward(dout))
        du = self.conv_a.backward(self.drop_a.backward(du))
        dres = self.proj.backward(dout) if self.proj is not None else dout
        return du + dres


class Tcn(Layer):
    def __init__(self, in_channels: int, spec: TcnSpec, rng: np.random.Generator):
        super().__init__()
        self.spec = spec
        self.blocks = []
        ch = in_channels
        for d in spec.dilations:
            self.blocks.append(_Block(ch, spec, d, rng))
            ch = spec.filters

    def sublayers(self):
        return [(f"block{i}", block) for i, block in enumerate(self.blocks)]

    def forward_sequence(self, x, mode="train", rng=None):
        """Full-sequence output [batch, time, filters], before the final
        time step is selected."""
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ShapeError(f"tcn expected [batch, time, channels], got {x.shape}")
        h = x
        skips = []
        for block in self.blocks:
            h = block.forward(h, mode, rng)
            skips.append(h)
        z = None
        if self.spec.use_skip:
            z = skips[0].copy()
            for s_ in skips[1:]:
                z += s_
        self._record(mode, z, h.shape)
        return h if z is None else np.maximum(z, 0.0)

    def forward(self, x, mode="train", rng=None):
        return self.forward_sequence(x, mode, rng)[:, -1, :]

    def backward_sequence(self, dseq):
        z, _ = self._tape()
        return self._backward_blocks(z, np.asarray(dseq, dtype=np.float64))

    def backward(self, dy):
        z, shape = self._tape()
        dseq = np.zeros(shape)
        dseq[:, -1, :] = np.asarray(dy, dtype=np.float64)
        return self._backward_blocks(z, dseq)

    def _backward_blocks(self, z, dseq):
        if z is not None:
            dskip = dseq * (z > 0.0)
            dh = np.zeros_like(dskip)
        else:
            dskip = None
            dh = dseq
        for block in reversed(self.blocks):
            # a block's output feeds both the next block and the skip sum
            dout = dh if dskip is None else dh + dskip
            dh = block.backward(dout)
        return dh

    def own_kink_margin(self) -> float:
        z = None if self._cache is None else self._cache[0]
        return float(np.abs(z).min()) if z is not None and z.size else np.inf
