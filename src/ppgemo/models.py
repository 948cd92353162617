"""The three evaluated architectures, assembled from the layer primitives.

All variants share the same convolutional trunk (conv -> relu -> pool ->
batchnorm -> dropout, twice; the relu runs inside the pool) so that
performance differences are attributable to the branch structure alone:

    cnn           trunk -> global max over time -> dense(2, softmax)
    cnn_lstm      trunk -> LSTM (last state)     -> dense(2, softmax)
    cnn_tcn_lstm  trunk -> TCN last step (F) and LSTM last state (U)
                        -> concat (F+U)          -> dense(2, softmax)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .data import atomic_open
from .errors import ConfigError, check_choice, check_count, check_real
from .nn.layers import (
    BLOCK_ROWS,
    BatchNorm1d,
    Conv1d,
    Conv1dSpec,
    Dense,
    Dropout,
    GlobalMaxPool,
    MaxPool1d,
    check_input,
    fork_join,
    gather,
)
from .nn.lstm import Lstm
from .nn.tcn import Tcn, TcnSpec

VARIANTS = ("cnn", "cnn_lstm", "cnn_tcn_lstm")

MANIFEST_FORMAT = "ppgemo-model/2"
LEGACY_MANIFEST_FORMAT = "ppgemo-model/1"  # one bn_initialized flag, no seen_batch


@dataclass(frozen=True)
class ConvStage:
    filters: int
    kernel_size: int
    stride: int

    def __post_init__(self):
        for name in ("filters", "kernel_size", "stride"):
            check_count(f"conv stage {name}", getattr(self, name))


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the defaults are the evaluated model."""

    input_len: int = 6000
    conv1: ConvStage = field(default_factory=lambda: ConvStage(8, 64, 4))
    conv2: ConvStage = field(default_factory=lambda: ConvStage(16, 32, 2))
    pool_size: int = 2
    dropout: float = 0.3
    tcn: TcnSpec = field(default_factory=TcnSpec)
    lstm_units: int = 12
    variant: str = "cnn_tcn_lstm"

    def __post_init__(self):
        check_choice("variant", self.variant, VARIANTS)
        for name in ("input_len", "pool_size", "lstm_units"):
            check_count(name, getattr(self, name))
        check_real("dropout", self.dropout, "[0, 1)")


def model_config_to_dict(config: ModelConfig) -> dict:
    return asdict(config)


def model_config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    # older manifests and config files carry the fixed output_classes 2 and use_skip true
    if d.pop("output_classes", 2) != 2:
        raise ConfigError("output_classes: the head has exactly 2 classes (binary labels)")
    try:
        d["conv1"] = ConvStage(**d["conv1"])
        d["conv2"] = ConvStage(**d["conv2"])
        tcn = dict(d["tcn"])
        if not tcn.pop("use_skip", True):
            raise ConfigError("use_skip: the TCN always sums its blocks' outputs")
        d["tcn"] = TcnSpec(**tcn)
        return ModelConfig(**d)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed model config: {exc}") from exc


class Model:
    """Trunk -> branches -> concat -> head, with an explicit train/infer
    mode on forward.

    Every branch reads the trunk output; their features are concatenated
    in branch order (a single branch feeds the head as it is). On the main
    thread, for batches of `OVERLAP_BATCH` rows or more, each trunk stage
    runs the second half of the batch's rows on the helper thread
    (`nn.layers.each_half`). Given the trunk output, the two branches of
    `cnn_tcn_lstm` are independent, so forward and backward run them
    through `nn.layers.fork_join`: the LSTM runs on the helper while the
    TCN runs here, and the TCN's convs split their rows once the LSTM is
    done. Only the TCN, the first branch, is given the rng; the LSTM draws
    nothing, so every dropout mask is drawn here, in the order of a
    sequential run. Each branch and each half computes what it computes
    alone, with the same operations in the same order, so outputs and
    gradients are the same bytes whichever thread runs them.
    `shape_trace` records the (stage, shape) sequence of the latest
    forward call. Infer forwards may run at once on one model: they change
    no state that another infer forward reads, and `shape_trace` then holds
    the trace of the one that finished last. Parameters are exposed as one
    flat dict of live arrays keyed by dotted layer paths, which the optimizer
    updates in place.
    """

    def __init__(self, config: ModelConfig, trunk, branches, head):
        self.config = config
        self.trunk = trunk  # list of (name, layer)
        self.branches = branches  # dict name -> layer
        self.head = head
        self.shape_trace: list[tuple[str, tuple[int, ...]]] = []
        self._widths: list[int] = []  # branch feature widths of the last train forward

    # -- parameter plumbing -------------------------------------------------

    def sublayers(self):
        return (
            [(f"trunk.{name}", layer) for name, layer in self.trunk]
            + list(self.branches.items())
            + [("head", self.head)]
        )

    def params(self) -> dict[str, np.ndarray]:
        return gather(self, "params")

    def grads(self) -> dict[str, np.ndarray]:
        return gather(self, "grads")

    def buffers(self) -> dict[str, np.ndarray]:
        return gather(self, "buffers")

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all parameters and buffers, e.g. for restore-best."""
        return {k: v.copy() for k, v in {**self.params(), **self.buffers()}.items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        live = {**self.params(), **self.buffers()}
        if set(snap) != set(live):
            raise ConfigError(
                f"snapshot keys do not match this model: missing "
                f"{sorted(set(live) - set(snap))}, unexpected {sorted(set(snap) - set(live))}"
            )
        # every shape is checked before any array is written, so a rejected
        # snapshot leaves the model as it was
        for k, arr in live.items():
            if np.shape(snap[k]) != arr.shape:
                raise ConfigError(
                    f"snapshot array {k} has shape {np.shape(snap[k])}, this model's has "
                    f"{arr.shape}"
                )
        for k, arr in live.items():
            arr[...] = snap[k]

    # -- forward / backward ---------------------------------------------------

    def forward(self, x, mode="infer", rng=None) -> np.ndarray:
        x = check_input(self, x, mode, ("batch", self.config.input_len, 1))
        trace = [("input", x.shape)]
        h = x
        for name, layer in self.trunk:
            h = layer.forward(h, mode, rng)
            trace.append((name, h.shape))
        # only the first branch is given the rng (see Model)
        branches = zip(self.branches.values(), (rng, None))
        feats = _each_branch([partial(b.forward, h, mode, r) for b, r in branches], len(h))
        trace += [(name, f.shape) for name, f in zip(self.branches, feats)]
        if mode == "train":  # only backward reads them
            self._widths = [f.shape[1] for f in feats]
        feat = feats[0]
        if len(feats) > 1:
            feat = np.concatenate(feats, axis=1)
            trace.append(("concat", feat.shape))
        probs = self.head.forward(feat, mode, rng)
        trace.append(("head", probs.shape))
        self.shape_trace = trace
        return probs

    def backward(self, dprobs) -> None:
        """Fill every layer's grads; the first conv computes no input gradient."""
        dfeat = self.head.backward(dprobs)
        parts = np.split(dfeat, np.cumsum(self._widths)[:-1], axis=1)
        calls = [partial(b.backward, d) for b, d in zip(self.branches.values(), parts)]
        dhs = _each_branch(calls, len(dfeat))
        dh = sum(dhs[1:], dhs[0])
        for _, layer in reversed(self.trunk):
            dh = layer.backward(dh)

    # -- persistence ----------------------------------------------------------

    def save(self, path) -> None:
        """JSON manifest: config plus every array as shape + row-major values."""

        def pack(d):
            return {
                k: {"shape": list(v.shape), "data": v.ravel().tolist()}
                for k, v in d.items()
            }

        manifest = {
            "format": MANIFEST_FORMAT,
            "config": model_config_to_dict(self.config),
            "params": pack(self.params()),
            "buffers": pack(self.buffers()),
        }
        with atomic_open(path) as fh:
            json.dump(manifest, fh, sort_keys=True)

    @classmethod
    def load(cls, path) -> "Model":
        try:
            with open(path) as fh:
                manifest = json.load(fh)
            fmt = manifest.get("format")
            if fmt not in (MANIFEST_FORMAT, LEGACY_MANIFEST_FORMAT):
                raise ConfigError(f"unsupported model manifest format {fmt!r}")
            config = model_config_from_dict(manifest["config"])
            stored = {}
            for section in ("params", "buffers"):
                for k, v in manifest[section].items():
                    stored[k] = np.asarray(v["data"], dtype=np.float64).reshape(v["shape"])
        # unreadable, not JSON, or not the layout save writes
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(
                f"cannot read model manifest {path}: {type(exc).__name__}: {exc}"
            ) from None
        model = build(config, np.random.default_rng(0))
        if fmt == LEGACY_MANIFEST_FORMAT:
            seen = float(bool(manifest.get("bn_initialized")))
            for k in model.buffers():
                if k.endswith(".seen_batch"):
                    stored[k] = np.array(seen)
        model.restore(stored)
        return model


def _each_branch(calls, batch):
    """The results of one call per branch, in branch order; two branches
    run through fork_join."""
    return list(fork_join(*calls, batch)) if len(calls) == 2 else [calls[0]()]


def build(config: ModelConfig, rng: np.random.Generator) -> Model:
    """Construct a model; trunk parameters are drawn first so all variants
    share identical trunk shapes (and values, for a given rng)."""
    trunk = []
    ch = 1  # raw PPG is the single input channel
    for idx, conv in ((1, config.conv1), (2, config.conv2)):
        spec = Conv1dSpec(conv.filters, conv.kernel_size, conv.stride, "same", "none")
        # no layer reads the raw signal's gradient; the trunk's forwards take
        # BLOCK_ROWS rows per GEMM row (see Conv1d)
        layer = Conv1d(ch, spec, rng, input_grad=idx > 1, forward_block=BLOCK_ROWS)
        trunk.append((f"conv{idx}", layer))
        # the pool applies the conv's relu to its maxima
        trunk.append((f"pool{idx}", MaxPool1d(config.pool_size)))
        trunk.append((f"bn{idx}", BatchNorm1d(conv.filters)))
        trunk.append((f"drop{idx}", Dropout(config.dropout)))
        ch = conv.filters

    branches = {}
    if config.variant == "cnn":
        branches["gpool"] = GlobalMaxPool()
        feat = ch
    elif config.variant == "cnn_lstm":
        branches["lstm"] = Lstm(ch, config.lstm_units, rng)
        feat = config.lstm_units
    else:  # cnn_tcn_lstm; ModelConfig rejects any other variant
        branches["tcn"] = Tcn(ch, config.tcn, rng)
        branches["lstm"] = Lstm(ch, config.lstm_units, rng)
        feat = config.tcn.filters + config.lstm_units

    head = Dense(feat, rng)
    return Model(config, trunk, branches, head)
