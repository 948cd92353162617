"""Weighted-loss optimization with Adam and early stopping.

Training is deterministic for a fixed seed: epoch shuffles and dropout
masks come from generators derived from (seed, epoch), and the
best-validation parameters are restored when stopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DivergenceError,
    ShapeError,
    check_choice,
    check_count,
    check_real,
)
from .signals import Segment

TARGETS = ("valence", "arousal")

PROB_FLOOR = 1e-12

# Adam's published defaults (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 512
    max_epochs: int = 350
    patience: int = 80
    learning_rate: float = 0.01
    val_fraction_subjects: float = 0.2

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            check_count(name, getattr(self, name))
        if self.patience >= self.max_epochs:
            raise ConfigError(
                f"patience must be in (0, max_epochs), got patience={self.patience} "
                f"max_epochs={self.max_epochs}"
            )
        check_real("learning_rate", self.learning_rate, "(0, inf)")
        check_real("val_fraction_subjects", self.val_fraction_subjects, "(0, 1)")


@dataclass
class TrainLog:
    """Per-epoch curves plus the stopping bookkeeping.

    train_acc and val_acc are measured in infer mode after each epoch;
    train_loss is the epoch-mean optimization loss. Epochs are 1-based;
    best_epoch is the epoch whose parameters train() restores and
    stop_epoch the last epoch that ran.
    """

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stop_epoch: int = 0
    class_weights: list[float] = field(default_factory=list)


def compute_class_weights(labels) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (2 * n_c) for binary labels."""
    y = np.asarray(labels)
    counts = np.array([(y == 0).sum(), (y == 1).sum()])
    if (counts == 0).any():
        missing = int(np.argmax(counts == 0))
        raise DataError(f"class {missing} absent from labels; cannot train on one class")
    return y.size / (2.0 * counts)


def _loss_inputs(probs, onehot) -> tuple[np.ndarray, np.ndarray]:
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.ndim != 2 or probs.shape != onehot.shape:
        raise ShapeError(
            f"probs and onehot must be matching 2-d arrays, got {probs.shape} "
            f"vs {onehot.shape}"
        )
    return probs, onehot


def weighted_cce(probs, onehot, weights) -> float:
    """Mean over the batch of -w_y * ln p_y, with p clamped to [1e-12, 1]."""
    probs, onehot = _loss_inputs(probs, onehot)
    p = np.clip(probs, PROB_FLOOR, 1.0)
    nll = -(onehot * np.log(p)).sum(axis=1)
    w = (onehot * np.asarray(weights)).sum(axis=1)
    return float((w * nll).mean())


def weighted_cce_grad(probs, onehot, weights) -> np.ndarray:
    """Gradient of weighted_cce w.r.t. probs (zero where the clamp is active)."""
    probs, onehot = _loss_inputs(probs, onehot)
    p = np.clip(probs, PROB_FLOOR, 1.0)
    g = -(onehot * np.asarray(weights)) / (p * probs.shape[0])
    return g * (probs >= PROB_FLOOR)


class AdamState:
    """First/second moment accumulators keyed like the parameter dict."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    config: TrainConfig,
) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    for k, p in params.items():
        g = grads[k]
        m, v = state.m[k], state.v[k]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train_step(model, x, onehot, weights, state: AdamState, config: TrainConfig, rng) -> float:
    """Train-mode forward, weighted CCE and its gradient, backward, Adam;
    returns the loss. A non-finite loss or gradient raises DivergenceError
    before Adam changes any parameter."""
    probs = model.forward(x, "train", rng)
    del x  # the first conv's tape keeps its own padded copy; free the batch before backward
    loss = weighted_cce(probs, onehot, weights)
    model.backward(weighted_cce_grad(probs, onehot, weights))
    grads = model.grads()
    bad = next((k for k, g in grads.items() if not np.isfinite(g).all()), None)
    if bad is not None or not math.isfinite(loss):
        where = "loss" if bad is None else f"gradient {bad}"
        raise DivergenceError(f"training diverged: non-finite {where} (loss {loss})")
    adam_step(model.params(), grads, state, config)
    return loss


def make_validation_split(train_subjects, config: TrainConfig, seed) -> tuple[list, list]:
    """Subject-grouped split: ceil(val_fraction * n) subjects (at least one,
    never all) go to validation via a seeded shuffle."""
    subjects = sorted(set(train_subjects))
    n = len(subjects)
    if n < 2:
        raise DataError(f"need at least 2 training subjects to split, got {n}")
    n_val = max(1, math.ceil(config.val_fraction_subjects * n))
    n_val = min(n_val, n - 1)
    order = np.random.default_rng(seed).permutation(n)
    val = sorted(subjects[i] for i in order[:n_val])
    fit = sorted(subjects[i] for i in order[n_val:])
    return fit, val


def segments_to_arrays(segments: list[Segment], target: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack segments into [N, W, 1] inputs and an [N] label vector."""
    check_choice("target", target, TARGETS)
    if not segments:
        raise DataError("no segments to convert")
    x = np.stack([s.samples for s in segments]).astype(np.float64, copy=False)[:, :, None]
    y = np.array([getattr(s, target) for s in segments], dtype=np.int64)
    return x, y


def predict_proba(model, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
    """Infer-mode class probabilities, batched to bound memory: one
    `model.forward` per batch, whose trunk stages and branches use the
    helper thread as a train step's do (see `nn.layers.fork_join`)."""
    out = np.empty((x.shape[0], 2))
    for i in range(0, x.shape[0], batch_size):
        out[i : i + batch_size] = model.forward(x[i : i + batch_size], "infer")
    return out


def train(model, train_segments, val_segments, config: TrainConfig, seed: int, target) -> TrainLog:
    """Optimize `model` in place to predict `target` and return its TrainLog.

    Shuffled mini-batches (the last partial batch is kept), validation
    accuracy in infer mode after every epoch, best-epoch parameters
    restored before returning. An epoch improves when its val_acc is
    strictly above every earlier epoch's, so ties do not reset patience;
    training stops once `patience` epochs have passed since the best one.
    """
    if not train_segments:
        raise DataError("empty training set")
    if not val_segments:
        raise DataError("empty validation set")
    leaked = {s.subject_id for s in train_segments} & {s.subject_id for s in val_segments}
    if leaked:
        raise DataError(f"validation subjects leak into training: {sorted(leaked)}")

    x, y = segments_to_arrays(train_segments, target)
    xv, yv = segments_to_arrays(val_segments, target)
    fold_weights = compute_class_weights(y)
    onehot = np.eye(2)[y]

    state = AdamState(model.params())
    log = TrainLog(class_weights=fold_weights.tolist())
    best_snap = None
    n = y.size

    for epoch in range(1, config.max_epochs + 1):
        order = np.random.default_rng([seed, epoch]).permutation(n)
        drop_rng = np.random.default_rng([seed, epoch, 1])
        total = 0.0
        for batch, start in enumerate(range(0, n, config.batch_size), 1):
            idx = order[start : start + config.batch_size]
            try:
                loss = train_step(model, x[idx], onehot[idx], fold_weights, state, config, drop_rng)
            except DivergenceError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch}, batch {batch}") from None
            total += loss * idx.size
        log.train_loss.append(total / n)
        log.train_acc.append(float((predict_proba(model, x).argmax(axis=1) == y).mean()))
        val_acc = float((predict_proba(model, xv).argmax(axis=1) == yv).mean())
        if val_acc > max(log.val_acc, default=-math.inf):
            log.best_epoch = epoch
            best_snap = model.snapshot()
        log.val_acc.append(val_acc)
        log.stop_epoch = epoch
        if epoch - log.best_epoch >= config.patience:
            break

    model.restore(best_snap)
    return log
