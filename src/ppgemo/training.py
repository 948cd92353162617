"""Weighted-loss optimization with Adam and early stopping.

Training is deterministic for a fixed seed: epoch shuffles and dropout
masks come from generators derived from (seed, epoch), and the
best-validation parameters are restored when stopping.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import partial

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
from .nn.layers import overlap
from .signals import Segment

TARGETS = ("valence", "arousal")

PROB_FLOOR = 1e-12

# Adam's published defaults (Kingma & Ba, arXiv:1412.6980)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per piece of an infer batch that predict_proba deals to the main and
# helper threads. Larger pieces are faster but use more memory: the helper's
# malloc arena keeps about one piece's transients. perfbench infer_b256
# (256-window batches of the three variants), medians of 3 runs, against one
# forward per batch at 109 ms and 174 MB peak RSS: 32-row pieces 92 ms and 181
# MB; 64 rows 85 ms and 186 MB; 128 rows (halves) 74 ms and 186-203 MB, over
# the benchmark's 10% memory bound in 2 of the 3 runs.
INFER_PIECE_ROWS = 64


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
    """Infer-mode class probabilities, batched to bound memory.

    A batch of more than INFER_PIECE_ROWS rows is cut into pieces that start
    every INFER_PIECE_ROWS rows; a last piece of one row joins the piece
    before it. Where `nn.layers.overlap` allows it (on the main thread, while
    the helper thread is idle), the main thread scores the even pieces and
    the helper the odd ones, into one output array. Everywhere else (fold
    threads, smaller batches, nested calls) a batch is one forward. Infer
    forwards treat rows independently, and these pieces give every row the
    bytes of the whole batch's forward (the tests pin this at paper shapes);
    a one-row piece would not, as numpy takes a one-row product through gemv.
    """
    n = x.shape[0]
    out = np.empty((n, 2))

    def score(pieces):
        for rows in pieces:
            out[rows] = model.forward(x[rows], "infer")

    for i in range(0, n, batch_size):
        end = min(i + batch_size, n)
        starts = range(i, end - 1, INFER_PIECE_ROWS)
        pieces = [slice(a, b) for a, b in zip(starts, [*starts[1:], end])]
        # one piece is one forward, whose branches may still overlap
        with overlap(end - i) if len(pieces) > 1 else contextlib.nullcontext() as beside:
            if beside:
                beside(partial(score, pieces[0::2]), partial(score, pieces[1::2]))
            else:
                score([slice(i, end)])
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
    overlap = {s.subject_id for s in train_segments} & {s.subject_id for s in val_segments}
    if overlap:
        raise DataError(f"validation subjects leak into training: {sorted(overlap)}")

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
