"""Finite-difference verification of every layer's analytic gradients.

Each check draws a random small configuration, runs one analytic
forward/backward, then compares against central differences of the same
scalar loss. Losses are frozen: dropout masks are regenerated from a
fixed seed on every forward, so the loss is a deterministic function of
the wiggled arrays.

Cases that land too close to a non-differentiable point (a relu corner, a
pooling tie, the cross-entropy clamp) are redrawn: central differences
are meaningless across a kink, so such draws test nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import StateError
from .layers import (
    BatchNorm1d,
    Conv1d,
    Conv1dSpec,
    Dense,
    Dropout,
    GlobalMaxPool,
    MaxPool1d,
)
from .lstm import Lstm
from .tcn import Tcn, TcnSpec

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
# Minimum distance from any kink for a case to be admissible; must stay
# well above the FD step times the local sensitivity.
MIN_KINK_MARGIN = 1e-3
MAX_REDRAWS = 200


@dataclass
class Case:
    """One randomized check: arrays to wiggle, a recomputable loss, and
    the analytic gradients of that loss."""

    arrays: dict[str, np.ndarray]
    loss: Callable[[], float]
    analytic: Callable[[], dict[str, np.ndarray]]
    margin: float


@dataclass
class CheckResult:
    name: str
    cases: int
    max_rel_err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tol


def central_difference(
    loss_fn: Callable[[], float], arrays: dict[str, np.ndarray], step: float = DEFAULT_STEP
) -> dict[str, np.ndarray]:
    """Central finite differences of `loss_fn` w.r.t. every array element,
    wiggling in place and restoring."""
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp = loss_fn()
            flat[i] = orig - step
            lm = loss_fn()
            flat[i] = orig
            gf[i] = (lp - lm) / (2.0 * step)
        out[name] = g
    return out


def relative_error(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    """Worst per-array norm ratio ||a - n|| / (||a|| + ||n||)."""
    worst = 0.0
    for k in analytic:
        a, n = analytic[k], numeric[k]
        na, nn = np.linalg.norm(a), np.linalg.norm(n)
        if na < 1e-10 and nn < 1e-10:
            continue
        worst = max(worst, float(np.linalg.norm(a - n) / max(na + nn, 1e-12)))
    return worst


def _layer_case(layer, x, loss_rng_seed=None):
    """Project the layer output onto a fixed random direction; that makes
    the upstream gradient the projection itself."""

    def run_forward():
        rng = None if loss_rng_seed is None else np.random.default_rng(loss_rng_seed)
        return layer.forward(x, "train", rng)

    out0 = run_forward()
    proj = np.random.default_rng(991).standard_normal(out0.shape)

    def loss():
        return float((run_forward() * proj).sum())

    def analytic():
        run_forward()
        dx = layer.backward(proj)
        return {"x": dx, **layer.named_grads()}

    arrays = {"x": x, **layer.named_params()}
    return Case(arrays, loss, analytic, layer.kink_margin())


def _btc(rng, t, b=(1, 4), c=(1, 5)):
    """Draw (batch, time, channels), in that order, each from its [low, high)."""
    return tuple(int(rng.integers(*bounds)) for bounds in (b, t, c))


def _case_conv(rng, padding):
    b, t, cin = _btc(rng, (4, 17))
    f = int(rng.integers(1, 5))
    k = int(rng.integers(1, min(t, 5) + 1))
    stride = int(rng.integers(1, 4)) if padding == "same" else 1
    act = "relu" if rng.random() < 0.7 else "none"
    layer = Conv1d(cin, Conv1dSpec(f, k, stride, padding, act), rng)
    x = rng.standard_normal((b, t, cin))
    return _layer_case(layer, x)


def _case_maxpool(rng):
    b, t, c = _btc(rng, (3, 17))
    pool = int(rng.integers(1, min(t, 4) + 1))
    layer = MaxPool1d(pool)
    x = rng.standard_normal((b, t, c))
    return _layer_case(layer, x)


def _case_global_maxpool(rng):
    b, t, c = _btc(rng, (2, 17))
    x = rng.standard_normal((b, t, c))
    return _layer_case(GlobalMaxPool(), x)


def _case_batchnorm(rng):
    b, t, c = _btc(rng, (2, 17), b=(2, 4))
    layer = BatchNorm1d(c)
    layer.params["gamma"][:] = rng.normal(1.0, 0.3, c)
    layer.params["beta"][:] = rng.normal(0.0, 0.3, c)
    x = rng.standard_normal((b, t, c))
    return _layer_case(layer, x)


def _case_dropout(rng):
    b, t, c = _btc(rng, (1, 17))
    layer = Dropout(float(rng.uniform(0.0, 0.7)))
    x = rng.standard_normal((b, t, c))
    return _layer_case(layer, x, loss_rng_seed=int(rng.integers(2**31)))


def _case_lstm(rng):
    b, t, cin = _btc(rng, (1, 9))
    units = int(rng.integers(1, 5))
    layer = Lstm(cin, units, rng)
    x = rng.standard_normal((b, t, cin))
    return _layer_case(layer, x)


def _case_tcn(rng):
    b, t, cin = _btc(rng, (4, 13), b=(1, 3), c=(1, 4))
    spec = TcnSpec(
        filters=int(rng.integers(1, 4)),
        kernel_size=int(rng.integers(2, 4)),
        dilations=((1,), (1, 2), (1, 2, 4), (2, 4))[int(rng.integers(0, 4))],
        dropout_rate=float(rng.uniform(0.0, 0.5)),
    )
    layer = Tcn(cin, spec, rng)
    x = rng.standard_normal((b, t, cin))
    return _layer_case(layer, x, loss_rng_seed=int(rng.integers(2**31)))


def _case_dense_softmax_cce(rng):
    # the full classification head: dense -> softmax -> weighted CCE
    from ..training import weighted_cce, weighted_cce_grad

    b = int(rng.integers(1, 4))
    fin = int(rng.integers(1, 5))
    layer = Dense(fin, rng)
    x = rng.standard_normal((b, fin))
    y = rng.integers(0, 2, b)
    onehot = np.eye(2)[y]
    weights = rng.uniform(0.5, 2.0, 2)

    def loss():
        return weighted_cce(layer.forward(x, "train"), onehot, weights)

    def analytic():
        probs = layer.forward(x, "train")
        dx = layer.backward(weighted_cce_grad(probs, onehot, weights))
        return {"x": dx, **layer.named_grads()}

    probs = layer.forward(x, "train")
    margin = float(probs.min())  # distance to the log clamp
    arrays = {"x": x, **layer.named_params()}
    return Case(arrays, loss, analytic, margin)


FAMILIES = {
    "conv1d_same": lambda rng: _case_conv(rng, "same"),
    "conv1d_causal": lambda rng: _case_conv(rng, "causal"),
    "maxpool1d": _case_maxpool,
    "global_maxpool": _case_global_maxpool,
    "batchnorm1d_train": _case_batchnorm,
    "dropout_frozen_mask": _case_dropout,
    "lstm": _case_lstm,
    "tcn": _case_tcn,
    "dense_softmax_weighted_cce": _case_dense_softmax_cce,
}


def check_family(
    name: str,
    cases: int = 20,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
) -> CheckResult:
    draw = FAMILIES[name]
    family_rng = np.random.default_rng([seed, sorted(FAMILIES).index(name)])
    worst = 0.0
    for _ in range(cases):
        for attempt in range(MAX_REDRAWS):
            case = draw(family_rng)
            if case.margin >= MIN_KINK_MARGIN:
                break
        else:  # pragma: no cover - would need a pathological generator
            raise StateError(f"could not draw a well-posed case for {name}")
        a = case.analytic()
        n = central_difference(case.loss, case.arrays, step)
        worst = max(worst, relative_error(a, n))
    return CheckResult(name, cases, worst, tol)


def run_suite(
    cases_per_layer: int = 20,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    tol: float = DEFAULT_TOL,
) -> list[CheckResult]:
    """Check every layer family; results come back in a stable order."""
    return [
        check_family(name, cases_per_layer, seed, step, tol) for name in sorted(FAMILIES)
    ]
