"""Spans around ppgemo's layers, recorded from the benchmark's side.

A traced run wraps the public calls the benchmark makes and the layer
objects of every model it builds; nothing under ``src/`` changes. The
wrappers go onto model instances (``layer.forward``) and onto ppgemo module
attributes that the package looks up at call time (``ppgemo.training.adam_step``),
and `Tracer.installed` restores every module attribute on exit.

A span is (id, name, start, end, parent id, operation id, thread id). Spans
stay in memory and are written out once, when the run ends. A span opened by
a thread with no open span of its own (a LOSO fold worker) gets the current
operation's root span as its parent.

``trace.overhead_frac`` is the time the wrappers spend outside the wrapped
calls (span bookkeeping, FLOP and tape accounting), measured in the traced
run, over the wall time of its operations. A traced-versus-untraced
difference of separate runs would be far below their run-to-run spread.
"""

from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time

import numpy as np

clock = time.perf_counter

# Model stages, in forward order; each gets <stage>.fwd_s and <stage>.bwd_s.
STAGES = tuple(
    f"trunk.{name}{i}" for i in (1, 2) for name in ("conv", "pool", "bn", "drop")
) + ("tcn", "lstm", "gpool", "head")
TCN_CONVS = tuple(
    f"tcn.block{b}.conv_{ab}" for b in range(4) for ab in ("a", "b")
) + ("tcn.block0.proj",)
# Stages whose forward tape is measured, and those with an operation count.
TAPE_STAGES = ("trunk.conv1", "trunk.conv2", "tcn", "lstm")
FLOP_STAGES = ("trunk.conv1", "trunk.conv2", "tcn")

# Spans whose busy seconds and call counts are reported as they are.
SPAN_METRICS = (
    tuple(f"{s}.{d}" for s in STAGES + TCN_CONVS for d in ("fwd", "bwd"))
    + (
        "training.loss",
        "training.adam_step",
        "training.predict_proba",
        "training.train",
        "models.snapshot",
        "models.restore",
        "evaluation.evaluate_fold",
        "evaluation.run_loso",
        "signals.preprocess_record",
        "data.load_canonical",
    )
)
DERIVED_SECONDS = ("tcn.self_s", "evaluation.fold_wait_s", "cli.loso_other_s")
COUNTS = (
    "count.folds",
    "count.epochs",
    "count.train_steps",
    "count.windows_trained",
    "count.infer_windows",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_METRICS:
        units[f"{name}_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update({name: "s" for name in DERIVED_SECONDS})
    units.update({f"{s}.tape_mb": "MB" for s in TAPE_STAGES})
    for s in FLOP_STAGES:
        units[f"{s}.fwd_gflop_per_s"] = "GFLOP/s"
        units[f"{s}.bwd_gflop_per_s"] = "GFLOP/s"
    units["evaluation.fold_s_p50"] = "s"
    units["evaluation.pool_idle_frac"] = "fraction"
    units.update({name: "count" for name in COUNTS})
    units["trace.coverage_frac"] = "fraction"
    units["trace.overhead_frac"] = "fraction"
    units["error_rate"] = "fraction"
    return units


def conv_flops(conv, batch: int, time_in: int) -> int:
    """Multiply-adds of one Conv1d forward, counted as two FLOPs each.

    Backward does the same work twice (dW and dX), bias and activation aside.
    """
    spec = conv.spec
    return 2 * batch * conv.output_len(time_in) * spec.kernel_size * conv.in_channels * spec.filters


def _tape_bytes(layer) -> int:
    cache = getattr(layer, "_cache", None) or ()
    return sum(a.nbytes for a in cache if isinstance(a, np.ndarray))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.folds: list[tuple[int, float, float, float]] = []  # op, submitted, start, end
        self.flops: dict[str, float] = {}
        self.tape_mb: dict[str, float] = {}
        self.counts = {"windows_trained": 0, "infer_windows": 0}
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = (0, 0)  # (operation id, root span id)
        self._submitted = 0.0

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, after=None):
        """`fn` inside a span; `after(args, result)` runs for bookkeeping,
        outside the span but inside the measured overhead."""

        def traced(*args, **kwargs):
            t0 = clock()
            stack = self._stack()
            op, root = self._op
            parent = stack[-1] if stack else root
            sid = next(self._ids)
            stack.append(sid)
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            with self._lock:
                self.spans.append((sid, name, t1, t2, parent, op, threading.get_ident()))
                self.overhead_s += (t1 - t0) + (clock() - t2)
            return out

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str):
        """Root span of one closed-loop operation (a loso command, a step, a batch)."""
        sid = next(self._ids)
        self._op = (op_id, sid)
        start = clock()
        try:
            yield
        finally:
            end = clock()
            with self._lock:
                self.spans.append((sid, name, start, end, 0, op_id, threading.get_ident()))
            self._op = (0, 0)

    def _add(self, table: dict, key: str, value: float) -> None:
        with self._lock:
            table[key] = table.get(key, 0) + value

    # -- instrumentation ---------------------------------------------------------

    def instrument(self, model):
        """Wrap every stage of a built model (and the TCN's inner convs)."""
        stages = [(f"trunk.{n}", layer) for n, layer in model.trunk]
        stages += list(model.branches.items()) + [("head", model.head)]
        tcn = model.branches.get("tcn")
        if tcn is not None:
            for b, block in enumerate(tcn.blocks):
                stages += [(f"tcn.block{b}.{n}", conv) for n, conv in block.sublayers()]
        for name, layer in stages:
            self._instrument_stage(name, layer, tcn)
        model.snapshot = self.wrap(model.snapshot, "models.snapshot")
        model.restore = self.wrap(model.restore, "models.restore")
        return model

    def _instrument_stage(self, name, layer, tcn):
        last_fwd = [0.0]

        def after_fwd(args, out):
            x = args[0]
            if name in FLOP_STAGES:
                if name == "tcn":
                    convs = [c for blk in tcn.blocks for _, c in blk.sublayers()]
                else:
                    convs = [layer]
                last_fwd[0] = sum(conv_flops(c, x.shape[0], x.shape[1]) for c in convs)
                self._add(self.flops, f"{name}.fwd", last_fwd[0])
            if name in TAPE_STAGES:
                held = [layer]
                if name == "tcn":
                    held += [
                        sub
                        for blk in tcn.blocks
                        for sub in (blk.conv_a, blk.drop_a, blk.conv_b, blk.drop_b, blk.proj)
                        if sub is not None
                    ]
                mb = sum(_tape_bytes(h) for h in held) / 2**20
                with self._lock:
                    self.tape_mb[name] = max(self.tape_mb.get(name, 0.0), mb)

        def after_bwd(args, out):
            if name in FLOP_STAGES:
                self._add(self.flops, f"{name}.bwd", 2 * last_fwd[0])

        layer.forward = self.wrap(layer.forward, f"{name}.fwd", after_fwd)
        layer.backward = self.wrap(layer.backward, f"{name}.bwd", after_bwd)

    @contextlib.contextmanager
    def installed(self):
        """Wrap ppgemo's module-level entry points for the duration of the block."""
        from ppgemo import data, evaluation, training

        def count_trained(args, out):
            self._add(self.counts, "windows_trained", np.shape(args[0])[0])

        def count_scored(args, out):
            self._add(self.counts, "infer_windows", np.shape(args[1])[0])

        def submitted(args, out):
            self._submitted = clock()

        def fold_started(args, out):
            self._local.fold_start = clock()

        def fold_finished(args, out):
            with self._lock:
                self.folds.append(
                    (self._op[0], self._submitted, self._local.fold_start, clock())
                )

        def built(config, rng):
            return self.instrument(original_build(config, rng))

        original_build = evaluation.build
        patches = [
            (training, "weighted_cce", self.wrap(training.weighted_cce, "training.loss", count_trained)),
            (training, "weighted_cce_grad", self.wrap(training.weighted_cce_grad, "training.loss")),
            (training, "adam_step", self.wrap(training.adam_step, "training.adam_step")),
            (training, "predict_proba", self.wrap(training.predict_proba, "training.predict_proba", count_scored)),
            (evaluation, "predict_proba", self.wrap(evaluation.predict_proba, "training.predict_proba", count_scored)),
            (evaluation, "train", self.wrap(evaluation.train, "training.train")),
            (evaluation, "evaluate_fold", self.wrap(evaluation.evaluate_fold, "evaluation.evaluate_fold", fold_finished)),
            (evaluation, "run_loso", self.wrap(evaluation.run_loso, "evaluation.run_loso")),
            (evaluation, "preprocess_record", self.wrap(evaluation.preprocess_record, "signals.preprocess_record")),
            (data, "load_canonical", self.wrap(data.load_canonical, "data.load_canonical")),
            (evaluation, "build", built),
            # run_loso submits every fold task right after computing the folds,
            # and each task's first call is fold_seed_for
            (evaluation, "loso_folds", _after(evaluation.loso_folds, submitted)),
            (evaluation, "fold_seed_for", _after(evaluation.fold_seed_for, fold_started)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, fn in patches:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # -- reduction ---------------------------------------------------------------

    def metrics(self, counts: dict[str, float], attempted: int, failed: int) -> dict:
        """Per-layer metrics (name -> value); `counts` holds the workload's
        own tallies (folds, epochs)."""
        busy: dict[str, float] = {}
        calls: dict[str, int] = {}
        for _, name, start, end, _, _, _ in self.spans:
            busy[name] = busy.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}_s"] = busy.get(name, 0.0)
            out[f"{name}_calls"] = calls.get(name, 0)

        tcn_children = sum(busy.get(f"{c}.{d}", 0.0) for c in TCN_CONVS for d in ("fwd", "bwd"))
        out["tcn.self_s"] = busy.get("tcn.fwd", 0.0) + busy.get("tcn.bwd", 0.0) - tcn_children
        out["evaluation.fold_wait_s"] = sum(start - sub for _, sub, start, _ in self.folds)
        out["cli.loso_other_s"] = (
            busy.get("cli.loso", 0.0) - busy.get("data.load_canonical", 0.0) - busy.get("evaluation.run_loso", 0.0)
        )

        for s in TAPE_STAGES:
            out[f"{s}.tape_mb"] = self.tape_mb.get(s, 0.0)
        for s in FLOP_STAGES:
            for d in ("fwd", "bwd"):
                secs = busy.get(f"{s}.{d}", 0.0)
                out[f"{s}.{d}_gflop_per_s"] = self.flops.get(f"{s}.{d}", 0.0) / secs / 1e9 if secs else 0.0

        fold_s = [end - start for _, _, start, end in self.folds]
        out["evaluation.fold_s_p50"] = statistics.median(fold_s) if fold_s else 0.0
        out["evaluation.pool_idle_frac"] = self._pool_idle(counts.get("jobs", 1))

        out["count.folds"] = len(self.folds)
        out["count.epochs"] = counts.get("epochs", 0)
        out["count.train_steps"] = calls.get("training.adam_step", 0)
        out["count.windows_trained"] = self.counts["windows_trained"]
        out["count.infer_windows"] = self.counts["infer_windows"]

        op_wall = sum(end - start for _, _, start, end, parent, _, _ in self.spans if parent == 0)
        out["trace.coverage_frac"] = self.covered_s() / op_wall if op_wall else 0.0
        out["trace.overhead_frac"] = self.overhead_s / op_wall if op_wall else 0.0
        out["error_rate"] = failed / attempted if attempted else 0.0
        return out

    def covered_s(self) -> float:
        """Seconds of the operations covered by their root spans' direct
        children on the root's own thread; on train_b512 these are exactly
        the stages, the loss and Adam."""
        roots = {s[0]: s[6] for s in self.spans if s[4] == 0}
        return sum(
            end - start
            for _, _, start, end, parent, _, thread in self.spans
            if parent in roots and roots[parent] == thread
        )

    def _pool_idle(self, jobs: int) -> float:
        """Share of the fold pool's worker time left idle from fold submission
        to the end of run_loso, averaged over operations: what uneven folds
        cost the makespan."""
        shares = []
        for _, name, _, end, _, op, _ in self.spans:
            if name != "evaluation.run_loso":
                continue
            folds = [f for f in self.folds if f[0] == op]
            if folds:
                busy = sum(f_end - f_start for _, _, f_start, f_end in folds)
                shares.append(1.0 - busy / (jobs * (end - folds[0][1])))
        return statistics.mean(shares) if shares else 0.0

    def dump(self) -> dict:
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "op", "thread"],
            "spans": [list(s) for s in sorted(self.spans, key=lambda s: s[2])],
            "fold_fields": ["op", "submitted", "start", "end"],
            "folds": [list(f) for f in self.folds],
        }


def _after(fn, hook):
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        hook(args, out)
        return out

    return call
