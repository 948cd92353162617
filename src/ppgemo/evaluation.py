"""Leave-One-Subject-Out evaluation, classification metrics, and reporting.

Metrics are pure functions. Folds are independent and may run
concurrently; aggregation is a single-threaded reduction over the
completed folds, and serialized values are rounded to 2 decimals only at
rendering time.
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal
from itertools import groupby

import numpy as np

from .data import Dataset, atomic_open
from .errors import ConfigError, DataError, PpgEmoError, ShapeError, check_choice
from .models import Model, ModelConfig, build
from .signals import FilterSpec, Segment, SegmenterSpec, preprocess_record
from .training import (
    TARGETS,
    TrainConfig,
    TrainLog,
    make_validation_split,
    predict_proba,
    segments_to_arrays,
    train,
)

log = logging.getLogger(__name__)

METRIC_FIELDS = ("accuracy", "f1_class0", "f1_class1", "weighted_f1", "macro_f1", "auc")

# The published table: its columns (metric -> header), row labels and
# sections, each in the order the table shows them.
TABLE_COLUMNS = {
    "accuracy": "Test Accuracy",
    "f1_class0": "F1-score class 0",
    "f1_class1": "F1-score class 1",
    "weighted_f1": "weighted F1",
    "auc": "AUC",
}
VARIANT_LABELS = {"cnn": "CNN", "cnn_lstm": "CNN-LSTM", "cnn_tcn_lstm": "CNN-TCN-LSTM"}
SECTION_LABELS = {
    "valence": "Valence only",
    "arousal": "Arousal only",
    "average": "Average of Valence and Arousal",
}


@dataclass
class FoldMetrics:
    test_subject: str
    accuracy: float
    f1_class0: float
    f1_class1: float
    weighted_f1: float
    macro_f1: float
    auc: float | None  # None when the test subject has a single class


@dataclass
class EvalReport:
    """Per-target fold rows and means, plus the across-target average row."""

    folds: dict[str, list[FoldMetrics]]
    means: dict[str, dict[str, float | None]]
    average: dict[str, float | None] | None


def loso_folds(subject_ids) -> list[tuple[list[str], str]]:
    """One fold per subject: (train_subjects, test_subject), each subject
    tested exactly once, train and test disjoint."""
    subjects = sorted(set(subject_ids))
    if len(subjects) < 2:
        raise DataError(f"need at least 2 distinct subjects, got {len(subjects)}")
    return [([s for s in subjects if s != test], test) for test in subjects]


def _paired(preds, labels):
    p = np.asarray(preds)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ShapeError(f"predictions {p.shape} and labels {y.shape} must be equal 1-d")
    if p.size == 0:
        raise DataError("empty predictions/labels")
    return p, y


def accuracy(preds, labels) -> float:
    p, y = _paired(preds, labels)
    return float((p == y).mean())


def f1_per_class(preds, labels, class_id: int) -> float:
    """One-vs-rest F1; 0 by convention when precision + recall is 0."""
    p, y = _paired(preds, labels)
    tp = int(((p == class_id) & (y == class_id)).sum())
    fp = int(((p == class_id) & (y != class_id)).sum())
    fn = int(((p != class_id) & (y == class_id)).sum())
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    if prec + rec == 0.0:
        return 0.0
    return 2.0 * prec * rec / (prec + rec)


def weighted_f1(preds, labels) -> float:
    """Support-weighted mean of the per-class F1 scores."""
    p, y = _paired(preds, labels)
    total = 0.0
    for c in (0, 1):
        total += (y == c).sum() * f1_per_class(p, y, c)
    return float(total / y.size)


def macro_f1(preds, labels) -> float:
    return 0.5 * (f1_per_class(preds, labels, 0) + f1_per_class(preds, labels, 1))


def auc(scores, labels) -> float | None:
    """Rank-based (Mann-Whitney) AUC; ties contribute half credit.

    Equals the mean over all (positive, negative) pairs of
    1[s_pos > s_neg] + 0.5 * 1[s_pos == s_neg]. None when only one class
    is present, since there is no such pair.
    """
    s, y = _paired(scores, labels)
    pos = y == 1
    n_pos = int(pos.sum())
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    # a run of c tied scores ending at 1-based rank r holds ranks r-c+1..r,
    # whose mean is r - (c-1)/2
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    u = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def evaluate_fold(model, test_segments, target: str) -> FoldMetrics:
    """Infer-mode metrics on one held-out subject.

    Predictions are the argmax of the class probabilities (exact ties go
    to class 0) and AUC uses the class-1 probability.
    """
    if not test_segments:
        raise DataError("empty test set")
    subjects = {s.subject_id for s in test_segments}
    if len(subjects) != 1:
        raise DataError(
            f"test segments span subjects {sorted(subjects)}, expected exactly one"
        )
    subject = subjects.pop()
    x, y = segments_to_arrays(test_segments, target)
    probs = predict_proba(model, x)
    scores = probs[:, 1]
    preds = probs.argmax(axis=1)
    auc_val = auc(scores, y)
    if auc_val is None:
        log.warning("subject %s: AUC undefined (single-class test set)", subject)
    return FoldMetrics(
        test_subject=subject,
        accuracy=accuracy(preds, y),
        f1_class0=f1_per_class(preds, y, 0),
        f1_class1=f1_per_class(preds, y, 1),
        weighted_f1=weighted_f1(preds, y),
        macro_f1=macro_f1(preds, y),
        auc=auc_val,
    )


def _mean_metrics(rows: list[FoldMetrics]) -> dict[str, float | None]:
    """Each metric's mean over the folds that define it; None if none does."""
    out = {}
    for name in METRIC_FIELDS:
        defined = [v for r in rows if (v := getattr(r, name)) is not None]
        if len(defined) < len(rows):
            log.warning(
                "excluding %d fold(s) with undefined %s from the mean",
                len(rows) - len(defined),
                TABLE_COLUMNS.get(name, name),
            )
        out[name] = float(np.mean(defined)) if defined else None
    return out


def aggregate(folds_by_target: dict[str, list[FoldMetrics]]) -> EvalReport:
    """Per-target means over folds plus, when both targets are present, an
    average row that is their elementwise mean."""
    if not folds_by_target:
        raise DataError("no fold results to aggregate")
    for target in folds_by_target:
        check_choice("target", target, TARGETS)
    if len(folds_by_target) == 2:
        subjects = {
            t: sorted(r.test_subject for r in rows) for t, rows in folds_by_target.items()
        }
        a, b = subjects.values()
        if a != b:
            raise DataError(f"targets evaluated over different folds: {a} vs {b}")
    means = {t: _mean_metrics(rows) for t, rows in folds_by_target.items()}
    average = None
    if len(means) == 2:
        average = {}
        for name in METRIC_FIELDS:
            vals = [m[name] for m in means.values()]
            average[name] = None if any(v is None for v in vals) else float(np.mean(vals))
    return EvalReport(folds=dict(folds_by_target), means=means, average=average)


# -- serialization -------------------------------------------------------------


def round2(x: float) -> float:
    """Half-up rounding to 2 decimals, absorbing sub-nano float noise first
    so that accumulated means like (0.66 + 0.69) / 2 render as 0.68."""
    d = Decimal(repr(float(x))).quantize(Decimal("1e-9"), rounding=ROUND_HALF_EVEN)
    return float(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _metric_row(row: dict) -> dict[str, float | None]:
    return {k: None if row[k] is None else float(row[k]) for k in METRIC_FIELDS}


def report_from_dict(d: dict) -> EvalReport:
    """One variant's EvalReport; a means or average row holds a number or None
    per metric, and every target key is one of TARGETS."""
    for t in [*d["folds"], *d["means"]]:
        check_choice("target", t, TARGETS)
    return EvalReport(
        folds={t: [FoldMetrics(**r) for r in rows] for t, rows in d["folds"].items()},
        means={t: _metric_row(row) for t, row in d["means"].items()},
        average=None if d["average"] is None else _metric_row(d["average"]),
    )


def save_reports(reports: dict[str, EvalReport], path) -> None:
    payload = {v: asdict(r) for v, r in reports.items()}
    with atomic_open(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def load_reports(path) -> dict[str, EvalReport]:
    try:
        with open(path) as fh:
            payload = json.load(fh)
        return {v: report_from_dict(d) for v, d in payload.items()}
    # unreadable, not JSON, or not the layout save_reports writes
    except (OSError, ValueError, KeyError, TypeError, AttributeError, ConfigError) as exc:
        raise DataError(f"cannot read report file {path}: {type(exc).__name__}: {exc}") from None


def _table_rows(reports: dict[str, EvalReport]) -> list[tuple[str, list[str]]]:
    """(section, cells) rows in the published table's order: sections in
    SECTION_LABELS order, the average only when every variant has one, and
    the cells a variant's label then its formatted values."""
    rows = []
    for section in SECTION_LABELS:
        if section == "average" and any(r.average is None for r in reports.values()):
            continue
        for variant, report in reports.items():
            values = report.average if section == "average" else report.means.get(section)
            if values is None:
                continue
            cells = [VARIANT_LABELS.get(variant, variant)]
            for c in TABLE_COLUMNS:
                cells.append("n/a" if values[c] is None else f"{round2(values[c]):.2f}")
            rows.append((section, cells))
    return rows


def render_csv(reports: dict[str, EvalReport]) -> str:
    lines = [",".join(["section", "model", *TABLE_COLUMNS])]
    lines += [",".join([section, *cells]) for section, cells in _table_rows(reports)]
    return "\n".join(lines) + "\n"


def render_markdown(reports: dict[str, EvalReport]) -> str:
    header = "| " + " | ".join(["Model", *TABLE_COLUMNS.values()]) + " |"
    rule = "|" + "---|" * (len(TABLE_COLUMNS) + 1)
    out = []
    for section, rows in groupby(_table_rows(reports), key=lambda row: row[0]):
        out += [f"### {SECTION_LABELS[section]}", header, rule]
        out += ["| " + " | ".join(cells) + " |" for _, cells in rows]
        out.append("")
    return "\n".join(out)


# -- LOSO orchestration ---------------------------------------------------------


@dataclass
class FoldRun:
    """Everything produced by training and testing one (variant, target,
    fold) task; `asdict` of it is the fold's record file."""

    variant: str
    target: str
    fold_index: int
    test_subject: str
    metrics: FoldMetrics
    train_log: TrainLog
    fold_seed: int
    fit_subjects: list[str]
    val_subjects: list[str]


def fold_seed_for(seed: int, fold_index: int, target: str) -> int:
    """Deterministic per-(fold, target) seed, independent of scheduling."""
    ss = np.random.SeedSequence([seed, fold_index, TARGETS.index(target)])
    return int(ss.generate_state(1)[0])


def segments_by_subject(records, fspec, sspec) -> dict[str, list[Segment]]:
    """Preprocess each record once; segments grouped by subject, in record order."""
    by_subject: dict[str, list[Segment]] = {}
    for record in records:
        for seg in preprocess_record(record, fspec, sspec):
            by_subject.setdefault(seg.subject_id, []).append(seg)
    return by_subject


def fit_model(
    by_subject, fit, val, model_config: ModelConfig, train_config: TrainConfig, seed: int, target
) -> tuple[Model, TrainLog]:
    """Build a model from `seed` and train it on the `fit` subjects,
    early-stopping on the `val` subjects; returns (model, TrainLog) with the
    best epoch's parameters restored."""
    model = build(model_config, np.random.default_rng([seed, 0]))
    fit_segs = [s for subj in fit for s in by_subject[subj]]
    val_segs = [s for subj in val for s in by_subject[subj]]
    return model, train(model, fit_segs, val_segs, train_config, seed, target)


def check_run(model_config: ModelConfig, sspec: SegmenterSpec, variants, targets):
    """Check every variant and target, and the model's input length against
    the window, before a run loads or preprocesses anything. Returns the
    model config of each variant and the targets, each name once."""
    model_configs = {v: replace(model_config, variant=v) for v in variants}
    targets = [check_choice("target", t, TARGETS) for t in dict.fromkeys(targets)]
    if model_config.input_len != sspec.window_samples:
        raise ConfigError(
            f"model input_len {model_config.input_len} does not match the "
            f"{sspec.window_samples}-sample window (window_s * fs_hz)"
        )
    return model_configs, targets


def run_loso(
    dataset: Dataset,
    fspec: FilterSpec,
    sspec: SegmenterSpec,
    model_config: ModelConfig,
    train_config: TrainConfig,
    variants,
    targets,
    seed: int,
    jobs: int = 1,
) -> list[FoldRun]:
    """Full LOSO loop over every (variant, target, fold).

    Every variant and target and the model's input length are checked
    before any work starts (a filter rate unlike the segmenter's fails at
    the first record), and the dataset is preprocessed once. Each fold
    trains a fresh model on the other subjects (with a subject-grouped
    validation split for early stopping) and evaluates on the held-out
    subject; `jobs` tasks run at once, across variants and targets. Fold
    RNGs depend only on (seed, fold, target), so a variant's results do
    not depend on `jobs` or on the other variants; a repeated name runs once.
    A fold's error keeps its type and is prefixed with the fold's variant,
    target and test subject. Returns the runs in (variant, target, fold) order.
    """
    model_configs, targets = check_run(model_config, sspec, variants, targets)
    by_subject = segments_by_subject(dataset.records, fspec, sspec)
    if not by_subject:
        raise DataError("dataset produced no segments")
    folds = loso_folds(by_subject)

    def run_one(variant: str, target: str, i: int, train_subjects, test_subject: str) -> FoldRun:
        fseed = fold_seed_for(seed, i, target)
        try:
            fit, val = make_validation_split(train_subjects, train_config, fseed)
            model, tlog = fit_model(
                by_subject, fit, val, model_configs[variant], train_config, fseed, target
            )
            metrics = evaluate_fold(model, by_subject[test_subject], target)
        except PpgEmoError as exc:
            raise type(exc)(f"{variant} {target}, test subject {test_subject}: {exc}") from None
        log.info(
            "%s fold %s/%s target=%s: acc=%.3f auc=%s (stopped at epoch %d)",
            variant,
            i + 1,
            len(folds),
            target,
            metrics.accuracy,
            "n/a" if metrics.auc is None else f"{metrics.auc:.3f}",
            tlog.stop_epoch,
        )
        return FoldRun(variant, target, i, test_subject, metrics, tlog, fseed, fit, val)

    tasks = [
        (v, t, i, tr, te)
        for v in model_configs
        for t in targets
        for i, (tr, te) in enumerate(folds)
    ]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda a: run_one(*a), tasks))
    return [run_one(*a) for a in tasks]
