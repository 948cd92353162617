"""Acceptance suite: one test per criterion, each printing a pass line.

Criterion 9 (real-dataset reproduction) is dataset-gated: it only runs
when PPGE_DATA_DIR points at an imported canonical copy of the real
recordings, and it is explicitly not required for acceptance.
"""

import json
import os

import numpy as np
import pytest
from oracles import brute_force_auc, oracle_accuracy, oracle_f1, oracle_weighted_f1, sos_magnitude_db

from ppgemo.cli import main
from ppgemo.data import SynthSpec, load_canonical, synth_dataset
from ppgemo.evaluation import (
    FoldMetrics,
    aggregate,
    auc,
    loso_folds,
    render_csv,
    round2,
    run_loso,
)
from ppgemo.models import ModelConfig, build
from ppgemo.nn import Tcn, TcnSpec
from ppgemo.nn.gradcheck import run_suite
from ppgemo.signals import FilterSpec, SegmenterSpec, design_bandpass
from ppgemo.training import TrainConfig, make_validation_split


def ok(criterion, message):
    print(f"[acceptance] criterion {criterion}: PASS - {message}")


def test_criterion_1_gradient_correctness():
    results = run_suite(cases_per_layer=20, seed=0)
    for r in results:
        assert r.max_rel_err < 1e-4, f"{r.name}: max relative error {r.max_rel_err:.3e} >= 1e-4"
    worst = max(r.max_rel_err for r in results)
    ok(1, f"9 layer families x 20 cases, worst relative error {worst:.2e} < 1e-4")


def test_criterion_2_filter_response():
    sos = design_bandpass(FilterSpec(order=3, low_hz=0.7, high_hz=3.7, fs_hz=100.0))
    for f in (0.7, 3.7):
        mag = sos_magnitude_db(sos, f, 100.0)
        assert abs(mag - (-3.0)) <= 0.5, f"|H({f})| = {mag:.3f} dB"
    for f in (0.05, 15.0):
        mag = sos_magnitude_db(sos, f, 100.0)
        assert mag <= -20.0, f"|H({f})| = {mag:.3f} dB"
    ok(2, "-3 dB +/- 0.5 at both cutoffs, <= -20 dB at 0.05 and 15 Hz")


def test_criterion_3_shape_trace():
    model = build(ModelConfig(), np.random.default_rng(0))
    rng = np.random.default_rng(1)
    model.forward(rng.standard_normal((2, 6000, 1)), "train", rng)
    expected = [
        ("input", (2, 6000, 1)),
        ("conv1", (2, 1500, 8)),
        ("pool1", (2, 750, 8)),
        ("bn1", (2, 750, 8)),
        ("drop1", (2, 750, 8)),
        ("conv2", (2, 375, 16)),
        ("pool2", (2, 187, 16)),
        ("bn2", (2, 187, 16)),
        ("drop2", (2, 187, 16)),
        ("tcn", (2, 8)),
        ("lstm", (2, 12)),
        ("concat", (2, 20)),
        ("head", (2, 2)),
    ]
    assert model.shape_trace == expected
    ok(3, "(2,6000,1) -> ... -> (2,187,16) -> (2,8)+(2,12) -> (2,20) -> (2,2)")


def test_criterion_4_tcn_structure():
    rng = np.random.default_rng(5)
    # causality with randomized parameters, on the full sequence output
    for trial in range(5):
        tcn = Tcn(3, TcnSpec(filters=2, kernel_size=4, dilations=(1, 2), dropout_rate=0.0), rng)
        x = rng.standard_normal((1, 40, 3))
        base = tcn.forward_sequence(x)
        t0 = int(rng.integers(1, 40))
        bumped = x.copy()
        bumped[0, t0, :] += 1.0
        out = tcn.forward_sequence(bumped)
        np.testing.assert_array_equal(out[:, :t0, :], base[:, :t0, :])

    # receptive field 1 + 2*(32-1)*15 = 931 for the evaluated configuration
    spec = TcnSpec()
    assert spec.receptive_field == 931
    tcn = Tcn(2, spec, rng)
    t = 940
    x = rng.standard_normal((1, t, 2))
    base = tcn.forward(x, "infer")
    outside = x.copy()
    outside[0, t - 1 - 931, :] += 10.0  # 931 steps before the final step
    np.testing.assert_allclose(tcn.forward(outside, "infer"), base, rtol=0, atol=1e-12)
    inside = x.copy()
    inside[0, t - 1 - 930, :] += 10.0
    assert not np.allclose(tcn.forward(inside, "infer"), base, rtol=0, atol=1e-12)
    ok(4, "causal for random params; perturbations beyond 930 steps never reach the head")


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(2, 200))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if rng.random() < 0.5:
            scores = rng.choice(np.linspace(0, 1, 7), size=n)  # heavy ties
        else:
            scores = rng.standard_normal(n)
        assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) <= 1e-12

    from ppgemo.evaluation import accuracy, f1_per_class, weighted_f1

    for _ in range(300):
        n = int(rng.integers(1, 80))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        assert accuracy(preds, labels) == pytest.approx(oracle_accuracy(preds, labels))
        for cls in (0, 1):
            assert f1_per_class(preds, labels, cls) == pytest.approx(
                oracle_f1(preds, labels, cls)
            )
        assert weighted_f1(preds, labels) == pytest.approx(oracle_weighted_f1(preds, labels))

    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)
    ok(5, "rank AUC == brute force on 1000 instances; confusion oracle agrees; fixed case = 0.75")


def test_criterion_6_loso_properties():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 25))
        subjects = [f"s{i:02d}" for i in range(n)]
        folds = loso_folds(subjects)
        assert len(folds) == n
        assert sorted(test for _, test in folds) == subjects
        for train_subjects, test_subject in folds:
            assert test_subject not in train_subjects
            assert sorted(train_subjects + [test_subject]) == subjects
            if len(train_subjects) >= 2:
                fit, val = make_validation_split(train_subjects, TrainConfig(), seed=3)
                assert set(fit) | set(val) == set(train_subjects)
                assert set(fit) & set(val) == set()
                assert test_subject not in fit and test_subject not in val
    ok(6, "n folds, each subject tested once, subject-disjoint; validation split subject-grouped")


@pytest.fixture(scope="module")
def learnability_runs():
    dataset = synth_dataset(
        SynthSpec(n_subjects=6, trials_per_subject=4, duration_s=120.0, fs_hz=100.0, seed=7)
    )
    tcfg = TrainConfig(batch_size=32, max_epochs=200, patience=30)
    return run_loso(
        dataset,
        FilterSpec(),
        SegmenterSpec(),
        ModelConfig(variant="cnn_tcn_lstm"),
        tcfg,
        ["cnn_tcn_lstm"],
        ["valence"],
        seed=11,
        jobs=2,
    )


def test_criterion_7_end_to_end_learnability(learnability_runs):
    runs = learnability_runs
    assert len(runs) == 6
    for run in runs:
        peak = max(run.train_log.train_acc)
        assert peak >= 0.95, f"fold {run.test_subject}: peak train accuracy {peak:.3f}"
    aucs = [run.metrics.auc for run in runs]
    assert all(a is not None for a in aucs)
    mean_auc = float(np.mean(aucs))
    assert mean_auc >= 0.70, f"mean LOSO AUC {mean_auc:.3f}"
    ok(7, f"every fold fits the training set (>= 0.95); mean LOSO AUC {mean_auc:.3f} >= 0.70")


def test_criterion_8_table_internal_consistency():
    def fold(subject, auc_value):
        return FoldMetrics(subject, 0.7, 0.5, 0.6, 0.55, 0.55, auc_value)

    report = aggregate(
        {
            "valence": [fold("s1", 0.66), fold("s2", 0.66)],
            "arousal": [fold("s1", 0.69), fold("s2", 0.69)],
        }
    )
    assert report.means["valence"]["auc"] == pytest.approx(0.66, abs=1e-12)
    assert report.means["arousal"]["auc"] == pytest.approx(0.69, abs=1e-12)
    assert report.average["auc"] == pytest.approx(0.675, abs=1e-12)
    assert round2(report.average["auc"]) == 0.68
    csv = render_csv({"cnn_tcn_lstm": report})
    average_row = [l for l in csv.splitlines() if l.startswith("average")][0]
    assert average_row.endswith("0.68")
    ok(8, "target AUC means 0.66/0.69 aggregate and render to 0.68")


@pytest.mark.skipif(
    "PPGE_DATA_DIR" not in os.environ,
    reason="dataset-gated: set PPGE_DATA_DIR to a canonical import of the real recordings",
)
def test_criterion_9_real_dataset_reproduction():
    dataset = load_canonical(os.environ["PPGE_DATA_DIR"])
    runs = run_loso(
        dataset,
        FilterSpec(),
        SegmenterSpec(),
        ModelConfig(variant="cnn_tcn_lstm"),
        TrainConfig(),
        ["cnn_tcn_lstm"],
        ["valence", "arousal"],
        seed=0,
        jobs=int(os.environ.get("PPGE_JOBS", "2")),
    )
    report = aggregate(
        {t: [r.metrics for r in runs if r.target == t] for t in ("valence", "arousal")}
    )
    assert report.means["valence"]["auc"] == pytest.approx(0.66, abs=0.05)
    assert report.means["arousal"]["auc"] == pytest.approx(0.69, abs=0.05)
    ok(9, "real-data LOSO AUC within +/-0.05 of the published 0.66/0.69")


def test_criterion_10_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert (
        main(
            ["synth", "--out", str(data_dir), "--subjects", "3", "--trials", "2",
             "--duration", "65", "--fs", "10", "--seed", "2"]
        )
        == 0
    )
    config = {
        "filter": {"fs_hz": 10.0},
        "segmenter": {"fs_hz": 10.0},
        "model": {
            "input_len": 600,
            "conv1": {"filters": 4, "kernel_size": 16, "stride": 4},
            "conv2": {"filters": 6, "kernel_size": 8, "stride": 2},
            "tcn": {"filters": 3, "kernel_size": 4, "dilations": [1, 2],
                    "dropout_rate": 0.3, "use_skip": True},
            "lstm_units": 4,
        },
        "train": {"batch_size": 16, "max_epochs": 4, "patience": 2},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"run_jobs{jobs}"
        code = main(
            ["loso", "--dataset", str(data_dir), "--out", str(out), "--config",
             str(config_path), "--variant", "cnn_tcn_lstm", "--target", "valence",
             "--seed", "9", "--jobs", jobs]
        )
        assert code == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    for fold_file in sorted(first.rglob("fold_*.json")):
        twin = second / fold_file.relative_to(first)
        assert fold_file.read_bytes() == twin.read_bytes()
    ok(10, "byte-identical metric JSON across repeated runs with different --jobs")
