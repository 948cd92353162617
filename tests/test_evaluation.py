from dataclasses import asdict

import numpy as np
import pytest
from oracles import brute_force_auc, oracle_accuracy, oracle_f1, oracle_weighted_f1

from ppgemo.errors import ConfigError, DataError, ShapeError
from ppgemo.evaluation import (
    FoldMetrics,
    accuracy,
    aggregate,
    auc,
    evaluate_fold,
    f1_per_class,
    load_reports,
    loso_folds,
    macro_f1,
    render_csv,
    render_markdown,
    report_from_dict,
    round2,
    save_reports,
    weighted_f1,
)
from ppgemo.signals import Segment


class StubModel:
    """Duck-typed model emitting fixed class-1 scores."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=np.float64)

    def forward(self, x, mode="infer", rng=None):
        s = self.scores[: x.shape[0]]
        self.scores = self.scores[x.shape[0] :]
        return np.column_stack([1.0 - s, s])


def make_segments(labels, subject="s1"):
    return [
        Segment(np.zeros(8), subject, i + 1, int(y), int(y)) for i, y in enumerate(labels)
    ]


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_two_thirds(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("metric", [accuracy, auc], ids=["accuracy", "auc"])
    def test_empty_errors(self, metric):
        with pytest.raises(DataError):
            metric([], [])

    @pytest.mark.parametrize("metric", [accuracy, auc], ids=["accuracy", "auc"])
    def test_length_mismatch(self, metric):
        with pytest.raises(ShapeError):
            metric([1, 0], [1])


class TestF1:
    def test_perfect_both_classes(self):
        assert f1_per_class([0, 1, 0, 1], [0, 1, 0, 1], 0) == 1.0
        assert f1_per_class([0, 1, 0, 1], [0, 1, 0, 1], 1) == 1.0

    def test_confusion_arithmetic(self):
        # tp=2, fp=1, fn=1 for class 1 -> precision = recall = 2/3 -> F1 = 2/3
        preds = [1, 1, 1, 0, 0]
        labels = [1, 1, 0, 1, 0]
        assert f1_per_class(preds, labels, 1) == pytest.approx(2 / 3)

    def test_degenerate_zero_convention(self):
        assert f1_per_class([0, 0], [0, 0], 1) == 0.0

    def test_weighted_hand_example(self):
        # F1_0 = 0, F1_1 = 6/7 -> weighted = 3/4 * 6/7
        got = weighted_f1([1, 1, 1, 1], [0, 1, 1, 1])
        assert got == pytest.approx(18 / 28)
        assert got == pytest.approx(0.643, abs=1e-3)

    def test_weighted_equals_macro_when_balanced(self, rng):
        labels = np.array([0, 1] * 10)
        preds = rng.integers(0, 2, 20)
        assert weighted_f1(preds, labels) == pytest.approx(macro_f1(preds, labels))

    def test_weighted_perfect(self):
        assert weighted_f1([0, 1, 1], [0, 1, 1]) == 1.0

    def test_matches_confusion_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            assert accuracy(preds, labels) == pytest.approx(oracle_accuracy(preds, labels))
            for cls in (0, 1):
                assert f1_per_class(preds, labels, cls) == pytest.approx(
                    oracle_f1(preds, labels, cls)
                )
            assert weighted_f1(preds, labels) == pytest.approx(
                oracle_weighted_f1(preds, labels)
            )

    def test_weighted_between_class_extremes(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            f1s = [f1_per_class(preds, labels, c) for c in (0, 1)]
            w = weighted_f1(preds, labels)
            assert min(f1s) - 1e-12 <= w <= max(f1s) + 1e-12


class TestAuc:
    def test_separated(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
        assert auc([0.8, 0.9, 0.1, 0.2], [0, 0, 1, 1]) == 0.0

    def test_fixed_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_all_ties_give_half(self):
        assert auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        assert auc([0.1, 0.9], [1, 1]) is None

    def test_matches_brute_force_including_ties(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if rng.random() < 0.5:
                scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)  # force ties
            else:
                scores = rng.standard_normal(n)
            assert abs(auc(scores, labels) - brute_force_auc(scores, labels)) <= 1e-12

    def test_invariant_under_monotone_transforms(self, rng):
        scores = rng.standard_normal(50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        base = auc(scores, labels)
        assert auc(3.0 * scores + 7.0, labels) == base
        assert auc(np.exp(scores), labels) == base


class TestLosoFolds:
    def test_eighteen_subjects_eighteen_folds(self):
        subjects = [f"s{i:02d}" for i in range(18)]
        folds = loso_folds(subjects)
        assert len(folds) == 18
        assert sorted(test for _, test in folds) == sorted(subjects)

    def test_partition_properties_randomized(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            subjects = [f"p{i}" for i in range(n)]
            folds = loso_folds(subjects)
            assert len(folds) == n
            for train, test in folds:
                assert test not in train
                assert sorted(train + [test]) == sorted(subjects)

    def test_needs_two_subjects(self):
        with pytest.raises(DataError):
            loso_folds(["solo"])


class TestEvaluateFold:
    def test_constant_scorer(self):
        labels = [1, 1, 1, 0, 1, 0]
        segs = make_segments(labels)
        fm = evaluate_fold(StubModel([0.5] * 6), segs, "valence")
        # argmax ties resolve to class 0
        assert fm.accuracy == pytest.approx(2 / 6)
        assert fm.auc == 0.5

    def test_against_hand_confusion_fixture(self, rng):
        labels = rng.integers(0, 2, 20)
        labels[:2] = [0, 1]
        scores = rng.uniform(0.01, 0.99, 20)
        fm = evaluate_fold(StubModel(scores.copy()), make_segments(labels), "valence")
        preds = (scores > 0.5).astype(int)
        assert fm.accuracy == pytest.approx(oracle_accuracy(preds, labels))
        assert fm.f1_class0 == pytest.approx(oracle_f1(preds, labels, 0))
        assert fm.f1_class1 == pytest.approx(oracle_f1(preds, labels, 1))
        assert fm.weighted_f1 == pytest.approx(oracle_weighted_f1(preds, labels))
        assert fm.auc == pytest.approx(brute_force_auc(scores, labels))

    def test_all_fields_in_unit_interval(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            fm = evaluate_fold(
                StubModel(rng.uniform(0, 1, n)), make_segments(labels), "valence"
            )
            for name in ("accuracy", "f1_class0", "f1_class1", "weighted_f1", "macro_f1", "auc"):
                value = getattr(fm, name)
                assert 0.0 <= value <= 1.0

    def test_single_class_subject_reports_none_auc(self, caplog):
        with caplog.at_level("WARNING"):
            fm = evaluate_fold(StubModel([0.2, 0.9]), make_segments([1, 1]), "valence")
        assert fm.auc is None
        assert "undefined" in caplog.text

    def test_mixed_subjects_rejected(self):
        segs = make_segments([0, 1], subject="a") + make_segments([1, 0], subject="b")
        with pytest.raises(DataError):
            evaluate_fold(StubModel([0.5] * 4), segs, "valence")

    def test_empty_test_set_rejected(self):
        with pytest.raises(DataError, match="empty"):
            evaluate_fold(StubModel([]), [], "valence")


def fold(subject, **overrides):
    base = dict(
        test_subject=subject,
        accuracy=0.5,
        f1_class0=0.5,
        f1_class1=0.5,
        weighted_f1=0.5,
        macro_f1=0.5,
        auc=0.5,
    )
    base.update(overrides)
    return FoldMetrics(**base)


class TestAggregate:
    def test_single_fold_means_equal_fold(self):
        fm = fold("s1", accuracy=0.7, auc=0.9)
        report = aggregate({"valence": [fm]})
        assert report.means["valence"]["accuracy"] == 0.7
        assert report.means["valence"]["auc"] == 0.9
        assert report.average is None

    def test_average_row_is_elementwise_mean(self, rng):
        va = [fold(f"s{i}", auc=float(rng.uniform(0, 1))) for i in range(5)]
        ar = [fold(f"s{i}", auc=float(rng.uniform(0, 1))) for i in range(5)]
        report = aggregate({"valence": va, "arousal": ar})
        for name, value in report.average.items():
            expect = 0.5 * (report.means["valence"][name] + report.means["arousal"][name])
            assert abs(value - expect) <= 1e-12

    def test_mean_matches_recomputation_oracle(self, rng):
        rows = [fold(f"s{i}", accuracy=float(rng.uniform(0, 1))) for i in range(7)]
        report = aggregate({"valence": rows})
        brute = sum(r.accuracy for r in rows) / len(rows)
        assert report.means["valence"]["accuracy"] == pytest.approx(brute, abs=1e-12)

    def test_fold_mismatch_between_targets(self):
        with pytest.raises(DataError, match="different folds"):
            aggregate({"valence": [fold("s1"), fold("s2")], "arousal": [fold("s1")]})

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match="target must be one of"):
            aggregate({"joy": [fold("s1")]})

    def test_undefined_auc_excluded_from_mean(self, caplog):
        rows = [fold("s1", auc=0.8), fold("s2", auc=None)]
        with caplog.at_level("WARNING"):
            report = aggregate({"valence": rows})
        assert report.means["valence"]["auc"] == 0.8
        assert "undefined" in caplog.text


class TestReportSerialization:
    def _report(self):
        va = [fold("s1", auc=0.66), fold("s2", auc=0.66)]
        ar = [fold("s1", auc=0.69), fold("s2", auc=0.69)]
        return aggregate({"valence": va, "arousal": ar})

    def test_round_trip(self):
        report = self._report()
        assert report_from_dict(asdict(report)) == report

    def test_file_round_trip(self, tmp_path):
        reports = {"cnn_tcn_lstm": self._report()}
        save_reports(reports, tmp_path / "report.json")
        loaded = load_reports(tmp_path / "report.json")
        assert loaded == reports

    def test_average_renders_068(self):
        # target AUC means 0.66 and 0.69 must serialize to an average of 0.68
        reports = {"cnn_tcn_lstm": self._report()}
        assert reports["cnn_tcn_lstm"].average["auc"] == pytest.approx(0.675, abs=1e-12)
        csv = render_csv(reports)
        average_line = [l for l in csv.splitlines() if l.startswith("average")][0]
        assert average_line.endswith("0.68")

    def test_markdown_layout(self):
        md = render_markdown({"cnn_tcn_lstm": self._report()})
        assert "### Valence only" in md
        assert "### Arousal only" in md
        assert "### Average of Valence and Arousal" in md
        assert "CNN-TCN-LSTM" in md
        assert "AUC" in md


class TestRound2:
    def test_half_up_on_accumulated_mean(self):
        assert round2((0.66 + 0.69) / 2) == 0.68

    def test_literal_half_values(self):
        assert round2(0.675) == 0.68
        assert round2(0.665) == 0.67
        assert round2(0.664999) == 0.66


def _folds(acc, auc):
    return [
        fold("s1", accuracy=acc, f1_class0=acc - 0.1, f1_class1=acc + 0.1, weighted_f1=acc + 0.01, auc=auc),
        fold("s2", accuracy=acc + 0.05, f1_class0=acc, f1_class1=acc, weighted_f1=acc, auc=auc),
    ]


MD_HEADER = (
    "| Model | Test Accuracy | F1-score class 0 | F1-score class 1 | weighted F1 | AUC |\n"
    "|---|---|---|---|---|---|\n"
)
CSV_HEADER = "section,model,accuracy,f1_class0,f1_class1,weighted_f1,auc\n"


class TestTableBytes:
    """The exact CSV and markdown of three report shapes."""

    def test_three_variants_two_targets_with_an_undefined_auc(self):
        reports = {
            "cnn": aggregate({"valence": _folds(0.6, None), "arousal": _folds(0.55, 0.7)}),
            "cnn_lstm": aggregate({"valence": _folds(0.62, 0.64), "arousal": _folds(0.58, 0.61)}),
            "cnn_tcn_lstm": aggregate({"valence": _folds(0.7, 0.72), "arousal": _folds(0.66, 0.69)}),
        }
        assert render_csv(reports) == CSV_HEADER + (
            "valence,CNN,0.63,0.55,0.65,0.61,n/a\n"
            "valence,CNN-LSTM,0.65,0.57,0.67,0.63,0.64\n"
            "valence,CNN-TCN-LSTM,0.73,0.65,0.75,0.71,0.72\n"
            "arousal,CNN,0.58,0.50,0.60,0.56,0.70\n"
            "arousal,CNN-LSTM,0.61,0.53,0.63,0.59,0.61\n"
            "arousal,CNN-TCN-LSTM,0.69,0.61,0.71,0.67,0.69\n"
            "average,CNN,0.60,0.53,0.63,0.58,n/a\n"
            "average,CNN-LSTM,0.63,0.55,0.65,0.61,0.63\n"
            "average,CNN-TCN-LSTM,0.71,0.63,0.73,0.69,0.71\n"
        )
        assert render_markdown(reports) == (
            "### Valence only\n" + MD_HEADER
            + "| CNN | 0.63 | 0.55 | 0.65 | 0.61 | n/a |\n"
            "| CNN-LSTM | 0.65 | 0.57 | 0.67 | 0.63 | 0.64 |\n"
            "| CNN-TCN-LSTM | 0.73 | 0.65 | 0.75 | 0.71 | 0.72 |\n"
            "\n"
            "### Arousal only\n" + MD_HEADER
            + "| CNN | 0.58 | 0.50 | 0.60 | 0.56 | 0.70 |\n"
            "| CNN-LSTM | 0.61 | 0.53 | 0.63 | 0.59 | 0.61 |\n"
            "| CNN-TCN-LSTM | 0.69 | 0.61 | 0.71 | 0.67 | 0.69 |\n"
            "\n"
            "### Average of Valence and Arousal\n" + MD_HEADER
            + "| CNN | 0.60 | 0.53 | 0.63 | 0.58 | n/a |\n"
            "| CNN-LSTM | 0.63 | 0.55 | 0.65 | 0.61 | 0.63 |\n"
            "| CNN-TCN-LSTM | 0.71 | 0.63 | 0.73 | 0.69 | 0.71 |\n"
        )

    def test_variant_without_arousal_drops_the_average_section(self):
        reports = {
            "cnn": aggregate({"valence": _folds(0.6, 0.65)}),
            "cnn_lstm": aggregate({"valence": _folds(0.62, 0.64), "arousal": _folds(0.58, 0.61)}),
        }
        assert render_csv(reports) == CSV_HEADER + (
            "valence,CNN,0.63,0.55,0.65,0.61,0.65\n"
            "valence,CNN-LSTM,0.65,0.57,0.67,0.63,0.64\n"
            "arousal,CNN-LSTM,0.61,0.53,0.63,0.59,0.61\n"
        )
        assert render_markdown(reports) == (
            "### Valence only\n" + MD_HEADER
            + "| CNN | 0.63 | 0.55 | 0.65 | 0.61 | 0.65 |\n"
            "| CNN-LSTM | 0.65 | 0.57 | 0.67 | 0.63 | 0.64 |\n"
            "\n"
            "### Arousal only\n" + MD_HEADER
            + "| CNN-LSTM | 0.61 | 0.53 | 0.63 | 0.59 | 0.61 |\n"
        )

    def test_unknown_variant_keeps_its_name(self):
        reports = {"my_net": aggregate({"arousal": _folds(0.5, 0.5)})}
        assert render_csv(reports) == CSV_HEADER + "arousal,my_net,0.53,0.45,0.55,0.51,0.50\n"
        assert render_markdown(reports) == (
            "### Arousal only\n" + MD_HEADER + "| my_net | 0.53 | 0.45 | 0.55 | 0.51 | 0.50 |\n"
        )
