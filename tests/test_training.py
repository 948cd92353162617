import importlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ppgemo import training
from ppgemo.errors import ConfigError, DataError, DivergenceError
from ppgemo.models import ConvStage, ModelConfig, build
from ppgemo.nn import TcnSpec
from ppgemo.signals import Segment
from ppgemo.training import (
    AdamState,
    TrainConfig,
    adam_step,
    compute_class_weights,
    make_validation_split,
    predict_proba,
    segments_to_arrays,
    train,
    train_step,
    weighted_cce,
    weighted_cce_grad,
)

SEG_LEN = 160
TINY_MODEL = ModelConfig(
    input_len=SEG_LEN,
    conv1=ConvStage(4, 8, 4),
    conv2=ConvStage(6, 4, 2),
    tcn=TcnSpec(filters=3, kernel_size=3, dilations=(1, 2), dropout_rate=0.1),
    lstm_units=4,
)
TINY_TRAIN = TrainConfig(batch_size=16, max_epochs=200, patience=25)


def two_tone_segments(subjects, per_subject=8, fs=40.0, rng_seed=0):
    """Separable two-class toy task: class c is a sinusoid at a class-specific
    frequency plus noise, standardized like the real pipeline output."""
    rng = np.random.default_rng(rng_seed)
    t = np.arange(SEG_LEN) / fs
    segments = []
    for subject in subjects:
        for i in range(per_subject):
            cls = i % 2
            freq = 2.0 if cls == 0 else 7.0
            x = np.sin(2 * np.pi * freq * t + rng.uniform(0, 2 * np.pi))
            x += 0.1 * rng.standard_normal(SEG_LEN)
            x = (x - x.mean()) / x.std()
            segments.append(Segment(x, subject, i + 1, cls, cls))
    return segments


class TestClassWeights:
    def test_balanced(self):
        np.testing.assert_allclose(compute_class_weights([0] * 50 + [1] * 50), [1.0, 1.0])

    def test_imbalanced_formula(self):
        w = compute_class_weights([0] * 30 + [1] * 70)
        np.testing.assert_allclose(w, [100 / 60, 100 / 140])
        assert w[0] == pytest.approx(1.6667, abs=1e-4)
        assert w[1] == pytest.approx(0.7143, abs=1e-4)

    def test_missing_class(self):
        with pytest.raises(DataError, match="class 0"):
            compute_class_weights([1] * 10)


class TestWeightedCce:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0]])
        onehot = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert weighted_cce(probs, onehot, np.ones(2)) == pytest.approx(0.0, abs=1e-10)

    def test_hand_example(self):
        loss = weighted_cce(np.array([[0.5, 0.5]]), np.array([[0.0, 1.0]]), [1.0, 2.0])
        assert loss == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        assert loss == pytest.approx(1.386294, abs=1e-6)

    def test_unit_weights_match_unweighted(self, rng):
        probs = rng.dirichlet(np.ones(2), size=20)
        y = rng.integers(0, 2, 20)
        onehot = np.eye(2)[y]
        weighted = weighted_cce(probs, onehot, np.ones(2))
        plain = float(-np.log(probs[np.arange(20), y]).mean())
        assert weighted == plain

    def test_grad_matches_finite_differences(self, rng):
        probs = rng.uniform(0.1, 0.9, size=(4, 2))
        onehot = np.eye(2)[rng.integers(0, 2, 4)]
        w = rng.uniform(0.5, 2.0, 2)
        grad = weighted_cce_grad(probs, onehot, w)
        step = 1e-7
        for i in range(4):
            for j in range(2):
                bumped = probs.copy()
                bumped[i, j] += step
                fd = (weighted_cce(bumped, onehot, w) - weighted_cce(probs, onehot, w)) / step
                assert grad[i, j] == pytest.approx(fd, abs=1e-5)


class TestAdam:
    def test_first_step_magnitude(self):
        params = {"p": np.array([0.0])}
        state = AdamState(params)
        adam_step(params, {"p": np.array([1.0])}, state, TrainConfig())
        assert params["p"][0] == pytest.approx(-0.01, abs=1e-6)

    def test_zero_gradient_no_change(self):
        params = {"p": np.array([1.5, -2.0])}
        state = AdamState(params)
        adam_step(params, {"p": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(params["p"], [1.5, -2.0])

    def test_update_opposes_persistent_gradient(self):
        params = {"p": np.array([0.0])}
        state = AdamState(params)
        for _ in range(10):
            before = params["p"][0]
            adam_step(params, {"p": np.array([3.0])}, state, TrainConfig())
            assert params["p"][0] < before


class TestEarlyStopping:
    """train()'s stopping rule, run on scripted validation accuracies."""

    def _train(self, monkeypatch, val_accs, patience, max_epochs):
        # 20 validation windows, so every scripted accuracy is a whole count
        segments = two_tone_segments(["a", "b"])
        val_segments = two_tone_segments(["d"], per_subject=20, rng_seed=99)
        _, yv = segments_to_arrays(val_segments, "valence")
        calls = []
        seen = []  # the model's state at each epoch's validation pass

        def scripted(model, x, batch_size=256):
            calls.append(x.shape[0])
            if len(calls) % 2:  # each epoch's first call scores the training set
                return np.full((x.shape[0], 2), 0.5)
            seen.append(model.snapshot())
            wrong = round((1.0 - val_accs[len(seen) - 1]) * yv.size)
            preds = np.where(np.arange(yv.size) < wrong, 1 - yv, yv)
            return np.eye(2)[preds]

        monkeypatch.setattr(training, "predict_proba", scripted)
        model = build(TINY_MODEL, np.random.default_rng(0))
        cfg = TrainConfig(batch_size=16, max_epochs=max_epochs, patience=patience)
        log = train(model, segments, val_segments, cfg, 0, "valence")
        assert log.val_acc == val_accs[: log.stop_epoch]
        restored = model.snapshot()
        for epoch, snap in enumerate(seen, 1):
            same = all(np.array_equal(restored[k], snap[k]) for k in snap)
            assert same == (epoch == log.best_epoch), epoch
        return log

    def test_spec_sequence(self, monkeypatch):
        # val accs 0.5, 0.6, 0.6, 0.6, 0.6 with patience 3: best is epoch 2,
        # training stops after the third non-improving epoch (epoch 5)
        log = self._train(monkeypatch, [0.5, 0.6, 0.6, 0.6, 0.6], patience=3, max_epochs=10)
        assert (log.best_epoch, log.stop_epoch) == (2, 5)

    def test_ties_do_not_reset(self, monkeypatch):
        # the restored parameters are epoch 1's, not a later tie's
        log = self._train(monkeypatch, [0.7, 0.7, 0.7], patience=2, max_epochs=10)
        assert (log.best_epoch, log.stop_epoch) == (1, 3)

    def test_improvement_resets(self, monkeypatch):
        # without the reset at epoch 3, patience 2 would stop there
        log = self._train(monkeypatch, [0.5, 0.4, 0.6, 0.55], patience=2, max_epochs=4)
        assert (log.best_epoch, log.stop_epoch) == (3, 4)


class TestValidationSplit:
    def test_ceil_fraction(self):
        subjects = [f"s{i}" for i in range(17)]
        fit, val = make_validation_split(subjects, TrainConfig(), seed=0)
        assert len(val) == 4  # ceil(0.2 * 17)
        assert len(fit) == 13

    def test_same_seed_same_split(self):
        subjects = [f"s{i}" for i in range(9)]
        a = make_validation_split(subjects, TrainConfig(), seed=5)
        b = make_validation_split(subjects, TrainConfig(), seed=5)
        assert a == b

    def test_partition(self):
        subjects = [f"s{i}" for i in range(9)]
        fit, val = make_validation_split(subjects, TrainConfig(), seed=1)
        assert set(fit) | set(val) == set(subjects)
        assert set(fit) & set(val) == set()

    def test_too_few_subjects(self):
        with pytest.raises(DataError):
            make_validation_split(["only"], TrainConfig(), seed=0)


class TestTrainConfig:
    def test_patience_must_be_below_max_epochs(self):
        with pytest.raises(ConfigError, match="patience"):
            TrainConfig(max_epochs=10, patience=10)


class TestTrainLoop:
    def _run(self, seed=3):
        segments = two_tone_segments(["a", "b", "c"])
        val_segments = two_tone_segments(["d"], rng_seed=99)
        model = build(TINY_MODEL, np.random.default_rng(seed))
        log = train(model, segments, val_segments, TINY_TRAIN, seed, "valence")
        return model, log, val_segments

    def test_learnability_smoke(self):
        _, log, _ = self._run()
        assert max(log.train_acc) >= 0.95
        assert log.stop_epoch <= 200

    def test_loss_trend_mostly_decreasing(self):
        _, log, _ = self._run()
        first = log.train_loss[: min(15, len(log.train_loss))]
        rises = sum(1 for a, b in zip(first, first[1:]) if b > a)
        assert rises <= 0.2 * (len(first) - 1) + 1

    def test_determinism_bit_identical_logs(self):
        _, log1, _ = self._run(seed=11)
        _, log2, _ = self._run(seed=11)
        assert log1.train_loss == log2.train_loss
        assert log1.train_acc == log2.train_acc
        assert log1.val_acc == log2.val_acc
        assert (log1.best_epoch, log1.stop_epoch) == (log2.best_epoch, log2.stop_epoch)

    def test_restore_best_parameters(self):
        model, log, val_segments = self._run()
        x, y = segments_to_arrays(val_segments, "valence")
        restored_acc = float((predict_proba(model, x).argmax(axis=1) == y).mean())
        assert restored_acc == log.val_acc[log.best_epoch - 1]
        assert log.val_acc[log.best_epoch - 1] == max(log.val_acc)

    def test_stopping_rule_invariant(self):
        _, log, _ = self._run()
        assert log.stop_epoch <= log.best_epoch + TINY_TRAIN.patience + 1
        assert log.stop_epoch == len(log.val_acc)

    def test_runs_to_max_epochs_when_patience_survives(self):
        # epoch 1 always improves on -inf, so with patience 2 the earliest
        # possible stop is epoch 3 == max_epochs: the budget is exhausted
        segments = two_tone_segments(["a", "b"])
        val_segments = two_tone_segments(["d"], rng_seed=99)
        model = build(TINY_MODEL, np.random.default_rng(0))
        cfg = TrainConfig(batch_size=16, max_epochs=3, patience=2)
        log = train(model, segments, val_segments, cfg, 0, "valence")
        assert log.stop_epoch == 3
        assert len(log.train_loss) == len(log.val_acc) == 3

    def test_class_weights_come_from_training_fold_only(self):
        # imbalanced train vs balanced val; logged weights must match the
        # training labels
        segments = [s for s in two_tone_segments(["a", "b"]) if not (s.valence == 0 and s.trial_id > 3)]
        val_segments = two_tone_segments(["d"], rng_seed=5)
        y = np.array([s.valence for s in segments])
        model = build(TINY_MODEL, np.random.default_rng(0))
        cfg = TrainConfig(batch_size=8, max_epochs=5, patience=2)
        log = train(model, segments, val_segments, cfg, 0, "valence")
        np.testing.assert_allclose(log.class_weights, compute_class_weights(y))

    def test_empty_training_set(self):
        model = build(TINY_MODEL, np.random.default_rng(0))
        with pytest.raises(DataError):
            train(model, [], two_tone_segments(["d"]), TINY_TRAIN, 3, "valence")

    def test_subject_overlap_rejected(self):
        model = build(TINY_MODEL, np.random.default_rng(0))
        segs = two_tone_segments(["a", "b"])
        with pytest.raises(DataError, match="leak"):
            train(model, segs, two_tone_segments(["a"]), TINY_TRAIN, 3, "valence")

    def test_bad_target(self):
        model = build(TINY_MODEL, np.random.default_rng(0))
        segs = two_tone_segments(["a", "b"])
        with pytest.raises(ConfigError, match="target"):
            train(model, segs, two_tone_segments(["d"]), TINY_TRAIN, 3, "joy")


def counted(monkeypatch, name, calls):
    """Replace training.<name> with a wrapper that counts its calls."""
    fn = getattr(training, name)

    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(training, name, wrapper)


class TestTrainStep:
    def test_train_runs_one_step_per_batch(self, monkeypatch):
        # 16 windows in batches of 5: three full batches and one of 1
        segments = two_tone_segments(["a", "b"])
        calls = {}
        counted(monkeypatch, "train_step", calls)
        model = build(TINY_MODEL, np.random.default_rng(0))
        cfg = TrainConfig(batch_size=5, max_epochs=3, patience=2)
        log = train(model, segments, two_tone_segments(["d"], rng_seed=99), cfg, 0, "valence")
        assert log.stop_epoch == 3
        assert calls == {"train_step": 3 * math.ceil(len(segments) / 5)}

    def test_step_calls_the_module_loss_gradient_and_adam_once(self, monkeypatch):
        x, y = segments_to_arrays(two_tone_segments(["a", "b"]), "valence")
        calls = {}
        for name in ("weighted_cce", "weighted_cce_grad", "adam_step"):
            counted(monkeypatch, name, calls)
        model = build(TINY_MODEL, np.random.default_rng(0))
        loss = train_step(
            model, x, np.eye(2)[y], compute_class_weights(y), AdamState(model.params()),
            TINY_TRAIN, np.random.default_rng(1),
        )
        assert math.isfinite(loss)
        assert calls == {"weighted_cce": 1, "weighted_cce_grad": 1, "adam_step": 1}

    def test_divergence_raises_before_any_update(self):
        model = build(TINY_MODEL, np.random.default_rng(0))
        model.params()["trunk.conv1.W"][0, 0, 0] = np.nan
        before = {k: v.copy() for k, v in model.params().items()}
        segments = two_tone_segments(["a", "b"])
        with pytest.raises(DivergenceError) as info:
            train(model, segments, two_tone_segments(["d"], rng_seed=99), TINY_TRAIN, 0, "valence")
        assert str(info.value) == (
            "training diverged: non-finite gradient trunk.conv1.W (loss nan) at epoch 1, batch 1"
        )
        for k, v in model.params().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)


def test_benchmark_step_equals_the_programs(monkeypatch):
    # perfbench times its own copy of the step; it must stay the program's
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    setting = workloads.SMOKE
    x, y = workloads.make_windows(setting, 0, setting.train_batch)
    onehot, weights = np.eye(2)[y], compute_class_weights(y)
    mcfg = replace(setting.model, variant=workloads.TRAIN_VARIANT)
    cfg = TrainConfig(batch_size=setting.train_batch)
    runs = []
    for step in (workloads.train_step, train_step):
        model = build(mcfg, np.random.default_rng([0, 0]))
        state = AdamState(model.params())
        losses = [
            step(model, x, onehot, weights, state, cfg, np.random.default_rng([0, 2, i]))
            for i in range(2)
        ]
        runs.append((losses, model.params()))
    (bench_losses, bench_params), (losses, params) = runs
    np.testing.assert_array_equal(bench_losses, losses)
    assert bench_params.keys() == params.keys()
    for k in params:
        np.testing.assert_array_equal(bench_params[k], params[k], err_msg=k)
