import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from ppgemo import cli, evaluation
from ppgemo.cli import main, resolve_run_config
from ppgemo.errors import ConfigError
from ppgemo.data import load_canonical
from ppgemo.evaluation import FoldMetrics, FoldRun, aggregate, save_reports
from ppgemo.training import TrainLog

# reduced geometry so CLI round trips stay fast: 10 Hz sampling keeps the
# 60 s window at 600 samples
CONFIG = {
    "filter": {"order": 3, "low_hz": 0.7, "high_hz": 3.7, "fs_hz": 10.0},
    "segmenter": {"window_s": 60.0, "overlap_s": 5.0, "fs_hz": 10.0},
    "model": {
        "input_len": 600,
        "conv1": {"filters": 4, "kernel_size": 16, "stride": 4},
        "conv2": {"filters": 6, "kernel_size": 8, "stride": 2},
        "tcn": {
            "filters": 3,
            "kernel_size": 4,
            "dilations": [1, 2],
            "dropout_rate": 0.3,
            "use_skip": True,
        },
        "lstm_units": 4,
    },
    "train": {"batch_size": 16, "max_epochs": 4, "patience": 2},
}


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--subjects",
            "3",
            "--trials",
            "2",
            "--duration",
            "65",
            "--fs",
            "10",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    return out


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_synth_writes_canonical_dataset(synth_dir):
    ds = load_canonical(synth_dir)
    assert len(ds.records) == 6
    assert (synth_dir / "run_config.json").exists()


def test_preprocess(synth_dir, config_file, tmp_path):
    out = tmp_path / "pre"
    code = main(
        [
            "preprocess",
            "--dataset",
            str(synth_dir),
            "--out",
            str(out),
            "--config",
            str(config_file),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_records"] == 6
    assert summary["n_segments"] == 6  # 65 s at stride 55 s -> 1 window each
    with np.load(out / "segments.npz") as npz:
        assert npz["samples"].shape == (6, 600)
    assert (out / "run_config.json").exists()


def test_train_with_explicit_split(synth_dir, config_file, tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--dataset",
            str(synth_dir),
            "--out",
            str(out),
            "--config",
            str(config_file),
            "--variant",
            "cnn",
            "--target",
            "valence",
            "--val-subjects",
            "S03",
            "--seed",
            "1",
        ]
    )
    assert code == 0
    lines = (out / "trainlog.jsonl").read_text().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["stop_epoch"] <= 4
    assert (out / "model.json").exists()
    echoed = json.loads((out / "run_config.json").read_text())
    assert echoed["val_subjects"] == ["S03"]


def test_loso_writes_folds_and_reports(synth_dir, config_file, tmp_path):
    out = tmp_path / "loso"
    code = main(
        [
            "loso",
            "--dataset",
            str(synth_dir),
            "--out",
            str(out),
            "--config",
            str(config_file),
            "--variant",
            "cnn_tcn_lstm",
            "--target",
            "valence",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    folds = sorted((out / "cnn_tcn_lstm" / "valence").glob("fold_*.json"))
    assert len(folds) == 3  # one per subject
    payload = json.loads(folds[0].read_text())
    assert payload["metrics"]["accuracy"] >= 0.0
    assert (out / "report.json").exists()
    assert (out / "report.csv").exists()
    assert (out / "report.md").exists()


def test_loso_determinism_across_jobs(synth_dir, config_file, tmp_path):
    outputs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"loso_jobs{jobs}"
        code = main(
            [
                "loso",
                "--dataset",
                str(synth_dir),
                "--out",
                str(out),
                "--config",
                str(config_file),
                "--variant",
                "cnn",
                "--target",
                "valence,arousal",
                "--seed",
                "5",
                "--jobs",
                jobs,
            ]
        )
        assert code == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
    for fold_file in sorted(first.rglob("fold_*.json")):
        twin = second / fold_file.relative_to(first)
        assert fold_file.read_bytes() == twin.read_bytes()


def _loso(synth_dir, config_file, out, variants, targets="valence", jobs="1"):
    return main(
        ["loso", "--dataset", str(synth_dir), "--out", str(out), "--config", str(config_file),
         "--variant", variants, "--target", targets, "--seed", "3", "--jobs", jobs]
    )


def test_multi_variant_loso_matches_single_variant_runs(synth_dir, config_file, tmp_path):
    # one fold pool over (variant, target, fold) gives each variant the
    # same files as a run of that variant alone; a repeated name runs once
    both = tmp_path / "both"
    assert _loso(synth_dir, config_file, both, "cnn,cnn_tcn_lstm,cnn", "valence,arousal", "2") == 0
    for variant in ("cnn", "cnn_tcn_lstm"):
        alone = tmp_path / variant
        assert _loso(synth_dir, config_file, alone, variant, "valence,arousal") == 0
        folds = sorted(alone.rglob("fold_*.json"))
        assert len(folds) == 6
        for fold_file in folds:
            twin = both / fold_file.relative_to(alone)
            assert fold_file.read_bytes() == twin.read_bytes()
        single = json.loads((alone / "report.json").read_text())
        assert json.loads((both / "report.json").read_text())[variant] == single[variant]


def test_fold_record_is_the_fold_run(synth_dir, config_file, tmp_path):
    assert _loso(synth_dir, config_file, tmp_path / "loso", "cnn") == 0
    record = json.loads(next((tmp_path / "loso").rglob("fold_*.json")).read_text())
    assert set(record) == {f.name for f in fields(FoldRun)}
    assert set(record["metrics"]) == {f.name for f in fields(FoldMetrics)}
    assert set(record["train_log"]) == {f.name for f in fields(TrainLog)}
    assert (record["variant"], record["target"]) == ("cnn", "valence")


def test_loso_preprocesses_each_record_once(synth_dir, config_file, tmp_path, monkeypatch):
    calls = []
    original = evaluation.preprocess_record

    def counted(record, fspec, sspec):
        calls.append((record.subject_id, record.trial_id))
        return original(record, fspec, sspec)

    monkeypatch.setattr(evaluation, "preprocess_record", counted)
    assert _loso(synth_dir, config_file, tmp_path / "loso", "cnn,cnn_lstm", "valence,arousal") == 0
    records = load_canonical(synth_dir).records
    assert sorted(calls) == sorted((r.subject_id, r.trial_id) for r in records)


@pytest.mark.parametrize("variants, targets", [("cnn,bogus", "valence"), ("cnn", "valence,bogus")])
def test_loso_rejects_unknown_names_before_training(synth_dir, config_file, tmp_path, variants, targets):
    out = tmp_path / "loso"
    assert _loso(synth_dir, config_file, out, variants, targets) == 1
    assert not list(out.rglob("fold_*.json"))


def test_report_command_renders_table(tmp_path):
    def fold(subject, auc):
        return FoldMetrics(subject, 0.7, 0.5, 0.6, 0.55, 0.55, auc)

    reports = {
        "cnn_tcn_lstm": aggregate(
            {
                "valence": [fold("s1", 0.66), fold("s2", 0.66)],
                "arousal": [fold("s1", 0.69), fold("s2", 0.69)],
            }
        )
    }
    report_path = tmp_path / "report.json"
    save_reports(reports, report_path)
    out = tmp_path / "rendered"
    code = main(["report", "--report", str(report_path), "--out", str(out)])
    assert code == 0
    csv = (out / "report.csv").read_text()
    average_row = [l for l in csv.splitlines() if l.startswith("average")][0]
    assert average_row.endswith("0.68")


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--cases", "2"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2


def test_validation_failure_exit_code(tmp_path):
    code = main(["loso", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert code == 1


def test_train_flag_overrides_are_validated_together(synth_dir, config_file, tmp_path):
    # the config file sets max_epochs=4, patience=2: lowering max_epochs to 2
    # is only valid together with the lower patience from the same command
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(synth_dir), "--out", str(out), "--config",
            str(config_file), "--variant", "cnn", "--val-subjects", "S03",
            "--max-epochs", "2", "--patience", "1"]
    assert main(argv) == 0
    echoed = json.loads((out / "run_config.json").read_text())
    assert (echoed["train"]["max_epochs"], echoed["train"]["patience"]) == (2, 1)
    assert main([*argv[:-2], "--patience", "2"]) == 1


# train options that no longer exist: the seed and target come from the top
# level or from flags, and Adam's constants are fixed
REMOVED_TRAIN_OPTIONS = {
    "reweight_per_batch": True,
    "seed": 123,
    "target": "valence",
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-8,
}


@pytest.mark.parametrize("option", REMOVED_TRAIN_OPTIONS)
def test_config_file_with_removed_train_option_is_rejected(tmp_path, option):
    # a file that still sets one fails loudly
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {option: REMOVED_TRAIN_OPTIONS[option]}}))
    with pytest.raises(ConfigError, match="bad 'train' section"):
        resolve_run_config(argparse.Namespace(config=str(path), seed=None))


def test_loso_echo_keeps_seed_and_target_out_of_train(synth_dir, config_file, tmp_path):
    out = tmp_path / "loso"
    argv = ["loso", "--dataset", str(synth_dir), "--out", str(out), "--config",
            str(config_file), "--variant", "cnn", "--target", "arousal", "--seed", "9"]
    assert main(argv) == 0
    echoed = json.loads((out / "run_config.json").read_text())
    assert set(echoed["train"]) == set(CONFIG["train"]) | {"learning_rate", "val_fraction_subjects"}
    assert (echoed["seed"], echoed["targets"]) == (9, ["arousal"])


BAD_RUNS = [
    ("loso", "joy", 60.0, 10.0, "target must be one of"),
    ("train", "joy", 60.0, 10.0, "target must be one of"),
    ("loso", "valence", 30.0, 10.0, "input_len 600 does not match the 300-sample window"),
    ("train", "valence", 30.0, 10.0, "input_len 600 does not match the 300-sample window"),
    ("loso", "valence", 60.0, 20.0, "filter fs_hz 20.0 does not match the segmenter's fs_hz 10.0"),
    ("train", "valence", 60.0, 20.0, "filter fs_hz 20.0 does not match the segmenter's fs_hz 10.0"),
    ("preprocess", None, 60.0, 20.0, "filter fs_hz 20.0 does not match the segmenter's fs_hz 10.0"),
]


@pytest.mark.parametrize(
    "command, target, window_s, filter_hz, message",
    BAD_RUNS,
    # the message names the filter rate, so the id leaves it out
    ids=[f"{c}-{t}-{w}-{m}" for c, t, w, _, m in BAD_RUNS],
)
def test_bad_run_fails_before_preprocessing(
    synth_dir, tmp_path, monkeypatch, capsys, command, target, window_s, filter_hz, message
):
    calls = []
    for module in (evaluation, cli):
        monkeypatch.setattr(module, "preprocess_record", lambda *args: calls.append(args))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        **CONFIG,
        "filter": {**CONFIG["filter"], "fs_hz": filter_hz},
        "segmenter": {**CONFIG["segmenter"], "window_s": window_s},
    }))
    argv = [command, "--dataset", str(synth_dir), "--out", str(tmp_path / "out"), "--config",
            str(path)]
    if command != "preprocess":  # preprocess takes no variant or target
        argv += ["--variant", "cnn", "--target", target]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not calls
    # nothing, not even a run_config.json, records a run that never started
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, file_values, message",
    [
        (["--jobs", "-3"], {}, "jobs must be an integer >= 1, got -3"),
        (["--jobs", "0"], {}, "jobs must be an integer >= 1, got 0"),
        ([], {"jobs": "2"}, "jobs must be an integer >= 1, got '2'"),
        ([], {"seed": "abc"}, "seed must be an integer, got 'abc'"),
        ([], {"variant": ["cnn"]}, "'variant' must be a comma-separated string, got ['cnn']"),
        ([], {"target": ["valence"]}, "'target' must be a comma-separated string"),
        ([], {"model": {**CONFIG["model"], "lstm_units": 4.5}},
         "lstm_units must be an integer >= 1, got 4.5"),
    ],
)
def test_bad_run_setting_fails_before_anything_is_written(
    synth_dir, tmp_path, capsys, flags, file_values, message
):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIG, **file_values}))
    argv = ["loso", "--dataset", str(synth_dir), "--out", str(tmp_path / "out"), "--config",
            str(path), *flags]
    assert main(argv) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("{bad", "cannot read config file {path}: "),
        ("[1,2]", "config file {path} must hold a JSON object"),
        ('{"train": [1]}', "'train' section in config file {path} must be an object"),
        ('{"filter": 3}', "'filter' section in config file {path} must be an object"),
    ],
    ids=["not-json", "not-an-object", "train-not-an-object", "filter-not-an-object"],
)
def test_malformed_config_file_fails_with_a_message(synth_dir, tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    argv = ["loso", "--dataset", str(synth_dir), "--out", str(tmp_path / "out"), "--config",
            str(path)]
    assert main(argv) == 1
    assert message.format(path=path) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content",
    [None, json.dumps({"cnn": {"folds": {}, "average": None}})],
    ids=["missing-file", "no-means"],
)
def test_unreadable_report_fails_with_a_message(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"error: cannot read report file {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["preprocess", "train", "loso"])
def test_run_without_a_dataset_fails_before_anything_is_written(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path / "out")]) == 1
    assert f"{command} needs --dataset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--exclude-subjects", "--val-subjects"])
def test_train_rejects_an_unknown_subject(synth_dir, config_file, tmp_path, capsys, flag):
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(synth_dir), "--out", str(out), "--config",
            str(config_file), "--variant", "cnn", flag, "S01,S9"]
    assert main(argv) == 1
    assert f"{flag} not in dataset: ['S9']" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # scipy.signal takes most of the CLI's import time; only filtering needs it
    code = "import sys, ppgemo.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
