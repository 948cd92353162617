import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from ppgemo import cli, evaluation
from ppgemo.cli import RunConfig, main, resolve_run_config
from ppgemo.errors import ConfigError
from ppgemo.data import Dataset, load_canonical, save_canonical
from ppgemo.evaluation import FoldMetrics, FoldRun, aggregate, save_reports
from ppgemo.models import build
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
    record = json.loads((out / "train.json").read_text())
    assert (record["fit_subjects"], record["val_subjects"]) == (["S01", "S02"], ["S03"])
    assert set(record["train_log"]) == {f.name for f in fields(TrainLog)}
    assert record["train_log"]["stop_epoch"] <= 4
    assert (out / "model.json").exists()
    echoed = json.loads((out / "run_config.json").read_text())
    assert set(echoed) == {f.name for f in fields(RunConfig)}


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


def test_loso_rejects_a_subject_id_that_cannot_name_a_file(
    synth_dir, config_file, tmp_path, capsys
):
    manifest = synth_dir / "manifest.csv"
    manifest.write_text(manifest.read_text().replace("S03,", "S/03,"))
    out = tmp_path / "loso"
    assert _loso(synth_dir, config_file, out, "cnn") == 1
    message = "row 6: subject_id must be non-empty, without '/' or ',', got 'S/03'"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_single_class_subject_and_short_record_through_the_cli(tmp_path):
    # S01's trials all share one label, so its folds have no AUC; one of
    # S02's two class-0 trials is cut below one 600-sample window, so it has
    # no segments and S02 keeps both classes
    source = tmp_path / "synth"
    assert main(["synth", "--out", str(source), "--subjects", "4", "--trials", "3",
                 "--duration", "65", "--fs", "10", "--seed", "4"]) == 0
    records = []
    short = None
    for r in load_canonical(source).records:
        if r.subject_id == "S01":
            r = replace(r, valence=1, arousal=1)
        elif r.subject_id == "S02" and r.valence == 0 and short is None:
            short = (r.subject_id, r.trial_id)
            r = replace(r, samples=r.samples[:500])
        records.append(r)
    dataset = tmp_path / "data"
    save_canonical(Dataset("edge", records), dataset)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))

    pre = tmp_path / "pre"
    assert main(["preprocess", "--dataset", str(dataset), "--out", str(pre),
                 "--config", str(config)]) == 0
    summary = json.loads((pre / "summary.json").read_text())
    assert (summary["n_records"], summary["n_segments"], summary["n_records_skipped"]) == (12, 11, 1)
    counts = {(r["subject_id"], r["trial_id"]): r["segments"] for r in summary["per_record"]}
    assert [key for key, n in counts.items() if n == 0] == [short]

    out = tmp_path / "loso"
    assert _loso(dataset, config, out, "cnn", "valence,arousal", "2") == 0
    report = json.loads((out / "report.json").read_text())["cnn"]
    for target in ("valence", "arousal"):
        folds = [json.loads((out / "cnn" / target / f"fold_S0{i}.json").read_text())["metrics"]
                 for i in range(1, 5)]
        assert folds[0]["auc"] is None
        defined = [f["auc"] for f in folds[1:]]
        assert None not in defined
        assert report["means"][target]["auc"] == float(np.mean(defined))


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
    assert (echoed["seed"], echoed["target"]) == (9, "arousal")


# each run, then its rerun from <out>/run_config.json with only --out changed
RERUNS = {
    "loso": ["loso", "--variant", "cnn,cnn_lstm", "--target", "arousal", "--jobs", "2"],
    "train": ["train", "--variant", "cnn", "--target", "arousal"],
    # seed 3 alone would fit S01 and S02 and validate on S03: the rerun must keep this split
    "train-split": ["train", "--variant", "cnn", "--val-subjects", "S01", "--exclude-subjects", "S02"],
}


@pytest.mark.parametrize("run", RERUNS)
def test_rerun_from_run_config_writes_the_same_files(synth_dir, config_file, tmp_path, run):
    first, second = tmp_path / "first", tmp_path / "second"
    command = RERUNS[run][0]
    assert main([*RERUNS[run], "--dataset", str(synth_dir), "--config", str(config_file),
                 "--out", str(first), "--seed", "3"]) == 0
    assert main([command, "--config", str(first / "run_config.json"), "--out", str(second)]) == 0
    written = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    for rel in written:
        if rel.name != "run_config.json":
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
    echoed = [json.loads((out / "run_config.json").read_text()) for out in (first, second)]
    assert {key for key in echoed[0] if echoed[0][key] != echoed[1][key]} == {"out_dir"}


def test_train_rejects_a_non_string_out_dir_before_training(
    synth_dir, config_file, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(evaluation, "fit_model", lambda *args: pytest.fail("trained"))
    config_file.write_text(json.dumps({**CONFIG, "out_dir": 5}))
    argv = ["train", "--dataset", str(synth_dir), "--config", str(config_file)]
    assert main(argv) == 1
    assert "error: 'out_dir' must be a string, got 5" in capsys.readouterr().err
    assert not (tmp_path / "5").exists()


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
        ([], {"seed": "abc"}, "seed must be an integer >= 0, got 'abc'"),
        ([], {"variant": ["cnn"]}, "'variant' must be a comma-separated string, got ['cnn']"),
        ([], {"target": ["valence"]}, "'target' must be a comma-separated string"),
        ([], {"model": {**CONFIG["model"], "lstm_units": 4.5}},
         "lstm_units must be an integer >= 1, got 4.5"),
        (["--learning-rate", "nan"], {},
         "error: learning_rate must be a number in (0, inf), got nan"),
        ([], {"train": {**CONFIG["train"], "learning_rate": True}},
         "error: learning_rate must be a number in (0, inf), got True"),
        (["--seed", "-1"], {}, "error: seed must be an integer >= 0, got -1"),
        ([], {"jobs": 2, "gpus": 1}, "has unknown key(s) ['gpus']"),
        # the layout run_config.json had before it was a config file
        ([], {"variants": ["cnn"], "targets": ["arousal"]},
         "has unknown key(s) ['targets', 'variants']"),
        # train's split: loso makes one per fold, and ids must name subjects
        ([], {"val_subjects": "S01"}, "error: loso does not take 'val_subjects'"),
        ([], {"exclude_subjects": "S02"}, "error: loso does not take 'exclude_subjects'"),
        ([], {"val_subjects": ["S01"]}, "'val_subjects' must be a comma-separated string"),
        ([], {"exclude_subjects": "S01,"},
         "error: 'exclude_subjects': subject_id must be non-empty, without '/' or ','"),
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


DATA_COMMAND_FAILURES = {
    "synth-duration-nan": (
        ["synth", "--out", "{out}", "--duration", "nan"],
        {},
        "error: duration_s must be a number in [60, inf), got nan",
    ),
    "synth-samples-overflow": (
        ["synth", "--out", "{out}", "--duration", "1e308", "--fs", "100"],
        {},
        "error: duration_s * fs_hz must be a number in [2, inf), got inf",
    ),
    "synth-no-sample": (
        ["synth", "--out", "{out}", "--duration", "60", "--fs", "0.001"],
        {},
        "error: duration_s * fs_hz must be a number in [2, inf), got 0.06",
    ),
    "synth-one-sample": (
        ["synth", "--out", "{out}", "--duration", "60", "--fs", "0.02"],
        {},
        "error: duration_s * fs_hz must be a number in [2, inf), got 1.2",
    ),
    "synth-seed-negative": (
        ["synth", "--out", "{out}", "--seed", "-1"],
        {},
        "error: seed must be an integer >= 0, got -1",
    ),
    "train-seed-negative": (
        ["train", "--dataset", "{data}", "--config", "{config}", "--out", "{out}", "--seed", "-1"],
        {},
        "error: seed must be an integer >= 0, got -1",
    ),
    "gradcheck-seed-negative": (
        ["gradcheck", "--seed", "-1"],
        {},
        "error: seed must be an integer >= 0, got -1",
    ),
    "gradcheck-no-cases": (
        ["gradcheck", "--cases", "0"],
        {},
        "error: cases must be an integer >= 1, got 0",
    ),
    "gradcheck-negative-cases": (
        ["gradcheck", "--cases", "-3"],
        {},
        "error: cases must be an integer >= 1, got -3",
    ),
    "import-threshold-nan": (
        ["import-ppge", "--raw", "{raw}", "--out", "{out}", "--threshold", "nan"],
        {},
        "error: threshold must be a number in (1, 9], got nan",
    ),
    "preprocess-overlap-nan": (
        ["preprocess", "--dataset", "{data}", "--config", "{config}", "--out", "{out}"],
        {"segmenter": {**CONFIG["segmenter"], "overlap_s": math.nan}},
        "error: overlap_s must be a number in [0, 60.0), got nan",
    ),
    # both specs agree on 20 Hz, so only the 10 Hz records disagree
    "preprocess-rate-mismatch": (
        ["preprocess", "--dataset", "{data}", "--config", "{config}", "--out", "{out}"],
        {
            "filter": {**CONFIG["filter"], "fs_hz": 20.0},
            "segmenter": {**CONFIG["segmenter"], "fs_hz": 20.0},
        },
        "error: record S01/trial 1 sampled at 10.0 Hz",
    ),
}


@pytest.mark.parametrize("case", DATA_COMMAND_FAILURES)
def test_bad_data_setting_fails_before_anything_is_written(synth_dir, tmp_path, capsys, case):
    argv, file_values, message = DATA_COMMAND_FAILURES[case]
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "ratings.csv").write_text("subject_id,trial_id,valence,arousal\nS01,1,3,7\n")
    (raw / "S01_1.csv").write_text("0.5\n-0.5\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**CONFIG, **file_values}))
    paths = {"out": tmp_path / "out", "raw": raw, "data": synth_dir, "config": config}
    assert main([arg.format(**paths) for arg in argv]) == 1
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


def test_loso_diverged_run_fails_before_writing_results(
    synth_dir, config_file, tmp_path, monkeypatch, capsys
):
    def planted(config, rng):
        model = build(config, rng)
        model.params()["trunk.conv1.W"][0, 0, 0] = np.nan
        return model

    monkeypatch.setattr(evaluation, "build", planted)
    out = tmp_path / "loso"
    argv = ["loso", "--dataset", str(synth_dir), "--out", str(out), "--config",
            str(config_file), "--variant", "cnn", "--target", "valence", "--jobs", "2"]
    assert main(argv) == 1
    assert (
        "error: cnn valence, test subject S01: training diverged: non-finite gradient "
        "trunk.conv1.W (loss nan) at epoch 1, batch 1"
    ) in capsys.readouterr().err
    assert not list(out.rglob("fold_*.json"))
    assert not list(out.glob("report.*"))


@pytest.mark.parametrize(
    "subjects, one_class, message",
    [
        # S01 holds only class 1; testing S02 leaves it alone in the fit set
        (3, "S01", "error: cnn valence, test subject S02: class 0 absent from labels; "
                   "cannot train on one class"),
        (2, None, "error: cnn valence, test subject S01: need at least 2 training subjects "
                  "to split, got 1"),
    ],
    ids=["one-class-fit-set", "two-subjects"],
)
def test_loso_fold_failure_names_its_fold(
    tmp_path, config_file, capsys, subjects, one_class, message
):
    source = tmp_path / "synth"
    assert main(["synth", "--out", str(source), "--subjects", str(subjects), "--trials", "2",
                 "--duration", "65", "--fs", "10", "--seed", "4"]) == 0
    records = [replace(r, valence=1, arousal=1) if r.subject_id == one_class else r
               for r in load_canonical(source).records]
    dataset = tmp_path / "data"
    save_canonical(Dataset("edge", records), dataset)
    out = tmp_path / "loso"
    assert _loso(dataset, config_file, out, "cnn") == 1
    assert message in capsys.readouterr().err
    assert not list(out.rglob("fold_*.json"))


def test_train_diverged_run_leaves_no_output_directory(
    synth_dir, config_file, tmp_path, monkeypatch, capsys
):
    def planted(config, rng):
        model = build(config, rng)
        model.params()["trunk.conv1.W"][0, 0, 0] = np.nan
        return model

    monkeypatch.setattr(evaluation, "build", planted)
    out = tmp_path / "train"
    argv = ["train", "--dataset", str(synth_dir), "--out", str(out), "--config",
            str(config_file), "--variant", "cnn", "--target", "valence"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: training diverged: non-finite gradient trunk.conv1.W (loss nan) "
        "at epoch 1, batch 1\n"
    )
    assert not out.exists()


ROW = dict.fromkeys(evaluation.METRIC_FIELDS, 0.5)


def _report(**fields):
    return json.dumps({"cnn": {"folds": {}, "means": {"valence": ROW}, "average": None, **fields}})


@pytest.mark.parametrize(
    "content",
    [
        None,
        json.dumps({"cnn": {"folds": {}, "average": None}}),
        _report(means=5),
        _report(means={"valence": 5}),
        _report(average=5),
        _report(means={"valence": {k: v for k, v in ROW.items() if k != "f1_class0"}}),
    ],
    ids=["missing-file", "no-means", "means-not-an-object", "means-row-not-an-object",
         "average-not-an-object", "means-row-without-f1_class0"],
)
def test_unreadable_report_fails_with_a_message(tmp_path, capsys, content):
    path = tmp_path / "report.json"
    if content is not None:
        path.write_text(content)
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"error: cannot read report file {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["folds", "means"])
def test_report_with_an_unknown_target_fails_naming_file_and_key(tmp_path, capsys, section):
    entry = {"folds": {"valence": []}, "means": {"valence": ROW}, "average": None}
    entry[section]["joy"] = entry[section].pop("valence")
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"cnn": entry}))
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot read report file {path}" in err
    assert "target must be one of ('valence', 'arousal'), got 'joy'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["preprocess", "train", "loso"])
def test_run_without_a_dataset_fails_before_anything_is_written(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path / "out")]) == 1
    assert f"{command} needs --dataset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--exclude-subjects", "--val-subjects"])
def test_train_rejects_an_unknown_subject(synth_dir, tmp_path, capsys, flag):
    # the error names the RunConfig key, whether the ids came from its flag
    # or from the config file
    key = flag[2:].replace("-", "_")
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(synth_dir), "--out", str(out), "--variant", "cnn"]
    for config, extra in (({}, [flag, "S01,S9"]), ({key: "S01,S9"}, [])):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**CONFIG, **config}))
        assert main(argv + ["--config", str(path)] + extra) == 1
        assert f"error: '{key}' not in dataset: ['S9']" in capsys.readouterr().err
        assert not out.exists()


# each writing command's argv before --out, and the call that starts its work
WRITERS = {
    "synth": (["synth"], (cli.data_io, "synth_dataset")),
    "import-ppge": (["import-ppge", "--raw", "raw"], (cli.data_io, "import_ppge")),
    "preprocess": (["preprocess"], (cli, "preprocess_record")),
    "train": (["train", "--variant", "cnn"], (evaluation, "fit_model")),
    "loso": (["loso", "--variant", "cnn"], (evaluation, "run_loso")),
    "report": (["report", "--report", "report.json"], (evaluation, "load_reports")),
}


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("command", sorted(WRITERS))
def test_unusable_output_path_fails_by_name_before_the_work(
    command, under, synth_dir, config_file, tmp_path, monkeypatch, capsys
):
    argv, (module, work) = WRITERS[command]

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(module, work, forbidden)
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = blocker / "sub" if under else blocker
    if command in ("preprocess", "train", "loso"):
        argv = argv + ["--dataset", str(synth_dir), "--config", str(config_file)]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "a file\n"


def test_a_failed_write_fails_by_name(tmp_path, capsys):
    out = tmp_path / "data"
    (out / "run_config.json").mkdir(parents=True)
    argv = ["synth", "--out", str(out), "--subjects", "2", "--trials", "1", "--duration", "65",
            "--fs", "10"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / 'run_config.json'}: Is a directory\n"


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # scipy.signal takes most of the CLI's import time; only filtering needs it
    code = "import sys, ppgemo.cli; print('scipy.signal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_importing_ppgemo_pins_one_blas_thread_unless_set(preset, expected):
    code = "import os, ppgemo; print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [expected, "1"]
