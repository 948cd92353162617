"""Command-line entry point.

Subcommands: synth, import-ppge, preprocess, train, loso, report,
gradcheck. preprocess, train and loso write asdict(RunConfig) to
<out>/run_config.json, a config file that reruns the run. Exit codes: 0
success, 1 domain/validation failure or an output that cannot be written,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import data as data_io
from . import evaluation as ev
from .errors import ConfigError, DataError, PpgEmoError, check_count
from .models import ModelConfig, model_config_from_dict, model_config_to_dict
from .nn.gradcheck import run_suite
from .signals import FilterSpec, SegmenterSpec, preprocess_record
from .training import TrainConfig, make_validation_split

# TrainConfig fields that `train` and `loso` also take as flags, with their types
TRAIN_FLAGS = {"max_epochs": int, "batch_size": int, "patience": int, "learning_rate": float}


@dataclass(frozen=True)
class RunConfig:
    """Effective configuration of one run; its fields are the config file's top-level keys."""

    filter: FilterSpec
    segmenter: SegmenterSpec
    model: ModelConfig
    train: TrainConfig
    dataset: str
    out_dir: str
    variant: str  # comma-separated names, as the config file and flags give them
    target: str
    seed: int
    jobs: int
    # train's subject split, comma-separated ids; "" leaves it to the seed
    val_subjects: str = ""
    exclude_subjects: str = ""

    def __post_init__(self):
        lists = ("variant", "target", "val_subjects", "exclude_subjects")
        for name in ("dataset", "out_dir", *lists):
            if not isinstance(getattr(self, name), str):
                kind = "a comma-separated string" if name in lists else "a string"
                raise ConfigError(f"'{name}' must be {kind}, got {getattr(self, name)!r}")
        for name in lists[2:]:
            try:
                for subject in _ids(getattr(self, name)):
                    data_io.check_subject_id(subject)
            except DataError as exc:
                raise ConfigError(f"'{name}': {exc}") from None
        check_count("seed", self.seed, least=0)
        check_count("jobs", self.jobs)
        # checked here, where both specs meet, so every command checks it
        f, s = self.filter.fs_hz, self.segmenter.fs_hz
        if f != s:
            raise ConfigError(f"filter fs_hz {f} does not match the segmenter's fs_hz {s}")

    @property
    def variants(self) -> tuple[str, ...]:
        return tuple(self.variant.split(","))

    @property
    def targets(self) -> tuple[str, ...]:
        return tuple(self.target.split(","))


def _ids(names: str) -> list[str]:
    """The ids of a comma-separated list; "" holds none."""
    return names.split(",") if names else []


def _make(cls, d: dict, section: str):
    try:
        return cls(**d)
    except TypeError as exc:
        raise ConfigError(f"bad '{section}' section in config file: {exc}") from None


def resolve_run_config(args) -> RunConfig:
    """Defaults, overridden by the JSON config file, overridden by flags."""
    file_cfg = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        try:
            file_cfg = json.loads(path.read_text())
        except (OSError, ValueError) as exc:  # missing, unreadable, or not JSON
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(file_cfg) - {f.name for f in fields(RunConfig)})
        if unknown:
            raise ConfigError(f"config file {path} has unknown key(s) {unknown}")
        for name in ("filter", "segmenter", "model", "train"):
            if not isinstance(file_cfg.get(name, {}), dict):
                raise ConfigError(f"'{name}' section in config file {path} must be an object")

    fspec = _make(FilterSpec, file_cfg.get("filter", {}), "filter")
    sspec = _make(SegmenterSpec, file_cfg.get("segmenter", {}), "segmenter")
    model = {**model_config_to_dict(ModelConfig()), **file_cfg.get("model", {})}
    mcfg = model_config_from_dict(model)
    # flags and file values make one TrainConfig, so fields that constrain each
    # other (patience < max_epochs) are validated together
    flags = {name: getattr(args, name, None) for name in TRAIN_FLAGS}
    train = {**file_cfg.get("train", {}), **{k: v for k, v in flags.items() if v is not None}}
    tcfg = _make(TrainConfig, train, "train")

    seed = args.seed if args.seed is not None else file_cfg.get("seed", 0)
    jobs = getattr(args, "jobs", None)
    jobs = file_cfg.get("jobs", 1) if jobs is None else jobs
    dataset = getattr(args, "dataset", None) or file_cfg.get("dataset")
    if not dataset:
        raise ConfigError(f"{args.command} needs --dataset (or 'dataset' in the config file)")
    out_dir = getattr(args, "out", None) or file_cfg.get("out_dir", "out")
    variant = getattr(args, "variant", None) or file_cfg.get("variant", mcfg.variant)
    target = getattr(args, "target", None) or file_cfg.get("target", "valence")
    split = {}
    for name in ("val_subjects", "exclude_subjects"):
        value = getattr(args, name, None)
        split[name] = file_cfg.get(name, "") if value is None else value

    return RunConfig(fspec, sspec, mcfg, tcfg, dataset, out_dir, variant, target, seed, jobs, **split)


def _check_out(path) -> Path:
    """`path` as a Path, once it is known that a command can write there: it
    is a directory, or the nearest of its ancestors that exists is one.
    Nothing is created, so a run rejected later still leaves no directory."""
    path = Path(path)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write {path}: {existing} is not a directory")
    return path


def _dump_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def _write_tables(reports, out: Path) -> None:
    """Write report.csv and report.md under `out` and print the markdown."""
    markdown = ev.render_markdown(reports)
    (out / "report.csv").write_text(ev.render_csv(reports))
    (out / "report.md").write_text(markdown)
    print(markdown)


# -- subcommands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = data_io.SynthSpec(
        n_subjects=args.subjects,
        trials_per_subject=args.trials,
        duration_s=args.duration,
        fs_hz=args.fs,
        seed=args.seed,
    )
    out = _check_out(args.out)
    dataset = data_io.synth_dataset(spec)
    data_io.save_canonical(dataset, out)
    _dump_json(out / "run_config.json", {"synth": asdict(spec)})
    print(f"wrote {len(dataset.records)} records to {out}")
    return 0


def cmd_import_ppge(args) -> int:
    out = _check_out(args.out)
    dataset = data_io.import_ppge(args.raw, out, threshold=args.threshold, fs_hz=args.fs)
    settings = {"raw": args.raw, "threshold": args.threshold, "fs_hz": args.fs}
    _dump_json(out / "run_config.json", {"import": settings})
    print(f"imported {len(dataset.records)} records from {len(dataset.subjects)} subjects")
    return 0


def cmd_preprocess(args) -> int:
    cfg = resolve_run_config(args)
    out = _check_out(cfg.out_dir)
    dataset = data_io.load_canonical(cfg.dataset)
    segments = []
    skipped = 0
    per_record = []
    for record in dataset.records:
        segs = preprocess_record(record, cfg.filter, cfg.segmenter)
        if not segs:
            skipped += 1
        per_record.append(
            {"subject_id": record.subject_id, "trial_id": record.trial_id, "segments": len(segs)}
        )
        segments.extend(segs)

    # made only now, so a record that fails to preprocess leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    if segments:
        np.savez(
            out / "segments.npz",
            samples=np.stack([s.samples for s in segments]),
            subject_id=np.array([s.subject_id for s in segments]),
            trial_id=np.array([s.trial_id for s in segments]),
            valence=np.array([s.valence for s in segments]),
            arousal=np.array([s.arousal for s in segments]),
        )
    _dump_json(
        out / "summary.json",
        {
            "n_records": len(dataset.records),
            "n_segments": len(segments),
            "n_records_skipped": skipped,
            "per_record": per_record,
        },
    )
    _dump_json(out / "run_config.json", asdict(cfg))
    print(f"{len(segments)} segments from {len(dataset.records)} records ({skipped} skipped)")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_run_config(args)
    out = _check_out(cfg.out_dir)
    if len(cfg.variants) != 1 or len(cfg.targets) != 1:
        raise ConfigError("train runs exactly one variant and one target")
    configs, (target,) = ev.check_run(cfg.model, cfg.segmenter, cfg.variants, cfg.targets)
    mcfg = configs[cfg.variants[0]]
    dataset = data_io.load_canonical(cfg.dataset)
    excluded = set(_ids(cfg.exclude_subjects))
    unknown = excluded - set(dataset.subjects)
    if unknown:
        raise ConfigError(f"'exclude_subjects' not in dataset: {sorted(unknown)}")

    records = [r for r in dataset.records if r.subject_id not in excluded]
    by_subject = ev.segments_by_subject(records, cfg.filter, cfg.segmenter)
    subjects = sorted(by_subject)
    if cfg.val_subjects:
        val = sorted(set(_ids(cfg.val_subjects)))
        unknown = set(val) - set(subjects)
        if unknown:
            raise ConfigError(f"'val_subjects' not in dataset: {sorted(unknown)}")
        fit = [s for s in subjects if s not in val]
        if not fit:
            raise ConfigError("no training subjects left after the validation split")
    else:
        fit, val = make_validation_split(subjects, cfg.train, cfg.seed)

    model, tlog = ev.fit_model(by_subject, fit, val, mcfg, cfg.train, cfg.seed, target)

    # made only now, so a run that fails in training leaves no directory
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "train.json", dict(fit_subjects=fit, val_subjects=val, train_log=asdict(tlog)))
    model.save(out / "model.json")
    _dump_json(out / "run_config.json", asdict(cfg))
    print(
        f"trained {mcfg.variant} on {sum(len(by_subject[s]) for s in fit)} segments; best epoch "
        f"{tlog.best_epoch} (val_acc {tlog.val_acc[tlog.best_epoch - 1]:.3f})"
    )
    return 0


def cmd_loso(args) -> int:
    cfg = resolve_run_config(args)
    out = _check_out(cfg.out_dir)
    for name in ("val_subjects", "exclude_subjects"):
        if getattr(cfg, name):
            raise ConfigError(f"loso does not take '{name}': each fold makes its own split")
    ev.check_run(cfg.model, cfg.segmenter, cfg.variants, cfg.targets)
    dataset = data_io.load_canonical(cfg.dataset)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "run_config.json", asdict(cfg))

    runs = ev.run_loso(
        dataset, cfg.filter, cfg.segmenter, cfg.model, cfg.train, cfg.variants, cfg.targets,
        cfg.seed, jobs=cfg.jobs
    )
    for run in runs:
        fold_dir = out / run.variant / run.target
        fold_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(fold_dir / f"fold_{run.test_subject}.json", asdict(run))
    reports = {
        v: ev.aggregate(
            {t: [r.metrics for r in runs if (r.variant, r.target) == (v, t)] for t in cfg.targets}
        )
        for v in cfg.variants
    }

    ev.save_reports(reports, out / "report.json")
    _write_tables(reports, out)
    return 0


def cmd_report(args) -> int:
    out = _check_out(args.out)
    reports = ev.load_reports(args.report)
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "run_config.json", {"report": str(args.report)})
    _write_tables(reports, out)
    return 0


def cmd_gradcheck(args) -> int:
    results = run_suite(cases_per_layer=args.cases, seed=args.seed)
    failed = False
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{r.name:<30} cases={r.cases:<3} max_rel_err={r.max_rel_err:.3e}  {status}")
        failed |= not r.ok
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppgemo",
        description="PPG emotion classification: preprocessing, training, LOSO evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def train_flags(p):
        for name, kind in TRAIN_FLAGS.items():
            p.add_argument("--" + name.replace("_", "-"), dest=name, type=kind, default=None)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dataset", help="canonical dataset directory")

    p = sub.add_parser("synth", help="generate a synthetic canonical dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--trials", type=int, default=4)
    p.add_argument("--duration", type=float, default=120.0, help="seconds per trial")
    p.add_argument("--fs", type=float, default=100.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("import-ppge", help="convert a raw study directory to canonical form")
    p.add_argument("--raw", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=5.0, help="rating >= threshold maps to 1")
    p.add_argument("--fs", type=float, default=100.0)
    p.set_defaults(func=cmd_import_ppge)

    p = sub.add_parser("preprocess", help="filter, window, and standardize a dataset")
    common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train one variant on an explicit subject split")
    common(p)
    p.add_argument("--variant", help="cnn | cnn_lstm | cnn_tcn_lstm")
    p.add_argument("--target", help="valence | arousal")
    p.add_argument("--val-subjects", dest="val_subjects", help="comma-separated validation subjects")
    p.add_argument("--exclude-subjects", dest="exclude_subjects", help="subjects to drop entirely")
    train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("loso", help="leave-one-subject-out evaluation")
    common(p)
    p.add_argument("--variant", help="comma-separated list of variants")
    p.add_argument("--target", help="comma-separated list of targets")
    p.add_argument("--jobs", type=int, default=None, help="concurrent folds")
    train_flags(p)
    p.set_defaults(func=cmd_loso)

    p = sub.add_parser("report", help="render an existing report as CSV and markdown")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--cases", type=int, default=20, help="random cases per layer family")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PpgEmoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # the commands' reads raise their own errors
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
