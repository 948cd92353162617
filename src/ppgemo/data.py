"""Dataset handling: canonical on-disk format, raw-study importer, and a
synthetic pulse-signal generator; and `atomic_open`, through which the
package writes its JSON and text outputs.

Canonical layout (the only format the rest of the package reads):

    <dir>/manifest.csv        columns: subject_id, trial_id, fs_hz,
                              valence, arousal, signal_file
    <dir>/signals/*.txt       one numeric sample per line, referenced by
                              the manifest's signal_file column

Labels in the canonical format are strictly binary; rating-scale
conversion happens in the importer and nowhere else.
"""

from __future__ import annotations

import contextlib
import csv
import json
import logging
import math
import os
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, check_count, check_real

log = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.csv"
MANIFEST_COLUMNS = ("subject_id", "trial_id", "fs_hz", "valence", "arousal", "signal_file")
SIGNALS_DIR = "signals"

# Shortest record the generator may emit: one default analysis window.
MIN_SYNTH_WINDOW_S = 60.0


def check_subject_id(subject_id: str) -> None:
    """A subject id names files and is an item of the CLI's comma-separated lists."""
    if not subject_id or "/" in subject_id or "," in subject_id:
        raise DataError(f"subject_id must be non-empty, without '/' or ',', got {subject_id!r}")


@dataclass
class PpgRecord:
    """One trial's raw samples with identity and binary labels."""

    subject_id: str
    trial_id: int
    fs_hz: float
    samples: np.ndarray
    valence: int
    arousal: int

    def __post_init__(self):
        check_subject_id(self.subject_id)
        if not 0 < self.fs_hz < math.inf:
            raise DataError(f"fs_hz must be positive and finite, got {self.fs_hz}")
        if self.trial_id < 1:
            raise DataError(f"trial_id must be >= 1, got {self.trial_id}")
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError(
                f"{self.subject_id}/trial {self.trial_id}: samples must be a "
                f"non-empty 1-d sequence"
            )
        bad = ~np.isfinite(self.samples)
        if bad.any():
            raise DataError(
                f"{self.subject_id}/trial {self.trial_id}: non-finite sample "
                f"at index {int(np.argmax(bad))}"
            )
        for name in ("valence", "arousal"):
            v = getattr(self, name)
            if v not in (0, 1):
                raise DataError(
                    f"{self.subject_id}/trial {self.trial_id}: {name} must be "
                    f"0 or 1, got {v}"
                )


@dataclass
class Dataset:
    name: str
    records: list[PpgRecord]

    def __post_init__(self):
        seen = set()
        for r in self.records:
            key = (r.subject_id, r.trial_id)
            if key in seen:
                raise DataError(f"duplicate record for (subject, trial) = {key}")
            seen.add(key)

    @property
    def subjects(self) -> list[str]:
        return sorted({r.subject_id for r in self.records})


# -- output files ----------------------------------------------------------------


@contextlib.contextmanager
def atomic_open(path):
    """A text file, open for writing, that replaces `path` when the block
    ends without an error: it is written under a temporary name in the same
    directory and moved over `path` by os.replace, so `path` holds either
    its old bytes or all the new ones. On an error the temporary file is
    removed, and an OSError that named it names `path` instead."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


# -- canonical format ------------------------------------------------------------


def save_canonical(dataset: Dataset, path) -> None:
    root = Path(path)
    (root / SIGNALS_DIR).mkdir(parents=True, exist_ok=True)
    with open(root / MANIFEST_NAME, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for r in sorted(dataset.records, key=lambda r: (r.subject_id, r.trial_id)):
            rel = f"{SIGNALS_DIR}/{r.subject_id}_t{r.trial_id}.txt"
            writer.writerow(
                [r.subject_id, r.trial_id, repr(r.fs_hz), r.valence, r.arousal, rel]
            )
            with open(root / rel, "w") as sig:
                sig.write("\n".join(repr(v) for v in r.samples.tolist()))
                sig.write("\n")


def _read_signal(path: Path) -> np.ndarray:
    if not path.is_file():
        raise DataError(f"missing signal file {path}")
    try:
        with warnings.catch_warnings():
            # an empty file is reported by the line parser below
            warnings.simplefilter("ignore", UserWarning)
            values = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is not None and values.shape[1] == 1 and values.size:
        return values[:, 0]
    # anything but one number per line: parse again line by line, which
    # names the offending line
    return _read_signal_lines(path)


def _read_signal_lines(path: Path) -> np.ndarray:
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric sample {line!r}") from None
    if not values:
        raise DataError(f"{path}: signal file is empty")
    return np.asarray(values)


def load_canonical(path) -> Dataset:
    root = Path(path)
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise DataError(f"missing manifest file {manifest}")
    records = []
    with open(manifest, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(MANIFEST_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"{manifest}: missing column(s) {sorted(missing)}")
        for rowno, row in enumerate(reader, start=2):  # row 1 is the header
            where = f"{manifest} row {rowno}"
            try:
                subject = row["subject_id"]
                trial = int(row["trial_id"])
                fs = float(row["fs_hz"])
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from None
            labels = {}
            for field in ("valence", "arousal"):
                if row[field] not in ("0", "1"):
                    raise DataError(
                        f"{where}: {field} must be 0 or 1, got {row[field]!r} "
                        f"(canonical labels are binary; import converts ratings)"
                    )
                labels[field] = int(row[field])
            samples = _read_signal(root / row["signal_file"])
            try:
                records.append(PpgRecord(subject, trial, fs, samples, **labels))
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from None
    return Dataset(root.name, records)


# -- raw-study importer ----------------------------------------------------------

RATINGS_NAME = "ratings.csv"


def _binarize_column(values: list[float], threshold: float, column: str, where: str) -> list[int]:
    """Ratings on the 1..9 scale become 1 when >= threshold; a column that
    is already fully binary passes through unchanged."""
    if all(v in (0.0, 1.0) for v in values):
        return [int(v) for v in values]
    for i, v in enumerate(values):
        if not 1.0 <= v <= 9.0:
            raise DataError(
                f"{where} row {i + 2}: {column} rating {v} outside the 1..9 scale"
            )
    return [1 if v >= threshold else 0 for v in values]


def import_ppge(raw_path, out_path, threshold: float = 5.0, fs_hz: float = 100.0) -> Dataset:
    """Convert a raw study directory into the canonical format.

    Expected raw layout (this function is the only place that knows it):

        <raw>/ratings.csv                columns subject_id, trial_id,
                                         valence, arousal (1..9 ratings,
                                         or already-binary 0/1 labels)
        <raw>/<subject_id>_<trial_id>.csv   one sample per line (.txt also
                                            accepted)

    Writes the canonical dataset plus an import_log.json recording every
    label conversion, and returns the loaded Dataset.
    """
    # at 1 every rating maps to 1; above 9 none does
    check_real("threshold", threshold, "(1, 9]")
    check_real("fs_hz", fs_hz, "(0, inf)")
    raw = Path(raw_path)
    ratings = raw / RATINGS_NAME
    if not ratings.is_file():
        raise DataError(f"missing ratings file {ratings}")
    rows = []
    with open(ratings, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"subject_id", "trial_id", "valence", "arousal"}
        missing = needed - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"{ratings}: missing column(s) {sorted(missing)}")
        for rowno, row in enumerate(reader, start=2):
            try:
                check_subject_id(row["subject_id"])  # before a signal file is looked up by it
                rows.append(
                    (
                        row["subject_id"],
                        int(row["trial_id"]),
                        float(row["valence"]),
                        float(row["arousal"]),
                    )
                )
            except (ValueError, DataError) as exc:
                raise DataError(f"{ratings} row {rowno}: {exc}") from None
    if not rows:
        raise DataError(f"{ratings}: no trials listed")

    valence = _binarize_column([r[2] for r in rows], threshold, "valence", str(ratings))
    arousal = _binarize_column([r[3] for r in rows], threshold, "arousal", str(ratings))

    records = []
    conversions = []
    for (subject, trial, v_raw, a_raw), v_bin, a_bin in zip(rows, valence, arousal):
        signal_path = None
        for ext in (".csv", ".txt"):
            candidate = raw / f"{subject}_{trial}{ext}"
            if candidate.is_file():
                signal_path = candidate
                break
        if signal_path is None:
            raise DataError(f"missing signal file {raw / f'{subject}_{trial}.csv'}")
        samples = _read_signal(signal_path)
        records.append(PpgRecord(subject, trial, fs_hz, samples, v_bin, a_bin))
        conversions.append(
            {
                "subject_id": subject,
                "trial_id": trial,
                "valence_raw": v_raw,
                "valence": v_bin,
                "arousal_raw": a_raw,
                "arousal": a_bin,
            }
        )

    dataset = Dataset("ppge", records)
    out = Path(out_path)
    save_canonical(dataset, out)
    with atomic_open(out / "import_log.json") as fh:
        json.dump({"threshold": threshold, "conversions": conversions}, fh, indent=1)
    log.info("imported %d records from %d subjects", len(records), len(dataset.subjects))
    return dataset


# -- synthetic generator -----------------------------------------------------------


# Waveform constants of the generator. Per-class tuples index by the
# record's class label: class 1 beats faster and sways more, so both the
# mean rate and its variability are learnable cues.
HR_MEAN_HZ = (1.1, 2.1)
HR_VARIABILITY_HZ = (0.03, 0.25)
NOISE_STD = 0.05
WANDER_AMP = 0.15


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic pulse-signal generator."""

    n_subjects: int = 6
    trials_per_subject: int = 4
    duration_s: float = 120.0
    fs_hz: float = 100.0
    seed: int = 0

    def __post_init__(self):
        check_count("n_subjects", self.n_subjects)
        check_count("trials_per_subject", self.trials_per_subject)
        check_count("seed", self.seed, least=0)
        check_real("fs_hz", self.fs_hz, "(0, inf)")
        check_real("duration_s", self.duration_s, f"[{MIN_SYNTH_WINDOW_S:g}, inf)")
        # the record's sample count; too few leaves nothing to filter or window
        check_real("duration_s * fs_hz", self.duration_s * self.fs_hz, "[2, inf)")


def _synth_signal(spec: SynthSpec, rng: np.random.Generator, cls: int) -> np.ndarray:
    """Pulse-like waveform: first three harmonics of a slowly varying heart
    rate, plus low-frequency baseline wander and white noise."""
    n = int(round(spec.duration_s * spec.fs_hz))
    t = np.arange(n) / spec.fs_hz
    hr0 = rng.normal(HR_MEAN_HZ[cls], 0.05)
    # smooth rate modulation from control points every 2 s
    n_ctrl = max(int(spec.duration_s / 2) + 2, 4)
    ctrl = rng.standard_normal(n_ctrl)
    mod = np.interp(np.linspace(0.0, n_ctrl - 1.0, n), np.arange(n_ctrl), ctrl)
    mod /= mod.std() + 1e-12
    inst_hz = np.clip(hr0 + HR_VARIABILITY_HZ[cls] * mod, 0.8, 3.0)
    phase = 2.0 * np.pi * np.cumsum(inst_hz) / spec.fs_hz
    x = (
        np.sin(phase)
        + 0.5 * np.sin(2.0 * phase + rng.uniform(0.0, 2.0 * np.pi))
        + 0.25 * np.sin(3.0 * phase + rng.uniform(0.0, 2.0 * np.pi))
    )
    wander_hz = rng.uniform(0.08, 0.25)
    x += WANDER_AMP * np.sin(2.0 * np.pi * wander_hz * t + rng.uniform(0.0, 2.0 * np.pi))
    x += NOISE_STD * rng.standard_normal(n)
    return x


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic synthetic dataset; valence and arousal both equal the
    record's generator class so either target is learnable.

    Each subject gets a balanced shuffle of classes across trials, which
    keeps every leave-one-subject-out test fold two-class.
    """
    records = []
    for si in range(spec.n_subjects):
        subject = f"S{si + 1:02d}"
        class_rng = np.random.default_rng([spec.seed, si])
        classes = ([0, 1] * math.ceil(spec.trials_per_subject / 2))[: spec.trials_per_subject]
        classes = list(class_rng.permutation(classes))
        for ti in range(1, spec.trials_per_subject + 1):
            rng = np.random.default_rng([spec.seed, si, ti])
            cls = int(classes[ti - 1])
            samples = _synth_signal(spec, rng, cls)
            records.append(
                PpgRecord(subject, ti, spec.fs_hz, samples, valence=cls, arousal=cls)
            )
    return Dataset("synthetic", records)
