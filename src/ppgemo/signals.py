"""Raw PPG to standardized training segments.

The pipeline is: causal Butterworth bandpass -> sliding windows ->
per-window z-scoring. All steps are pure functions of their inputs, so
they are safe to run concurrently on different records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, DataError, check_count, check_real

if TYPE_CHECKING:  # pragma: no cover
    from .data import PpgRecord

log = logging.getLogger(__name__)

# Below this population std a window is treated as flat-lined and zeroed
# instead of dividing by a vanishing denominator.
NEAR_CONSTANT_STD = 1e-8


@dataclass(frozen=True)
class FilterSpec:
    """Bandpass design parameters.

    The default band (0.7-3.7 Hz) covers plausible heart rates from about
    42 bpm at rest up to 222 bpm under exertion.
    """

    order: int = 3
    low_hz: float = 0.7
    high_hz: float = 3.7
    fs_hz: float = 100.0

    def __post_init__(self):
        check_count("order", self.order)
        check_real("fs_hz", self.fs_hz, "(0, inf)")
        check_real("low_hz", self.low_hz, "(0, inf)")
        # between the low edge and the Nyquist frequency
        check_real("high_hz", self.high_hz, f"({self.low_hz}, {self.fs_hz / 2})")


@dataclass(frozen=True)
class SegmenterSpec:
    """Sliding-window parameters; the stride is window minus overlap."""

    window_s: float = 60.0
    overlap_s: float = 5.0
    fs_hz: float = 100.0

    def __post_init__(self):
        check_real("window_s", self.window_s, "(0, inf)")
        check_real("overlap_s", self.overlap_s, f"[0, {self.window_s})")
        check_real("fs_hz", self.fs_hz, "(0, inf)")
        if self.window_samples < 2:
            raise ConfigError(
                f"window_s*fs_hz must cover at least 2 samples, got "
                f"{self.window_samples}"
            )

    @property
    def stride_s(self) -> float:
        return self.window_s - self.overlap_s

    @property
    def window_samples(self) -> int:
        return int(round(self.window_s * self.fs_hz))

    @property
    def stride_samples(self) -> int:
        # stride_s > 0 is guaranteed, but rounding could still hit 0 for
        # sub-sample strides; clamp so the window always advances.
        return max(int(round(self.stride_s * self.fs_hz)), 1)


@dataclass
class Segment:
    """One standardized window carrying the labels of its parent record."""

    samples: np.ndarray
    subject_id: str
    trial_id: int
    valence: int
    arousal: int


def design_bandpass(spec: FilterSpec) -> np.ndarray:
    """Design the bandpass filter as second-order sections.

    Returns an array of shape [n_sections, 6]; each row holds the
    (b0, b1, b2, a0, a1, a2) coefficients of one biquad. The design places
    `spec.order` poles per band edge, so the realized filter order is
    2 * spec.order.
    """
    # imported here: scipy.signal alone takes 0.73-0.85 s to import after
    # numpy (scipy 1.17.1, 2-vCPU VM), which every CLI command would pay even
    # when it filters nothing
    from scipy.signal import butter

    return butter(
        spec.order,
        [spec.low_hz, spec.high_hz],
        btype="band",
        fs=spec.fs_hz,
        output="sos",
    )


def apply_filter(signal: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Run the bandpass over `signal` as a single causal forward pass.

    The filter state starts at zero and the output has the same length as
    the input. Linearity and time invariance follow from the direct-form
    section cascade.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DataError(f"expected a non-empty 1-d signal, got shape {x.shape}")
    bad = ~np.isfinite(x)
    if bad.any():
        raise DataError(f"non-finite sample at index {int(np.argmax(bad))}")
    from scipy.signal import sosfilt

    return sosfilt(design_bandpass(spec), x)


def segment(signal: np.ndarray, spec: SegmenterSpec) -> list[tuple[int, np.ndarray]]:
    """Cut verbatim sliding windows out of `signal`.

    Window i covers samples [i*S, i*S + W) where S is the stride and W the
    window length in samples, giving floor((L - W)/S) + 1 windows: none
    when the signal is shorter than one window. Returns (start_index,
    window) pairs.
    """
    x = np.asarray(signal, dtype=np.float64)
    w = spec.window_samples
    s = spec.stride_samples
    count = (x.size - w) // s + 1
    return [(i * s, x[i * s : i * s + w].copy()) for i in range(count)]


def standardize(window: np.ndarray) -> np.ndarray:
    """Z-score a window using the population (1/N) standard deviation.

    Near-constant windows (std below NEAR_CONSTANT_STD) map to all zeros
    so flat-lined sensor stretches cannot blow up the division.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.size < 2:
        raise DataError(f"need at least 2 samples to standardize, got {x.size}")
    sd = x.std()
    if sd < NEAR_CONSTANT_STD:
        return np.zeros_like(x)
    return (x - x.mean()) / sd


def preprocess_record(
    record: "PpgRecord", fspec: FilterSpec, sspec: SegmenterSpec
) -> list[Segment]:
    """Filter, window, and standardize one record.

    Every emitted Segment inherits the record's subject, trial, and both
    labels. Records too short for a single window are skipped with a
    warning; windows never span record boundaries because each record is
    processed independently.
    """
    if record.fs_hz != fspec.fs_hz or record.fs_hz != sspec.fs_hz:
        raise ConfigError(
            f"record {record.subject_id}/trial {record.trial_id} sampled at "
            f"{record.fs_hz} Hz but specs expect fs_hz={fspec.fs_hz} (filter) "
            f"and fs_hz={sspec.fs_hz} (segmenter)"
        )
    filtered = apply_filter(record.samples, fspec)
    windows = segment(filtered, sspec)
    if not windows:
        log.warning(
            "skipping %s/trial %s: %d samples < one %d-sample window",
            record.subject_id,
            record.trial_id,
            filtered.size,
            sspec.window_samples,
        )
        return []
    return [
        Segment(
            samples=standardize(w),
            subject_id=record.subject_id,
            trial_id=record.trial_id,
            valence=record.valence,
            arousal=record.arousal,
        )
        for _, w in windows
    ]
