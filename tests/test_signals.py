import numpy as np
import pytest
from oracles import sos_magnitude_db

from ppgemo.data import PpgRecord
from ppgemo.errors import ConfigError, DataError
from ppgemo.signals import (
    FilterSpec,
    SegmenterSpec,
    apply_filter,
    design_bandpass,
    preprocess_record,
    segment,
    standardize,
)

FS = 100.0


class TestFilterDesign:
    def test_cutoffs_at_minus_3db(self):
        sos = design_bandpass(FilterSpec())
        for f in (0.7, 3.7):
            assert sos_magnitude_db(sos, f, FS) == pytest.approx(-3.0, abs=0.5)

    def test_stopband_attenuation(self):
        sos = design_bandpass(FilterSpec())
        assert sos_magnitude_db(sos, 0.05, FS) <= -20.0
        assert sos_magnitude_db(sos, 15.0, FS) <= -20.0

    def test_passband_center_near_unity_gain(self):
        sos = design_bandpass(FilterSpec())
        center = np.sqrt(0.7 * 3.7)
        assert sos_magnitude_db(sos, center, FS) == pytest.approx(0.0, abs=1.0)

    def test_all_poles_inside_unit_circle(self):
        sos = design_bandpass(FilterSpec())
        for section in sos:
            for pole in np.roots(section[3:]):
                assert abs(pole) < 1.0

    def test_order_three_gives_three_sections(self):
        # order poles per band edge -> 2*order poles -> order biquads
        assert design_bandpass(FilterSpec()).shape == (3, 6)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(order=0), "order"),
            (dict(low_hz=0.0), "low_hz"),
            (dict(low_hz=4.0, high_hz=3.7), "high_hz"),
            (dict(high_hz=60.0), "high_hz"),
        ],
    )
    def test_invalid_spec_names_field(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            FilterSpec(**kwargs)


class TestApplyFilter:
    def test_zero_in_zero_out(self):
        out = apply_filter(np.zeros(1000), FilterSpec())
        assert out.shape == (1000,)
        assert np.all(out == 0.0)

    def test_homogeneity(self, rng):
        x = rng.standard_normal(500)
        a, b = apply_filter(x, FilterSpec()), apply_filter(2.0 * x, FilterSpec())
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-9)

    def test_additivity(self, rng):
        x = rng.standard_normal(400)
        y = rng.standard_normal(400)
        lhs = apply_filter(3.0 * x + 0.5 * y, FilterSpec())
        rhs = 3.0 * apply_filter(x, FilterSpec()) + 0.5 * apply_filter(y, FilterSpec())
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_length_preserved_and_deterministic(self, rng):
        x = rng.standard_normal(777)
        out1 = apply_filter(x, FilterSpec())
        out2 = apply_filter(x, FilterSpec())
        assert out1.shape == x.shape
        np.testing.assert_array_equal(out1, out2)

    def test_stopband_sinusoid_attenuated(self):
        t = np.arange(6000) / FS
        x = np.sin(2 * np.pi * 0.05 * t)
        out = apply_filter(x, FilterSpec())
        # steady state after the transient has decayed
        assert np.abs(out[3000:]).max() <= 0.1

    def test_nan_names_first_offending_index(self):
        x = np.zeros(10)
        x[7] = np.nan
        with pytest.raises(DataError, match="index 7"):
            apply_filter(x, FilterSpec())


class TestSegment:
    def test_count_for_300s_record(self):
        spec = SegmenterSpec()
        windows = segment(np.zeros(30000), spec)
        assert len(windows) == 5
        assert [start for start, _ in windows] == [0, 5500, 11000, 16500, 22000]

    def test_exactly_one_window(self):
        assert len(segment(np.zeros(6000), SegmenterSpec())) == 1

    def test_too_short_raises(self):
        assert segment(np.zeros(5900), SegmenterSpec()) == []

    def test_windows_are_verbatim_slices(self, rng):
        x = rng.standard_normal(30000)
        spec = SegmenterSpec()
        for start, window in segment(x, spec):
            np.testing.assert_array_equal(window, x[start : start + 6000])

    def test_count_formula_property(self, rng):
        # 1000 randomized (L, W, S) triples at fs 1 Hz so samples == seconds
        for _ in range(1000):
            w = int(rng.integers(2, 60))
            s = int(rng.integers(1, w + 1))
            n = int(rng.integers(w, 400))
            spec = SegmenterSpec(window_s=w, overlap_s=w - s, fs_hz=1.0)
            got = segment(np.zeros(n), spec)
            assert len(got) == (n - w) // s + 1

    def test_invalid_overlap(self):
        with pytest.raises(ConfigError, match="overlap_s"):
            SegmenterSpec(window_s=60.0, overlap_s=60.0)


class TestStandardize:
    def test_hand_computed_example(self):
        out = standardize([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_near_constant_guard(self):
        np.testing.assert_array_equal(standardize([5.0, 5.0, 5.0, 5.0]), np.zeros(4))

    def test_zscore_invariants(self, rng):
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(2, 500))) * rng.uniform(0.1, 50)
            out = standardize(x)
            assert abs(out.mean()) < 1e-6
            assert abs(out.std() - 1.0) < 1e-6

    def test_too_short(self):
        with pytest.raises(DataError):
            standardize([1.0])


def _record(n_samples, subject="s1", trial=1, valence=1, arousal=0, fs=FS):
    t = np.arange(n_samples) / fs
    return PpgRecord(subject, trial, fs, np.sin(2 * np.pi * 1.5 * t), valence, arousal)


class TestPreprocessRecord:
    def test_300s_record_gives_5_labeled_segments(self):
        segs = preprocess_record(_record(30000), FilterSpec(), SegmenterSpec())
        assert len(segs) == 5
        for s in segs:
            assert (s.subject_id, s.trial_id, s.valence, s.arousal) == ("s1", 1, 1, 0)
            assert s.samples.shape == (6000,)
            assert abs(s.samples.mean()) < 1e-6

    def test_short_record_warns_and_skips(self, caplog):
        with caplog.at_level("WARNING"):
            segs = preprocess_record(_record(5900), FilterSpec(), SegmenterSpec())
        assert segs == []
        assert "skipping" in caplog.text

    def test_records_never_merge(self):
        # two 60 s records yield one window each, not a window spanning both
        a = preprocess_record(_record(6000, trial=1), FilterSpec(), SegmenterSpec())
        b = preprocess_record(_record(6000, trial=2), FilterSpec(), SegmenterSpec())
        assert len(a) == len(b) == 1
        assert a[0].trial_id == 1 and b[0].trial_id == 2

    def test_sampling_rate_mismatch(self):
        with pytest.raises(ConfigError, match="fs_hz"):
            preprocess_record(_record(6000, fs=64.0), FilterSpec(), SegmenterSpec())
