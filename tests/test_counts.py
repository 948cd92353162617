import math
import re

import numpy as np
import pytest

from ppgemo.cli import RunConfig
from ppgemo.data import SynthSpec, import_ppge
from ppgemo.errors import ConfigError, DataError
from ppgemo.models import ConvStage, ModelConfig
from ppgemo.nn import Conv1dSpec, Dropout, Lstm, MaxPool1d, TcnSpec
from ppgemo.nn.gradcheck import check_family
from ppgemo.signals import FilterSpec, SegmenterSpec
from ppgemo.training import TrainConfig


def _run_config(jobs=1, seed=0):
    return RunConfig(
        FilterSpec(), SegmenterSpec(), ModelConfig(), TrainConfig(), "data", "out", "cnn",
        "valence", seed, jobs,
    )


# every count setting: (the name its message gives, a build that sets it to v)
COUNTS = {
    "Conv1dSpec.filters": ("filters", lambda v: Conv1dSpec(v, 3)),
    "Conv1dSpec.kernel_size": ("kernel_size", lambda v: Conv1dSpec(2, v)),
    "Conv1dSpec.stride": ("stride", lambda v: Conv1dSpec(2, 3, v)),
    "MaxPool1d.pool_size": ("pool_size", MaxPool1d),
    "Lstm.units": ("units", lambda v: Lstm(3, v, np.random.default_rng(0))),
    "TcnSpec.filters": ("filters", lambda v: TcnSpec(filters=v)),
    "TcnSpec.kernel_size": ("kernel_size", lambda v: TcnSpec(kernel_size=v)),
    "TcnSpec.dilations": ("dilations[1]", lambda v: TcnSpec(dilations=(1, v))),
    "TrainConfig.batch_size": ("batch_size", lambda v: TrainConfig(batch_size=v)),
    "TrainConfig.max_epochs": ("max_epochs", lambda v: TrainConfig(max_epochs=v, patience=1)),
    "TrainConfig.patience": ("patience", lambda v: TrainConfig(patience=v)),
    "FilterSpec.order": ("order", lambda v: FilterSpec(order=v)),
    "SynthSpec.n_subjects": ("n_subjects", lambda v: SynthSpec(n_subjects=v)),
    "SynthSpec.trials_per_subject": (
        "trials_per_subject", lambda v: SynthSpec(trials_per_subject=v)
    ),
    "ConvStage.filters": ("conv stage filters", lambda v: ConvStage(v, 3, 1)),
    "ConvStage.kernel_size": ("conv stage kernel_size", lambda v: ConvStage(2, v, 1)),
    "ConvStage.stride": ("conv stage stride", lambda v: ConvStage(2, 3, v)),
    "ModelConfig.input_len": ("input_len", lambda v: ModelConfig(input_len=v)),
    "ModelConfig.pool_size": ("pool_size", lambda v: ModelConfig(pool_size=v)),
    "ModelConfig.lstm_units": ("lstm_units", lambda v: ModelConfig(lstm_units=v)),
    "RunConfig.jobs": ("jobs", _run_config),
    "gradcheck.cases": ("cases", lambda v: check_family("batchnorm1d_train", v)),
}


@pytest.mark.parametrize("value", [0, 4.5, "8", True], ids=repr)
@pytest.mark.parametrize("setting", COUNTS)
def test_count_settings_take_only_integers_from_one(setting, value):
    name, make = COUNTS[setting]
    message = f"{name} must be an integer >= 1, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        make(value)


@pytest.mark.parametrize("setting", COUNTS)
def test_count_settings_take_numpy_integers(setting):
    # a count read from an array is still a count
    _, make = COUNTS[setting]
    make(np.int64(2))


# every seed setting: a build that sets the seed to v
SEEDS = {
    "RunConfig.seed": lambda v: _run_config(seed=v),
    "SynthSpec.seed": lambda v: SynthSpec(seed=v),
    "gradcheck": lambda v: check_family("batchnorm1d_train", 1, v),
}


@pytest.mark.parametrize("value", [-1, 4.5, "8", True], ids=repr)
@pytest.mark.parametrize("setting", SEEDS)
def test_seed_settings_take_only_integers_from_zero(setting, value):
    message = f"seed must be an integer >= 0, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        SEEDS[setting](value)


def _import_study(**settings):
    # import_ppge checks its settings before it reads the study, so an
    # accepted value gets as far as the missing ratings file
    with pytest.raises(DataError, match="missing ratings file"):
        import_ppge("no-such-study", "no-such-output", **settings)


BELOW_ZERO = math.nextafter(0.0, -1.0)

# every real setting: (the name its message gives, its interval, a build that
# sets it to v, the values just outside its finite bounds, a value inside it)
REALS = {
    "TrainConfig.learning_rate": (
        "learning_rate", "(0, inf)", lambda v: TrainConfig(learning_rate=v), [0], 1
    ),
    "TrainConfig.val_fraction_subjects": (
        "val_fraction_subjects", "(0, 1)", lambda v: TrainConfig(val_fraction_subjects=v),
        [0, 1], 0.5,
    ),
    "ModelConfig.dropout": (
        "dropout", "[0, 1)", lambda v: ModelConfig(dropout=v), [BELOW_ZERO, 1], 0
    ),
    "TcnSpec.dropout_rate": (
        "dropout_rate", "[0, 1)", lambda v: TcnSpec(dropout_rate=v), [BELOW_ZERO, 1], 0
    ),
    "Dropout.rate": ("rate", "[0, 1)", Dropout, [BELOW_ZERO, 1], 0),
    "FilterSpec.fs_hz": ("fs_hz", "(0, inf)", lambda v: FilterSpec(fs_hz=v), [0], 100),
    "FilterSpec.low_hz": ("low_hz", "(0, inf)", lambda v: FilterSpec(low_hz=v), [0], 1),
    "FilterSpec.high_hz": (
        "high_hz", "(0.7, 50.0)", lambda v: FilterSpec(high_hz=v), [0.7, 50.0], 3
    ),
    "SegmenterSpec.window_s": (
        "window_s", "(0, inf)", lambda v: SegmenterSpec(window_s=v), [0], 30
    ),
    "SegmenterSpec.overlap_s": (
        "overlap_s", "[0, 60.0)", lambda v: SegmenterSpec(overlap_s=v), [BELOW_ZERO, 60.0], 0
    ),
    "SegmenterSpec.fs_hz": ("fs_hz", "(0, inf)", lambda v: SegmenterSpec(fs_hz=v), [0], 10),
    "SynthSpec.fs_hz": ("fs_hz", "(0, inf)", lambda v: SynthSpec(fs_hz=v), [0], 10),
    "SynthSpec.duration_s": (
        "duration_s", "[60, inf)", lambda v: SynthSpec(duration_s=v),
        [math.nextafter(60.0, 0.0)], 60,
    ),
    "import_ppge.threshold": (
        "threshold", "(1, 9]", lambda v: _import_study(threshold=v),
        [1, math.nextafter(9.0, 10.0)], 9,
    ),
    "import_ppge.fs_hz": ("fs_hz", "(0, inf)", lambda v: _import_study(fs_hz=v), [0], 100),
}
REJECTED = [
    (setting, value)
    for setting, (_, _, _, outside, _) in REALS.items()
    for value in [math.nan, math.inf, True, "0.5", *outside]
]


@pytest.mark.parametrize(
    "setting, value", REJECTED, ids=[f"{setting}-{value!r}" for setting, value in REJECTED]
)
def test_real_settings_take_only_numbers_in_their_interval(setting, value):
    name, interval, make, _, _ = REALS[setting]
    message = f"{name} must be a number in {interval}, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        make(value)


@pytest.mark.parametrize("setting", REALS)
def test_real_settings_take_numpy_floats_and_python_ints(setting):
    _, _, make, _, inside = REALS[setting]
    make(np.float64(inside))
    if float(inside).is_integer():  # (0, 1) holds no integer
        make(int(inside))
