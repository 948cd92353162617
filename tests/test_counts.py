import re

import numpy as np
import pytest

from ppgemo.cli import RunConfig
from ppgemo.data import SynthSpec
from ppgemo.errors import ConfigError
from ppgemo.models import ConvStage, ModelConfig
from ppgemo.nn import Conv1dSpec, Lstm, MaxPool1d, TcnSpec
from ppgemo.signals import FilterSpec, SegmenterSpec
from ppgemo.training import TrainConfig


def _run_config(jobs):
    return RunConfig(
        FilterSpec(), SegmenterSpec(), ModelConfig(), TrainConfig(), None, "out", ("cnn",),
        ("valence",), 0, jobs,
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
