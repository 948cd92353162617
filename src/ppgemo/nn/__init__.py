"""Layer primitives, recurrent and temporal-convolutional stacks, and the
finite-difference gradient checker. Layers take their hyperparameters as
constructor arguments; `Conv1dSpec` and `TcnSpec` bundle the multi-field
ones."""

from .layers import (
    BatchNorm1d,
    Conv1d,
    Conv1dSpec,
    Dense,
    Dropout,
    GlobalMaxPool,
    Layer,
    MaxPool1d,
    glorot_uniform,
    softmax,
    walk,
)
from .lstm import Lstm
from .tcn import Tcn, TcnSpec

__all__ = [
    "BatchNorm1d",
    "Conv1d",
    "Conv1dSpec",
    "Dense",
    "Dropout",
    "GlobalMaxPool",
    "Layer",
    "Lstm",
    "MaxPool1d",
    "Tcn",
    "TcnSpec",
    "glorot_uniform",
    "softmax",
    "walk",
]
