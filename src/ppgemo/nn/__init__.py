"""Layer primitives, recurrent and temporal-convolutional stacks, and the
finite-difference gradient checker."""

from .layers import (
    BatchNorm1d,
    BatchNorm1dSpec,
    Conv1d,
    Conv1dSpec,
    Dense,
    DenseSpec,
    Dropout,
    DropoutSpec,
    GlobalMaxPool,
    Layer,
    MaxPool1d,
    MaxPool1dSpec,
    glorot_uniform,
    softmax,
    walk,
)
from .lstm import Lstm, LstmSpec
from .tcn import Tcn, TcnSpec

__all__ = [
    "BatchNorm1d",
    "BatchNorm1dSpec",
    "Conv1d",
    "Conv1dSpec",
    "Dense",
    "DenseSpec",
    "Dropout",
    "DropoutSpec",
    "GlobalMaxPool",
    "Layer",
    "Lstm",
    "LstmSpec",
    "MaxPool1d",
    "MaxPool1dSpec",
    "Tcn",
    "TcnSpec",
    "glorot_uniform",
    "softmax",
    "walk",
]
