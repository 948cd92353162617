"""PPG-based binary emotion classification.

End-to-end pipeline: bandpass filtering and windowing of raw PPG, a small
hybrid convolutional/recurrent/temporal-convolutional model zoo trained
with class-weighted cross-entropy and early stopping, and
leave-one-subject-out evaluation reported as AUC and F1 tables.

Importing the package before numpy sets OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS to 1 unless the environment sets them: the model's matrix
products are too small for a second BLAS thread to help, a two-branch model
already uses the second core (see nn.layers.fork_join), and conv weight
gradients round differently under different BLAS thread counts.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .data import Dataset, PpgRecord, SynthSpec, load_canonical, save_canonical, synth_dataset
from .errors import (
    ConfigError,
    DataError,
    PpgEmoError,
    ShapeError,
    StateError,
)
from .evaluation import EvalReport, FoldMetrics, aggregate, auc, evaluate_fold, loso_folds, run_loso
from .models import Model, ModelConfig, build
from .signals import FilterSpec, Segment, SegmenterSpec, preprocess_record
from .training import TrainConfig, TrainLog, compute_class_weights, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "Dataset",
    "EvalReport",
    "FilterSpec",
    "FoldMetrics",
    "Model",
    "ModelConfig",
    "PpgEmoError",
    "PpgRecord",
    "Segment",
    "SegmenterSpec",
    "ShapeError",
    "StateError",
    "SynthSpec",
    "TrainConfig",
    "TrainLog",
    "aggregate",
    "auc",
    "build",
    "compute_class_weights",
    "evaluate_fold",
    "load_canonical",
    "loso_folds",
    "preprocess_record",
    "run_loso",
    "save_canonical",
    "synth_dataset",
    "train",
]
