"""PPG-based binary emotion classification.

End-to-end pipeline: bandpass filtering and windowing of raw PPG, a small
hybrid convolutional/recurrent/temporal-convolutional model zoo trained
with class-weighted cross-entropy and early stopping, and
leave-one-subject-out evaluation reported as AUC and F1 tables.
"""

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
