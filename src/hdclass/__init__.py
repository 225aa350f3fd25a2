"""Hyperdimensional classification with a learner-aware dynamic encoder."""

# Set before the submodules load: ``serialize`` stamps it into every container.
__version__ = "0.1.0"

from .core import (
    ClassModel,
    DimensionError,
    Encoder,
    similarity_matrix,
    similarity_scores,
)
from .data import Dataset, synth_blobs
from .learner import (
    TrainConfig,
    TrainReport,
    adaptive_fit_epoch,
    effective_dimensionality,
    top_k,
    train,
)
from .serialize import load_model, save_model

__all__ = [
    "ClassModel", "DimensionError", "Encoder", "similarity_matrix",
    "similarity_scores", "Dataset", "synth_blobs",
    "TrainConfig", "TrainReport", "adaptive_fit_epoch",
    "effective_dimensionality", "top_k", "train", "load_model", "save_model",
]
