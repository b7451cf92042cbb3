"""Multilabel ensembles of recurrent and temporal-convolutional networks.

The package trains small sequence networks on flat feature vectors with a
family of adaptive-step optimizers, fuses their confidence scores by the
average rule, and evaluates with the standard multilabel indicators.
"""

from .ensemble import (EnsembleModel, fuse_average, fuse_weighted_external,
                       load_ensemble, normalize_enn, save_ensemble)
from .harness import RunConfig, kfold_split, load_dataset, load_external_scores, run_experiment
from .metrics import PredictionSet, bce_loss, compute_all
from .network import NetworkSpec, build_network
from .numerics import RngStream, kmeans, pca_fit, pca_transform
from .pipeline import Dataset, imcc_augment, minmax_normalize
from .training import TrainConfig, assign_optimizers, train_network

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EnsembleModel",
    "NetworkSpec",
    "PredictionSet",
    "RngStream",
    "RunConfig",
    "TrainConfig",
    "__version__",
    "assign_optimizers",
    "bce_loss",
    "build_network",
    "compute_all",
    "fuse_average",
    "fuse_weighted_external",
    "imcc_augment",
    "kfold_split",
    "kmeans",
    "load_dataset",
    "load_ensemble",
    "load_external_scores",
    "minmax_normalize",
    "normalize_enn",
    "pca_fit",
    "pca_transform",
    "run_experiment",
    "save_ensemble",
    "train_network",
]
