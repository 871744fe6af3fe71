"""Restoration-time regression over outage revision sequences.

A sequence model (per-feature embeddings, continuous-time positional
encoding, masked self-attention) trained with an asymmetric piecewise
loss that penalizes under-prediction more than moderate over-prediction.
Includes a synthetic storm generator with a replayable ground truth,
a reverse-mode autodiff tape, training with Adam and plateau decay,
stratified evaluation, attention export, and permutation Shapley
attributions.
"""

from .autodiff import NumericsError, Tape
from .data import (
    DatasetSplit,
    FeatureSchema,
    StormRecord,
    TransformState,
    classify_storm,
    fit_transforms,
    stratified_split,
)
from .dataio import Dataset, load_dataset, save_dataset
from .losses import LossConfig, asymmetric_loss, piecewise_loss
from .metrics import EvalReport, PredictionSet, csi, eval_report, opr8, rmse, upr, wae
from .model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .synth import GeneratorConfig, generate_dataset, generate_storm
from .training import (
    TrainConfig,
    TrainResult,
    evaluate,
    fit_linear_baseline,
    train_model,
)
from .explain import (
    aggregate_topk,
    extract_attention,
    export_heatmap,
    shapley_attributions,
)

__version__ = "0.1.0"

__all__ = [
    "NumericsError",
    "Tape",
    "DatasetSplit",
    "FeatureSchema",
    "StormRecord",
    "TransformState",
    "classify_storm",
    "fit_transforms",
    "stratified_split",
    "Dataset",
    "load_dataset",
    "save_dataset",
    "LossConfig",
    "asymmetric_loss",
    "piecewise_loss",
    "EvalReport",
    "PredictionSet",
    "csi",
    "eval_report",
    "opr8",
    "rmse",
    "upr",
    "wae",
    "ModelConfig",
    "ModelParams",
    "SequenceBatch",
    "forward",
    "init_params",
    "load_checkpoint",
    "predict",
    "save_checkpoint",
    "GeneratorConfig",
    "generate_dataset",
    "generate_storm",
    "TrainConfig",
    "TrainResult",
    "evaluate",
    "fit_linear_baseline",
    "train_model",
    "aggregate_topk",
    "extract_attention",
    "export_heatmap",
    "shapley_attributions",
    "__version__",
]
