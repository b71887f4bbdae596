"""Collaborative filtering on a user-item graph, contrasted against its
low-rank reconstruction.

The package trains embedding tables with parameter-free graph propagation,
a randomized truncated SVD global view, a pairwise ranking loss plus a
two-view contrastive term, hand-written gradients, and Adam. Everything
runs on numpy/scipy arrays; no autodiff framework is involved.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericalError, ParseError, ProtocolError
from .harness import RunConfig, TrainResult, run_eval, run_svd_report, run_training
from .interactions import (
    InteractionDataset,
    build_adjacency,
    load_interactions,
    normalize_adjacency,
    write_pair_files,
)
from .linalg import (
    SvdFactors,
    approx_svd,
    exact_svd_dense,
    svd_propagate,
)
from .losses import (
    LossReport,
    TrainBatch,
    l2_reg,
    loss_and_grads,
    sample_batch,
)
from .metrics import (
    EvalResult,
    evaluate,
    evaluate_popularity,
)
from .model import (
    ForwardTrace,
    HyperParams,
    ModelState,
    edge_dropout,
    forward,
    init_model,
    leaky_relu,
)
from .optim import OptimizerState, adam_step, init_optimizer
from .synth import generate_blocks

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "ConfigError",
    "DataError",
    "EvalResult",
    "ForwardTrace",
    "HyperParams",
    "InteractionDataset",
    "LossReport",
    "ModelState",
    "NumericalError",
    "OptimizerState",
    "ParseError",
    "ProtocolError",
    "RunConfig",
    "SvdFactors",
    "TrainBatch",
    "TrainResult",
    "adam_step",
    "approx_svd",
    "build_adjacency",
    "edge_dropout",
    "evaluate",
    "evaluate_popularity",
    "exact_svd_dense",
    "forward",
    "generate_blocks",
    "init_model",
    "init_optimizer",
    "l2_reg",
    "leaky_relu",
    "load_checkpoint",
    "load_interactions",
    "loss_and_grads",
    "normalize_adjacency",
    "run_eval",
    "run_svd_report",
    "run_training",
    "sample_batch",
    "save_checkpoint",
    "svd_propagate",
    "write_pair_files",
]
