"""Parameterized detection loss with bi-level parameter search.

The loss replaces the step functions inside a reformulated average-precision
metric with monotone piecewise-linear functions; an outer PPO2 loop searches
their control points (plus a localization gradient scale) against a
desk-scale synthetic detection benchmark.
"""

from .apmetric import (
    COCO_THRESHOLDS,
    DetectionBatch,
    ap_pr_area,
    ap_ranked,
    ap_reformulated,
    assign,
    loc_scores,
)
from .errors import (
    ConfigError,
    ConstraintViolationError,
    DomainError,
    EmptyPositiveError,
    InvalidInputError,
    ParamLossError,
    TrainingDivergedError,
)
from .geometry import Box, giou, giou_grad, iou, l1_score, measure, measure_grad, pairwise_iou
from .paploss import (
    HANDCRAFTED_KINDS,
    LossParams,
    StepFn,
    handcrafted_substitution,
    lambda_from_theta,
    loss_backward,
    loss_forward,
    resolve_functions,
)
from .piecewise import PiecewiseFn, RatioParams, build, identity_params
from .search import (
    SearchConfig,
    best_so_far_curve,
    ppo2_update,
    random_search,
    run_search,
    sample_truncnorm,
    truncnorm_logpdf,
)
from .toybench import (
    DatasetConfig,
    Scene,
    ToyModel,
    generate,
    load_dataset,
    model_forward,
    reward,
    save_dataset,
    train_inner,
)

__version__ = "0.1.0"

__all__ = [
    "COCO_THRESHOLDS", "DetectionBatch", "ap_pr_area", "ap_ranked",
    "ap_reformulated", "assign", "loc_scores",
    "ParamLossError", "InvalidInputError", "ConstraintViolationError",
    "DomainError", "EmptyPositiveError", "TrainingDivergedError", "ConfigError",
    "Box", "iou", "giou", "giou_grad", "l1_score", "measure", "measure_grad",
    "pairwise_iou",
    "HANDCRAFTED_KINDS", "LossParams", "StepFn", "handcrafted_substitution",
    "lambda_from_theta", "loss_backward", "loss_forward", "resolve_functions",
    "PiecewiseFn", "RatioParams", "build", "identity_params",
    "SearchConfig", "best_so_far_curve", "ppo2_update", "random_search",
    "run_search", "sample_truncnorm", "truncnorm_logpdf",
    "DatasetConfig", "Scene", "ToyModel", "generate", "load_dataset",
    "model_forward", "reward", "save_dataset", "train_inner",
]
