from .base import (
    BayesianRidgeParams,
    LinearSVRParams,
    RandomForestParams,
    RegressorKind,
    TrainReport,
    TrainedModel,
    evaluate_accuracy,
    model_from_json,
    model_to_json,
    predict_many,
    regressor_from_dict,
    train,
)
from .bayes_ridge import LinearState
from .forest import ForestState, Tree

__all__ = [
    "BayesianRidgeParams",
    "ForestState",
    "LinearSVRParams",
    "LinearState",
    "RandomForestParams",
    "RegressorKind",
    "TrainReport",
    "TrainedModel",
    "Tree",
    "evaluate_accuracy",
    "model_from_json",
    "model_to_json",
    "predict_many",
    "regressor_from_dict",
    "train",
]
