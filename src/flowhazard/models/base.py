"""Shared train/predict contract for the three regression classifiers.

All three kinds regress the 0.0/1.0 class target and return an unclipped
real score; the novelty band test downstream interprets raw scores.  The
linear kinds fit on internally standardized features (scaling captured at
train time); the forest splits on raw features, where split decisions
depend only on the ordering of training values, so it needs no scaling.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

from ..errors import (
    DegenerateData, EmptyInput, InvalidSpec, InvalidValue, NonFinite,
    SchemaMismatch, check_fields, read_config,
)
from ..flowdata import FlowDataset
from ..seeding import normalize_key
from .bayes_ridge import LinearState, fit_bayesian_ridge
from .forest import ForestState, forest_predict, train_forest
from .linear_svr import fit_linear_svr

MODEL_FORMAT = "flowhazard-model"
MODEL_VERSION = 1


@dataclass(frozen=True)
class RandomForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 2
    features_per_split: int | None = None  # default: ceil(F / 3)
    bootstrap: bool = True

    kind: ClassVar[str] = "random_forest"

    def __post_init__(self):
        check_fields(self)
        if self.n_trees < 1 or self.min_leaf < 1:
            raise InvalidValue("n_trees and min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise InvalidValue("max_depth must be None or >= 0")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise InvalidValue("features_per_split must be None or >= 1")


@dataclass(frozen=True)
class BayesianRidgeParams:
    max_evidence_iters: int = 300
    tol: float = 1e-4

    kind: ClassVar[str] = "bayesian_ridge"

    def __post_init__(self):
        check_fields(self)
        if self.max_evidence_iters < 1:
            raise InvalidValue("max_evidence_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise InvalidValue("tol must be finite and positive")


@dataclass(frozen=True)
class LinearSVRParams:
    C: float = 1.0
    epsilon: float = 0.1
    learning_rate: float = 0.05
    epochs: int = 50

    kind: ClassVar[str] = "linear_svr"

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.C < math.inf:
            raise InvalidValue("C must be finite and positive")
        if not 0 <= self.epsilon < math.inf:
            raise InvalidValue("epsilon must be finite and >= 0")
        if not 0 < self.learning_rate < math.inf or self.epochs < 1:
            raise InvalidValue(
                "learning_rate must be finite and positive, epochs >= 1"
            )


RegressorKind = Union[RandomForestParams, BayesianRidgeParams, LinearSVRParams]

_KINDS = {
    cls.kind: cls
    for cls in (RandomForestParams, BayesianRidgeParams, LinearSVRParams)
}


def regressor_from_dict(spec) -> RegressorKind:
    """The ``regressor`` config section ``{"kind": ..., **params}``; a bad
    one raises :class:`InvalidSpec` naming the key."""
    kinds = sorted(_KINDS)
    if not (isinstance(spec, dict) and spec.get("kind") in kinds):
        raise InvalidSpec(f"'regressor' needs a kind in {kinds}, got {spec!r}")
    params = {k: v for k, v in spec.items() if k != "kind"}
    return read_config(params, _KINDS[spec["kind"]], "regressor")


@dataclass(frozen=True)
class TrainReport:
    """The training set's size and the model's accuracy on it."""

    n_rows: int
    train_accuracy: float


@dataclass(frozen=True)
class TrainedModel:
    """Fitted state plus the train-time feature scaling.

    ``predict_many`` is a pure function of (state, input); constant features
    record a scaling std of 1 so standardization never divides by zero.
    """

    kind: RegressorKind
    state: ForestState | LinearState
    scale_mean: np.ndarray
    scale_std: np.ndarray

    @property
    def n_features(self) -> int:
        return self.scale_mean.shape[0]


def train(kind: RegressorKind, data: FlowDataset, seed) -> TrainedModel:
    """Fit one regressor on a dataset carrying 0.0/1.0 targets.

    Deterministic given ``seed`` (an int, or a tuple key path).  Raises
    :class:`DegenerateData` unless both target values are present,
    :class:`NonFinite` naming a feature whose training mean or standard
    deviation is not finite, and :class:`InvalidSpec` for a ``kind`` that
    is not a regressor's params.
    """
    if data.targets is None:
        raise DegenerateData(
            "dataset has no training targets; use binary_dataset"
        )
    y = data.targets
    if len(data) < 2 or not (np.any(y == 0.0) and np.any(y == 1.0)):
        raise DegenerateData(
            "training requires at least two rows with both target values"
        )
    X = data.features
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = X.mean(axis=0), X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
    if bad.size:
        j = bad[0]
        raise NonFinite(
            f"feature {data.schema.feature_names[j]!r} cannot be scaled: "
            f"training mean {mean[j]:.6g}, standard deviation {std[j]:.6g}"
        )
    std = np.where(std == 0.0, 1.0, std)
    key = normalize_key(seed)

    if isinstance(kind, RandomForestParams):
        state = train_forest(X, y, kind, key)
    elif isinstance(kind, BayesianRidgeParams):
        state = fit_bayesian_ridge(
            (X - mean) / std, y, kind.max_evidence_iters, kind.tol
        )
    elif isinstance(kind, LinearSVRParams):
        state = fit_linear_svr((X - mean) / std, y, kind, key)
    else:
        raise InvalidSpec(f"unsupported regressor kind: {kind!r}")

    return TrainedModel(kind=kind, state=state, scale_mean=mean, scale_std=std)


def predict_many(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Raw scores for a batch of flows; may fall outside [0, 1]."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise SchemaMismatch(
            f"expected (n, {model.n_features}) features, got {X.shape}"
        )
    if isinstance(model.state, ForestState):
        return forest_predict(model.state, X)
    Z = (X - model.scale_mean) / model.scale_std
    # a row-wise reduction, not ``Z @ w``: BLAS matrix-vector kernels may
    # sum a batch's remainder rows (the last n % 4 at 78 features) in
    # another order, so a flow's score would depend on its batch
    return (Z * model.state.weights).sum(axis=1) + model.state.intercept


def evaluate_accuracy(
    model: TrainedModel, data: FlowDataset, cut: float = 0.5
) -> float:
    """Fraction of rows where (score >= cut) agrees with (target == 1)."""
    if len(data) == 0:
        raise EmptyInput("cannot evaluate on an empty dataset")
    if data.targets is None:
        raise DegenerateData("dataset has no targets to evaluate against")
    scores = predict_many(model, data.features)
    return float(np.mean((scores >= cut) == (data.targets == 1.0)))


def model_to_json(model: TrainedModel,
                  train_report: TrainReport | None = None) -> str:
    """The model as a versioned JSON document, every float exact.  A
    ``train_report``, when given, is recorded in the document."""
    if isinstance(model.state, ForestState):
        state = {
            "trees": [
                {
                    "feature": t.feature.tolist(),
                    "threshold": t.threshold.tolist(),
                    "left": t.left.tolist(),
                    "right": t.right.tolist(),
                    "value": t.value.tolist(),
                }
                for t in model.state.trees
            ]
        }
    else:
        state = {
            "weights": model.state.weights.tolist(),
            "intercept": float(model.state.intercept),
        }
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind.kind,
        "hyperparams": asdict(model.kind),
        "scaling": {
            "mean": model.scale_mean.tolist(),
            "std": model.scale_std.tolist(),
        },
        "state": state,
    }
    if train_report is not None:
        doc["train_report"] = asdict(train_report)
    return json.dumps(doc, sort_keys=True, indent=2)
