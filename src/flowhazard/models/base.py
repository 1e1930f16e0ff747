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

from ..errors import DegenerateData, EmptyInput, SchemaMismatch, check_fields
from ..flowdata import FlowDataset
from ..seeding import normalize_key
from .bayes_ridge import LinearState, fit_bayesian_ridge
from .forest import ForestState, Tree, forest_predict, train_forest
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
            raise ValueError("n_trees and min_leaf must be >= 1")
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError("max_depth must be None or >= 0")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be None or >= 1")


@dataclass(frozen=True)
class BayesianRidgeParams:
    max_evidence_iters: int = 300
    tol: float = 1e-4

    kind: ClassVar[str] = "bayesian_ridge"

    def __post_init__(self):
        check_fields(self)
        if self.max_evidence_iters < 1:
            raise ValueError("max_evidence_iters must be >= 1")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")


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
            raise ValueError("C must be finite and positive")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and >= 0")
        if not 0 < self.learning_rate < math.inf or self.epochs < 1:
            raise ValueError(
                "learning_rate must be finite and positive, epochs >= 1"
            )


RegressorKind = Union[RandomForestParams, BayesianRidgeParams, LinearSVRParams]

_KINDS = {
    cls.kind: cls
    for cls in (RandomForestParams, BayesianRidgeParams, LinearSVRParams)
}


def regressor_from_dict(spec: dict) -> RegressorKind:
    """Build hyperparameters from ``{"kind": ..., **params}``."""
    spec = dict(spec)
    kind = spec.pop("kind", None)
    if kind not in _KINDS:
        raise ValueError(f"unknown regressor kind {kind!r}; one of {sorted(_KINDS)}")
    return _KINDS[kind](**spec)


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
    :class:`DegenerateData` unless both target values are present.
    """
    if data.targets is None:
        raise ValueError("dataset has no training targets; use binary_dataset")
    y = data.targets
    if len(data) < 2 or not (np.any(y == 0.0) and np.any(y == 1.0)):
        raise DegenerateData(
            "training requires at least two rows with both target values"
        )
    X = data.features
    mean = X.mean(axis=0)
    std = X.std(axis=0)
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
        raise TypeError(f"unsupported regressor kind: {kind!r}")

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
        raise ValueError("dataset has no targets to evaluate against")
    scores = predict_many(model, data.features)
    return float(np.mean((scores >= cut) == (data.targets == 1.0)))


def _floats(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr).ravel()]


def model_to_json(model: TrainedModel,
                  train_report: TrainReport | None = None) -> str:
    """Versioned JSON; round-trips predictions bit-exactly.  A
    ``train_report``, when given, is recorded in the document; it
    describes the training run and is not read back."""
    if isinstance(model.state, ForestState):
        state = {
            "trees": [
                {
                    "feature": [int(v) for v in t.feature],
                    "threshold": _floats(t.threshold),
                    "left": [int(v) for v in t.left],
                    "right": [int(v) for v in t.right],
                    "value": _floats(t.value),
                }
                for t in model.state.trees
            ]
        }
    else:
        state = {
            "weights": _floats(model.state.weights),
            "intercept": float(model.state.intercept),
        }
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": model.kind.kind,
        "hyperparams": asdict(model.kind),
        "scaling": {
            "mean": _floats(model.scale_mean),
            "std": _floats(model.scale_std),
        },
        "state": state,
    }
    if train_report is not None:
        doc["train_report"] = asdict(train_report)
    return json.dumps(doc, sort_keys=True, indent=2)


def model_from_json(text: str) -> TrainedModel:
    doc = json.loads(text)
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError("not a flowhazard model document")
    if doc.get("version") != MODEL_VERSION:
        raise ValueError(f"unsupported model version {doc.get('version')!r}")
    kind = _KINDS[doc["kind"]](**doc["hyperparams"])
    raw = doc["state"]
    if "trees" in raw:
        state = ForestState(
            trees=tuple(
                Tree(
                    feature=np.array(t["feature"], dtype=np.int32),
                    threshold=np.array(t["threshold"], dtype=np.float64),
                    left=np.array(t["left"], dtype=np.int32),
                    right=np.array(t["right"], dtype=np.int32),
                    value=np.array(t["value"], dtype=np.float64),
                )
                for t in raw["trees"]
            )
        )
    else:
        state = LinearState(
            weights=np.array(raw["weights"], dtype=np.float64),
            intercept=float(raw["intercept"]),
        )
    return TrainedModel(
        kind=kind,
        state=state,
        scale_mean=np.array(doc["scaling"]["mean"], dtype=np.float64),
        scale_std=np.array(doc["scaling"]["std"], dtype=np.float64),
    )
