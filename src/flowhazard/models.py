"""The three regression classifiers behind one train/predict contract.

All three kinds regress the 0.0/1.0 class target and return an unclipped
real score; the novelty band test downstream interprets raw scores.  The
linear kinds fit on internally standardized features (scaling captured at
train time); the forest (``flowhazard.forest``) splits on raw features,
where split decisions depend only on the ordering of training values, so
it needs no scaling.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

from .errors import (
    DegenerateData, EmptyInput, InvalidSpec, InvalidValue, NonFinite,
    SchemaMismatch, check_fields, read_config,
)
from .flowdata import FlowDataset
from .forest import ForestState, forest_predict, train_forest
from .seeding import normalize_key, rng_from

MODEL_FORMAT = "flowhazard-model"
MODEL_VERSION = 1

_TINY = 1e-12


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
class LinearState:
    """Posterior-mean weights of a linear score on standardized features."""

    weights: np.ndarray
    intercept: float


def fit_bayesian_ridge(
    X: np.ndarray, y: np.ndarray, max_iter: int, tol: float
) -> LinearState:
    """Bayesian ridge regression fit by evidence maximization.

    The weight-precision/noise-precision pair is re-estimated from the data
    each pass (both initialized to 1.0) until the posterior-mean weights stop
    moving.  Implemented through one eigendecomposition of X'X so each pass
    is O(F^2).
    """
    n, n_features = X.shape
    y_mean = float(y.mean())
    yc = y - y_mean

    # products over rows by einsum, not BLAS, which sums in another order
    # when it splits the rows over threads; BLAS forms X'X the same way at
    # every thread count tried
    gram = X.T @ X
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals = np.clip(eigvals, 0.0, None)
    xty_rot = eigvecs.T @ np.einsum("ni,n->i", X, yc)

    weight_prec = 1.0
    noise_prec = 1.0
    w = np.zeros(n_features)
    for _ in range(max_iter):
        denom = weight_prec + noise_prec * eigvals
        w_new = eigvecs @ (noise_prec * xty_rot / denom)
        gamma = float(np.sum(noise_prec * eigvals / denom))
        resid = yc - np.einsum("ni,i->n", X, w_new)
        rss = float(np.einsum("n,n->", resid, resid))
        weight_prec = gamma / max(float(w_new @ w_new), _TINY)
        noise_prec = max(n - gamma, _TINY) / max(rss, _TINY)
        delta = float(np.abs(w_new - w).sum())
        w = w_new
        if delta < tol:
            break
    return LinearState(weights=w, intercept=y_mean)


# a diverging run overflows to inf and nan silently; it is reported below
@np.errstate(over="ignore", invalid="ignore")
def fit_linear_svr(
    X: np.ndarray, y: np.ndarray, params, seed_key
) -> LinearState:
    """Linear support vector regression fit by averaged subgradient descent.

    Per-sample subgradients of the epsilon-insensitive objective
    ``||w||^2 / 2 + C * sum_i max(0, |y_i - w.x_i - b| - eps)`` are applied in
    a seeded shuffle order; the returned weights are the running average of
    all iterates (Polyak averaging), which smooths the non-smooth loss.  A
    learning rate too large for the data makes the iterates overflow; the
    fit then raises :class:`NonFinite` instead of returning them.
    """
    n, n_features = X.shape
    reg = 1.0 / (params.C * n)
    eta = params.learning_rate
    eps = params.epsilon
    rng = rng_from(*seed_key)

    w = np.zeros(n_features)
    b = 0.0
    w_sum = np.zeros(n_features)
    b_sum = 0.0
    steps = 0
    for _ in range(params.epochs):
        for i in rng.permutation(n):
            resid = y[i] - (X[i] @ w + b)
            w *= 1.0 - eta * reg
            if resid > eps:
                w += eta * X[i]
                b += eta
            elif resid < -eps:
                w -= eta * X[i]
                b -= eta
            w_sum += w
            b_sum += b
            steps += 1
    weights, intercept = w_sum / steps, b_sum / steps
    if not (np.isfinite(weights).all() and np.isfinite(intercept)):
        raise NonFinite(
            f"linear SVR diverged: the averaged weights are not finite at "
            f"learning_rate={eta!r}"
        )
    return LinearState(weights=weights, intercept=intercept)


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


def evaluate_accuracy(model: TrainedModel, data: FlowDataset) -> float:
    """Fraction of rows where (score >= 0.5) agrees with (target == 1)."""
    if len(data) == 0:
        raise EmptyInput("cannot evaluate on an empty dataset")
    if data.targets is None:
        raise DegenerateData("dataset has no targets to evaluate against")
    scores = predict_many(model, data.features)
    return float(np.mean((scores >= 0.5) == (data.targets == 1.0)))


def model_to_json_dict(model: TrainedModel) -> dict:
    """The model as a versioned JSON document, every float exact."""
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
    return {
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
