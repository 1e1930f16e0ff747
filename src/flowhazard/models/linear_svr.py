"""Linear support vector regression trained by averaged subgradient descent.

Per-sample subgradients of the epsilon-insensitive objective
``||w||^2 / 2 + C * sum_i max(0, |y_i - w.x_i - b| - eps)`` are applied in
a seeded shuffle order; the returned weights are the running average of
all iterates (Polyak averaging), which smooths the non-smooth loss.  A
learning rate too large for the data makes the iterates overflow; the
fit then raises :class:`NonFinite` instead of returning them.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFinite
from ..seeding import rng_from
from .bayes_ridge import LinearState


# a diverging run overflows to inf and nan silently; it is reported below
@np.errstate(over="ignore", invalid="ignore")
def fit_linear_svr(X: np.ndarray, y: np.ndarray, params, seed_key) -> LinearState:
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
