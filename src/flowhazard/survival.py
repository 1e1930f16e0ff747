"""Right-censored survival estimation.

Two estimators live here:

* Kaplan-Meier product-limit curves with Greenwood variance, one row per
  distinct observed time.  The curve is a right-continuous step function;
  censored observations reduce the at-risk counts through the recursion
  ``r_i = r_{i-1} - d_{i-1} - c_{i-1}`` but contribute no factor, so a
  row of only censorings keeps the survival of the row before it.

* Cox proportional hazards regression ``h(t) = h0(t) * exp(beta . x)``,
  fitted by Newton-Raphson on the log partial likelihood with the Breslow
  approximation for tied event times and an optional ridge penalty
  ``-lambda * ||beta||^2 / 2``.  Covariates are standardized internally;
  reported coefficients are on the original scale.  The Breslow baseline
  hazard is read off the risk-set sums of the last Newton scan.

Both read columnar data (:class:`SurvivalTable`).  Rows are sorted once
per fit by descending time (stable) and cut into blocks of tied times, so
every risk set is a prefix of that order: the Kaplan-Meier counts and
the Cox risk-set sums are cumulative sums over the blocks, read at the
block ends, with no loop over times.  The reduction order is fixed, so
repeated runs are bit-identical.

A table is saved and read back as CSV by :func:`write_survival_table` and
:func:`read_survival_table`; the curve and the fit are written by
:func:`km_to_csv` and :func:`cox_to_csv`.  Each writer hands a header
and its columns to :func:`csvio.write_table`, so all three share one
format.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .csvio import _CsvChunks, open_text, write_table
from .errors import (
    EmptyInput,
    InvalidValue,
    LengthMismatch,
    NoEvents,
    NonFinite,
    SchemaMismatch,
    SingularHessian,
    check_fields,
)

# two-sided 95% normal quantile used for confidence bounds
Z95 = 1.959964


@dataclass(frozen=True)
class SurvivalRecord:
    """One row of a :class:`SurvivalTable`: time on study, event
    indicator, covariate vector.

    ``event == 1`` means the event was observed at ``time``; ``event == 0``
    means the observation was censored then.  The table checks its values
    when it is built; a row is not checked again.
    """

    time: float
    event: int
    covariates: np.ndarray


def _reject(bad: np.ndarray, column: str, problem: str, values, error):
    """Raise ``error`` naming the first 1-based row flagged in ``bad``."""
    rows = np.flatnonzero(bad)
    if rows.size:
        i = int(rows[0])
        raise error(
            f"data row {i + 1}, column {column!r}: {problem}, "
            f"got {values[i].item()!r}"
        )


@dataclass(frozen=True)
class SurvivalTable:
    """Survival data in columns, one row per subject.

    ``times`` (n,) on study, ``events`` (n,) with 1 for an observed event
    and 0 for a censoring, covariate matrix ``X`` (n, F), and one name per
    column (``x0``, ``x1``, ... when none are given).  The columns are
    checked once, when the table is built; an invalid value is reported
    with its 1-based data row and its column.  ``len`` counts the rows
    and iteration gives each as a :class:`SurvivalRecord`.
    """

    times: np.ndarray
    events: np.ndarray
    X: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        events = np.asarray(self.events)
        X = np.asarray(self.X, dtype=np.float64)
        n = times.shape[0] if times.ndim == 1 else -1
        if events.shape != (n,) or X.ndim != 2 or X.shape[0] != n:
            raise LengthMismatch(
                f"times {times.shape}, events {events.shape} and covariates "
                f"{X.shape} do not describe the same rows"
            )
        if n == 0:
            raise EmptyInput("no survival records")
        names = self.feature_names
        if names is None:
            names = tuple(f"x{j}" for j in range(X.shape[1]))
        if len(names) != X.shape[1]:
            raise LengthMismatch("one feature name per covariate required")
        if len(set(names)) != len(names):
            name = next(n for i, n in enumerate(names) if n in names[:i])
            raise SchemaMismatch(
                f"covariate name {name!r} appears more than once"
            )
        _reject(~(np.isfinite(times) & (times >= 0.0)), "time",
                "survival time must be a finite number >= 0", times,
                InvalidValue)
        _reject((events != 0) & (events != 1), "event",
                "event indicator must be 0 or 1", events, InvalidValue)
        finite = np.isfinite(X)
        if not finite.all():
            j = int(np.flatnonzero(~finite.all(axis=0))[0])
            _reject(~finite[:, j], names[j], "covariates must be finite",
                    X[:, j], NonFinite)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events.astype(np.int64))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "feature_names", tuple(names))

    def __len__(self) -> int:
        return self.times.shape[0]

    def __iter__(self):
        return map(SurvivalRecord, self.times, self.events, self.X)


@dataclass(frozen=True)
class _TieBlocks:
    """Rows in descending time order, cut into blocks of tied times.

    The risk set of block k (every row with time >= its time) is the
    prefix ``order[:ends[k]]``, so a sum over each risk set is a
    cumulative sum over the blocks.
    """

    order: np.ndarray       # row indices; descending time, ties in row order
    starts: np.ndarray      # first position of each block in ``order``
    ends: np.ndarray        # one past its last position: the risk-set size
    times: np.ndarray       # time of each block
    dead: np.ndarray        # events in each block
    event_rows: np.ndarray  # rows with an observed event


def _run_starts(x: np.ndarray) -> np.ndarray:
    """The index of the first element of each run of equal values."""
    first = np.ones(x.shape, dtype=bool)
    first[1:] = x[1:] != x[:-1]
    return np.flatnonzero(first)


def _tie_blocks(times: np.ndarray, events: np.ndarray) -> _TieBlocks:
    order = np.argsort(-times, kind="stable")
    t = times[order]
    starts = _run_starts(t)
    return _TieBlocks(
        order=order,
        starts=starts,
        ends=np.r_[starts[1:], t.shape[0]],
        times=t[starts],
        dead=np.add.reduceat(events[order], starts),
        event_rows=np.flatnonzero(events),
    )


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function equal to ``initial`` before the
    first knot."""

    times: np.ndarray
    values: np.ndarray
    initial: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise LengthMismatch("times and values must be 1-D of equal length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __call__(self, t):
        if np.isnan(t).any():
            raise InvalidValue(f"step function read at a NaN time: {t!r}")
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate([[self.initial], self.values])
        out = padded[idx]
        return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class KMCurve:
    """Kaplan-Meier estimate, one row per distinct observed time.

    A row with no event (only censorings) keeps the survival and
    Greenwood variance of the row before it, 1 and 0 before the first
    event.  The at-risk counts follow ``r_{i+1} = r_i - d_i - c_i``.
    """

    times: np.ndarray          # distinct observed times, ascending
    n_risk: np.ndarray         # r_i
    n_event: np.ndarray        # d_i >= 0
    n_censored: np.ndarray     # c_i >= 0
    survival: np.ndarray       # S_i, non-increasing
    greenwood_var: np.ndarray


def km_fit(table: SurvivalTable) -> KMCurve:
    """Product-limit estimate ``S_i = prod_{j<=i} (1 - d_j / r_j)``.

    Greenwood's variance ``S_i^2 * sum_{j<=i} d_j / (r_j (r_j - d_j))`` is
    attached per row (0 where the curve reaches exactly zero).  A row
    without events multiplies by exactly 1 and adds exactly 0.
    """
    blocks = _tie_blocks(table.times, table.events)
    # per distinct time, ascending; r is the size of the risk set
    d = blocks.dead[::-1]
    r = blocks.ends[::-1]
    survival = np.cumprod(1.0 - d / r)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(r > d, d / (r * (r - d).astype(np.float64)), np.inf)
        gw = survival**2 * np.cumsum(terms)
    gw = np.where(survival == 0.0, 0.0, gw)

    return KMCurve(
        times=blocks.times[::-1],
        n_risk=r,
        n_event=d,
        n_censored=(blocks.ends - blocks.starts)[::-1] - d,
        survival=survival,
        greenwood_var=gw,
    )


def km_survival_at(curve: KMCurve, t) -> float:
    """Right-continuous read-off: product over event times <= t."""
    step = StepFunction(curve.times, curve.survival, initial=1.0)
    return step(t)


def constant_columns(X: np.ndarray) -> np.ndarray:
    """Per column of ``X``, whether every value equals its first."""
    return (X == X[0]).all(axis=0)


def _risk_set_sums(eta, X, risk, order):
    """S0, S1, S2 of one risk set under its own max(eta) shift."""
    shift = float(eta[risk].max())
    w = np.exp(eta[risk] - shift)
    Xr = X[risk]
    s1 = w @ Xr if order >= 1 else None
    s2 = (Xr * w[:, None]).T @ Xr if order >= 2 else None
    return float(w.sum()), s1, s2, shift


# A globally shifted S0 below this is summed again under its own shift.
# Above it S0 is a normal float, and every d / S0 in the Hessian's
# reverse cumulative sum, and their total over <= 1e18 events, is finite.
_S0_FLOOR = 1e-290


def _breslow_scan(blocks: _TieBlocks, X, beta, order=2):
    """Log partial likelihood, its derivatives and log S0 per event block
    (descending time) from cumulative sums.

    The risk set of an event block is a prefix of the descending-time
    order, so its S0 = sum w and S1 = sum w x are cumulative sums of
    per-block sums, read at the block; tied events share the denominator
    (the Breslow approximation).  The Hessian needs sum_k d_k S2_k / S0_k,
    which equals X' diag(w a) X with a_i = sum of d_k / S0_k over the event
    blocks whose risk set holds row i (a reverse cumulative sum), so no
    per-block F x F matrix is formed.  Exponentials are shifted by the
    global max(eta); the shift cancels in every ratio and is restored in
    the log terms.  An event block whose shifted S0 falls below
    ``_S0_FLOOR`` is summed again under its own max shift.
    """
    eta = X @ beta
    shift = float(eta.max())
    w = np.exp(eta[blocks.order] - shift)
    ev = np.flatnonzero(blocks.dead)
    d = blocks.dead[ev].astype(np.float64)
    s0 = np.cumsum(np.add.reduceat(w, blocks.starts))[ev]
    shifts = np.full(ev.shape, shift)
    low = np.flatnonzero(s0 < _S0_FLOOR)
    redo = [
        _risk_set_sums(eta, X, blocks.order[: blocks.ends[ev[k]]], order)
        for k in low
    ]
    for k, (r0, _, _, r_shift) in zip(low, redo):
        s0[k], shifts[k] = r0, r_shift

    log_s0 = np.log(s0) + shifts
    ll = float(eta[blocks.event_rows].sum()) - float(d @ log_s0)
    if order < 1:
        return ll, None, None, log_s0
    Xd = X[blocks.order]
    s1 = np.cumsum(
        np.add.reduceat(w[:, None] * Xd, blocks.starts, axis=0), axis=0
    )[ev]
    for k, (_, r1, _, _) in zip(low, redo):
        s1[k] = r1
    xbar = s1 / s0[:, None]
    grad = X[blocks.event_rows].sum(axis=0) - d @ xbar
    if order < 2:
        return ll, grad, None, log_s0
    coef = np.zeros(blocks.starts.shape[0])
    coef[ev] = d / s0
    coef[ev[low]] = 0.0
    a = np.repeat(np.cumsum(coef[::-1])[::-1], blocks.ends - blocks.starts)
    s2 = (Xd * (w * a)[:, None]).T @ Xd
    for k, (r0, _, r2, _) in zip(low, redo):
        s2 += d[k] * r2 / r0
    hess = (xbar * d[:, None]).T @ xbar - s2
    return ll, grad, hess, log_s0


def _beta_for(table: SurvivalTable, beta) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64)
    width = table.X.shape[1]
    if beta.shape != (width,):
        raise LengthMismatch(
            f"beta has shape {beta.shape}, covariates have width {width}"
        )
    return beta


def _scan_at(beta, table: SurvivalTable, order):
    beta = _beta_for(table, beta)
    blocks = _tie_blocks(table.times, table.events)
    return _breslow_scan(blocks, table.X, beta, order)


def cox_log_partial_likelihood(beta, table: SurvivalTable) -> float:
    """Breslow log partial likelihood at ``beta``; 0.0 with no events."""
    return _scan_at(beta, table, order=0)[0]


def cox_gradient(beta, table: SurvivalTable) -> np.ndarray:
    """Analytic first derivative of the Breslow log partial likelihood."""
    return _scan_at(beta, table, order=1)[1]


def cox_hessian(beta, table: SurvivalTable) -> np.ndarray:
    """Analytic second derivative; negative semi-definite."""
    return _scan_at(beta, table, order=2)[2]


@dataclass(frozen=True)
class CoxOptions:
    ridge: float = 0.0  # penalty strength lambda, on the standardized scale
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        check_fields(self)
        if not 0 <= self.ridge < math.inf:
            raise InvalidValue(
                f"ridge must be a finite number >= 0, got {self.ridge!r}"
            )
        if not 0 < self.tol < math.inf:
            raise InvalidValue(f"tol must be finite and > 0, got {self.tol!r}")
        if self.max_iter < 1:
            raise InvalidValue(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class CoxModel:
    """Fitted proportional-hazards coefficients with Wald statistics.

    Coefficients, standard errors and confidence bounds are reported on
    the original covariate scale; ``penalty`` is the ridge strength that
    was actually used (it grows when a singular Hessian forces a retry).
    ``dropped`` names the constant columns: not fitted, beta 0 and p 1.
    """

    feature_names: tuple[str, ...]
    beta: np.ndarray
    hazard_ratios: np.ndarray
    std_errors: np.ndarray
    p_values: np.ndarray
    ci95_low: np.ndarray
    ci95_high: np.ndarray
    log_partial_likelihood: float
    penalty: float
    converged: bool
    iterations: int
    final_grad_norm: float
    baseline_cumhaz: StepFunction
    warnings: tuple[str, ...] = ()
    dropped: tuple[str, ...] = ()


def _newton(blocks, Z, lam, tol, max_iter):
    width = Z.shape[1]
    beta = np.zeros(width)
    ll, grad, hess, log_s0 = _breslow_scan(blocks, Z, beta, order=2)
    ll_pen = ll - 0.5 * lam * float(beta @ beta)
    iterations = 0
    converged = False
    grad_norm = np.inf
    while iterations < max_iter:
        grad_pen = grad - lam * beta
        grad_norm = float(np.abs(grad_pen).max(initial=0.0))
        if grad_norm < tol:
            converged = True
            break
        iterations += 1
        neg_hess = -(hess - lam * np.eye(width))
        try:
            step = np.linalg.solve(neg_hess, grad_pen)
        except np.linalg.LinAlgError:
            raise SingularHessian("Newton step failed: singular Hessian")
        if not np.all(np.isfinite(step)):
            raise SingularHessian("Newton step failed: non-finite step")

        # "does not decrease" with slack for floating-point plateaus near
        # the optimum, where a Newton step can lose a few ulps
        floor = ll_pen - 1e-10 * (abs(ll_pen) + 1.0)
        scale = 1.0
        accepted = False
        for _ in range(20):  # step-halving; an accepted trial's scan is kept
            trial = beta + scale * step
            scan = _breslow_scan(blocks, Z, trial)
            ll_t_pen = scan[0] - 0.5 * lam * float(trial @ trial)
            if np.isfinite(ll_t_pen) and ll_t_pen >= floor:
                beta = trial
                ll, grad, hess, log_s0 = scan
                ll_pen = ll_t_pen
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break  # no uphill step available; report non-convergence
    else:
        grad_pen = grad - lam * beta
        grad_norm = float(np.abs(grad_pen).max(initial=0.0))
        converged = grad_norm < tol
    # ray test: at a finite optimum the objective falls from beta to
    # 2 beta; on separated data it keeps rising, however small the gradient
    rising = False
    if converged and beta.any():
        ray = 2.0 * beta
        ll_ray = _breslow_scan(blocks, Z, ray, order=0)[0]
        ll_ray_pen = ll_ray - 0.5 * lam * float(ray @ ray)
        rising = ll_ray_pen >= ll_pen - 1e-10 * (abs(ll_pen) + 1.0)
        converged = not rising
    return beta, ll, log_s0, converged, iterations, grad_norm, rising, hess


def normal_two_sided_p(z) -> np.ndarray:
    """Two-sided tail probability of a standard normal statistic."""
    z = np.asarray(z, dtype=np.float64)
    return np.vectorize(math.erfc)(np.abs(z) / math.sqrt(2.0))


# Largest |beta| on the standardized scale that a fit may report as an
# optimum.  Past it the partial likelihood is taken to be monotone
# (separated data) and the fit is reported as not converged.  Fits of
# real structure stay far below it: the largest in the benchmark
# workloads is about 6.2.
MONOTONE_BETA_BOUND = 20.0


def cox_fit(table: SurvivalTable,
            options: CoxOptions = CoxOptions()) -> CoxModel:
    """Maximize the (optionally ridge-penalized) log partial likelihood.

    Newton-Raphson with up to 20 step-halvings per iteration; a step is
    accepted only if the penalized objective does not decrease.  A
    singular Hessian triggers one automatic retry with the penalty raised
    to at least 1e-4 and a warning recorded on the model.  After
    ``max_iter`` iterations without meeting ``tol`` the model is returned
    with ``converged=False``.  So is a fit whose penalized likelihood at
    2 beta is not below that at beta, and one that ends with some |beta|
    on the standardized scale above :data:`MONOTONE_BETA_BOUND`: the
    likelihood is monotone there (separated data), and a warning on the
    model says so.  Constant columns (:func:`constant_columns`) are not
    fitted; with none left the model is beta = 0, converged at step 0.

    The model takes the table's column names.  Raises :class:`NoEvents`
    when every row is censored, and :class:`NonFinite` naming a fitted
    column whose mean or standard deviation is not a finite number > 0.
    """
    width = table.X.shape[1]
    if width == 0:
        raise LengthMismatch("no covariate columns to fit")
    if not table.events.any():
        raise NoEvents("all records are censored; nothing to fit")
    blocks = _tie_blocks(table.times, table.events)
    constant = constant_columns(table.X)
    keep = np.flatnonzero(~constant)
    names = [table.feature_names[j] for j in keep]
    X = table.X[:, keep]

    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = X.mean(axis=0), X.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mu) & (0.0 < sd) & (sd < np.inf)))
    if bad.size:
        j = bad[0]
        raise NonFinite(f"covariate {names[j]!r} cannot be standardized: "
                        f"mean {mu[j]:.6g}, standard deviation {sd[j]:.6g}")
    Z = (X - mu) / sd

    def attempt(lam):
        *fit, hess = _newton(blocks, Z, lam, options.tol, options.max_iter)
        neg_hess_pen = -(hess - lam * np.eye(keep.size))
        try:
            cov = np.linalg.inv(neg_hess_pen)
        except np.linalg.LinAlgError:
            raise SingularHessian(
                "information matrix is singular at the optimum"
            )
        if not np.all(np.isfinite(cov)):
            raise SingularHessian("information matrix inversion overflowed")
        return (*fit, cov)

    warnings: list[str] = []
    lam = options.ridge
    try:
        result = attempt(lam)
    except SingularHessian:
        retry = max(lam, 1e-4)
        if retry == lam:
            raise
        warnings.append(
            f"singular Hessian at ridge={lam:g}; retried with ridge={retry:g}"
        )
        lam = retry
        result = attempt(lam)
    beta_std, ll, log_s0, converged, iterations, grad_norm, rising, cov = (
        result
    )
    se_std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    size = np.abs(beta_std)
    if size.max(initial=0.0) > MONOTONE_BETA_BOUND:
        largest = int(np.argmax(size))
        converged = False
        warnings.append(
            f"monotone likelihood: |beta| of {names[largest]} is "
            f"{size[largest]:.3g} per standard deviation, above "
            f"{MONOTONE_BETA_BOUND:g}; the data look separated"
        )
    elif rising:
        warnings.append(
            "monotone likelihood: the likelihood at 2 beta is not below "
            "that at beta; the data look separated"
        )

    # a constant column keeps beta 0, se 0 and z 0, so p 1
    beta, se, z = np.zeros((3, width))
    beta[keep], se[keep] = beta_std / sd, se_std / sd
    with np.errstate(divide="ignore", invalid="ignore"):
        z[keep] = np.where(se_std > 0, beta_std / se_std, 0.0)
    p = normal_two_sided_p(z)
    # Breslow baseline from the last Newton scan: on the standardized
    # scale S0 is smaller by a factor of exp(mu . beta).  A separated fit
    # (flagged above) can take the ratios and the baseline to inf.
    ev = np.flatnonzero(blocks.dead)[::-1]  # ascending time
    with np.errstate(over="ignore"):
        ratios = np.exp(beta)
        increments = np.exp(np.log(blocks.dead[ev]) - log_s0[::-1]
                            - float(mu @ beta[keep]))
    baseline = StepFunction(blocks.times[ev], np.cumsum(increments))

    return CoxModel(
        feature_names=table.feature_names,
        beta=beta,
        hazard_ratios=ratios,
        std_errors=se,
        p_values=p,
        ci95_low=beta - Z95 * se,
        ci95_high=beta + Z95 * se,
        log_partial_likelihood=ll,
        penalty=lam,
        converged=converged,
        iterations=iterations,
        final_grad_norm=grad_norm,
        baseline_cumhaz=baseline,
        warnings=tuple(warnings),
        dropped=tuple(table.feature_names[j]
                      for j in np.flatnonzero(constant)),
    )


def cox_survival_at(model: CoxModel, covariates, t):
    """Predicted survival ``S0(t) ** exp(beta . x)`` for one covariate
    vector, with ``S0(t) = exp(-H0(t))`` from the Breslow baseline."""
    x = np.asarray(covariates, dtype=np.float64)
    if x.shape != model.beta.shape:
        raise LengthMismatch(
            f"covariates have shape {x.shape}, model has {model.beta.shape}"
        )
    cumhaz = np.asarray(model.baseline_cumhaz(t), dtype=np.float64)
    with np.errstate(over="ignore"):  # past float range the risk is inf
        relative_risk = np.exp(model.beta @ x)
        # a zero H0(t) is no hazard at any risk: 0 * inf is 0 here, not nan
        hazard = np.multiply(cumhaz, relative_risk, where=cumhaz > 0,
                             out=np.zeros_like(cumhaz))
    out = np.exp(-hazard)
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# serialization


_FIXED_COLUMNS = ("sequence_id", "time", "event")


def write_survival_table(table: SurvivalTable, sink) -> None:
    """CSV of sequence outcomes (:func:`csvio.write_table`): the row index
    as ``sequence_id``, then time, event and one column per covariate."""
    write_table(sink, _FIXED_COLUMNS + table.feature_names,
                [range(len(table)), table.times, table.events, *table.X.T])


def read_survival_table(source) -> SurvivalTable:
    """Parse :func:`write_survival_table` output into a
    :class:`SurvivalTable` named by the header's covariate columns.

    Blank lines (and lines of only commas or whitespace) are skipped, and
    data rows are numbered from 1 without them.  A missing fixed header
    column is named in the error; a row whose length differs from the
    header's, a cell that is not a number and an out-of-range value are
    reported with their data row and column, and a record the csv module
    rejects (a field over its size limit, a bare carriage return from a
    handle that does not split lines there) with its data row, as
    :class:`InvalidValue`.  The ``sequence_id`` column is not read.

    ``source`` may be a path, ``bytes``, or an open text or binary
    handle.  A path, bytes and a binary handle are read with
    ``newline=""``, as the csv module expects, so a bare carriage return
    ends a line too; a text handle's lines are the ones it yields.  A
    byte-order mark at the start is dropped.  Lines are read in chunks: a
    chunk of plain records with the header's cell count is read by
    numpy's C reader, and any other chunk by the csv module.  A chunk that
    holds an error is checked again together with the rest of the file,
    so the error reported is the one a whole-file read meets first.
    """
    with open_text(source) as fh:
        chunks = _CsvChunks(fh)
        try:
            header = next(chunks.records, None)
        except csv.Error as err:
            raise InvalidValue(f"header: {err}") from None
        if header is None:
            raise EmptyInput("empty survival table")
        header = [h.strip() for h in header]
        try:
            _check_fixed_columns(header)
        except SchemaMismatch:
            # a malformed record outranks the header
            list(_data_records(chunks.records, 0))
            raise
        blocks = []
        n_rows = 0
        for _, plain in chunks.blocks(range(1, len(header)),
                                      n_cells=len(header)):
            if plain is None:
                records = _data_records(chunks.records, n_rows)
                rows = []
                while chunks.pending:
                    rows.append(next(records))
                try:
                    block = _rows_to_block(header, rows, n_rows)
                except (LengthMismatch, ValueError):
                    _rows_to_block(header, rows + list(records), n_rows)
                    raise
            else:
                block = plain[0]
            blocks.append(block)
            n_rows += block.shape[0]
    if not n_rows:
        raise EmptyInput("survival table has no data rows")
    data = np.concatenate(blocks)
    return SurvivalTable(data[:, 0], data[:, 1], data[:, 2:],
                         tuple(header[len(_FIXED_COLUMNS):]))


def _data_records(reader, done: int):
    """The records of the csv ``reader``, after ``done`` data rows that
    are not blank; a record it rejects raises :class:`InvalidValue`
    naming the data row."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise InvalidValue(f"data row {done + 1}: {err}") from None
        done += any(c.strip() for c in row)
        yield row


def _check_fixed_columns(header: list[str]) -> None:
    for i, required in enumerate(_FIXED_COLUMNS):
        if i >= len(header) or header[i].casefold() != required:
            raise SchemaMismatch(
                f"survival table column {i} must be {required!r}, "
                f"got {header[i] if i < len(header) else 'nothing'!r}"
            )


def _rows_to_block(header: list[str], rows, done: int) -> np.ndarray:
    """The cells after ``sequence_id`` of the csv ``rows`` that are not
    blank, as floats; data rows are numbered on from ``done``."""
    body = [row for row in rows if any(c.strip() for c in row)]
    for i, row in enumerate(body, done + 1):
        if len(row) != len(header):
            raise LengthMismatch(
                f"data row {i} has {len(row)} cells, the header has "
                f"{len(header)}"
            )
    cells = [row[1:] for row in body]
    try:
        return np.array(cells, dtype=np.float64).reshape(
            len(cells), len(header) - 1
        )
    except ValueError:
        for i, row in enumerate(cells, done + 1):
            for name, cell in zip(header[1:], row):
                try:
                    float(cell)
                except ValueError:
                    raise InvalidValue(
                        f"data row {i}, column {name!r}: not a number, "
                        f"got {cell!r}"
                    ) from None
        raise


def km_to_csv(curve: KMCurve, sink) -> None:
    """One row per distinct observed time (events and censorings)."""
    write_table(sink, ["time", "n_risk", "n_event", "n_censored", "survival",
                       "greenwood_var"],
                [curve.times, curve.n_risk, curve.n_event, curve.n_censored,
                 curve.survival, curve.greenwood_var])


def cox_to_csv(model: CoxModel, sink) -> None:
    # the Wald statistic beta / se, 0 where se is 0
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(model.std_errors > 0, model.beta / model.std_errors, 0.0)
    write_table(sink, ["feature", "beta", "hr", "se", "z", "p", "ci_low",
                       "ci_high"],
                [model.feature_names, model.beta, model.hazard_ratios,
                 model.std_errors, z, model.p_values, model.ci95_low,
                 model.ci95_high])


def cox_convergence_report(model: CoxModel) -> dict:
    return {
        "iterations": model.iterations,
        "final_grad_norm": model.final_grad_norm,
        "penalty": model.penalty,
        "converged": model.converged,
        "warnings": list(model.warnings),
    }
