"""Right-censored survival estimation.

Two estimators live here:

* Kaplan-Meier product-limit curves with Greenwood variance.  The curve
  is a right-continuous step function; censored observations reduce the
  at-risk counts through the recursion
  ``r_i = r_{i-1} - d_{i-1} - c_{i-1}`` but contribute no factor.

* Cox proportional hazards regression ``h(t) = h0(t) * exp(beta . x)``,
  fitted by Newton-Raphson on the log partial likelihood with the Breslow
  approximation for tied event times and an optional ridge penalty
  ``-lambda * ||beta||^2 / 2``.  Covariates are standardized internally;
  reported coefficients are on the original scale.

All operations are pure functions over immutable inputs.  Risk-set sums
are reduced in a fixed (descending time, stable) order so repeated runs
are bit-identical.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, NoEvents, NonFinite, SingularHessian

# two-sided 95% normal quantile used for confidence bounds
Z95 = 1.959964


@dataclass(frozen=True)
class SurvivalRecord:
    """One observation: time on study, event indicator, covariate vector.

    ``event == 1`` means the event was observed at ``time``; ``event == 0``
    means the observation was censored then.
    """

    time: float
    event: int
    covariates: np.ndarray

    def __post_init__(self):
        if self.time < 0:
            raise ValueError("survival time must be non-negative")
        if self.event not in (0, 1):
            raise ValueError("event indicator must be 0 or 1")
        cov = np.asarray(self.covariates, dtype=np.float64)
        if cov.ndim != 1:
            raise LengthMismatch("covariates must be a 1-D vector")
        if not np.all(np.isfinite(cov)):
            raise NonFinite("covariates must be finite")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "event", int(self.event))


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
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate([[self.initial], self.values])
        out = padded[idx]
        return float(out) if np.isscalar(t) else out


@dataclass(frozen=True)
class KMCurve:
    """Kaplan-Meier estimate over the distinct event times.

    ``censored_before[i]`` counts censorings in the gap ending at
    ``times[i]``; censorings at or after the last event time are only in
    ``censor_times``.
    """

    times: np.ndarray             # distinct event times, ascending
    n_risk: np.ndarray            # r_i
    n_event: np.ndarray           # d_i >= 1
    censored_before: np.ndarray   # c_{i-1}
    survival: np.ndarray          # S_i, non-increasing
    greenwood_var: np.ndarray
    n_total: int
    censor_times: np.ndarray      # every censored observation time, sorted

    def __post_init__(self):
        k = self.times.shape[0]
        if k:
            if np.any(self.n_event < 1):
                raise ValueError("every listed event time needs >= 1 event")
            expected = self.n_total - int(self.censored_before[0])
            if self.n_risk[0] != expected:
                raise ValueError("at-risk count inconsistent at first event")
            for i in range(1, k):
                if self.n_risk[i] != (
                    self.n_risk[i - 1]
                    - self.n_event[i - 1]
                    - self.censored_before[i]
                ):
                    raise ValueError("at-risk recursion violated")
            if np.any(np.diff(self.survival) > 1e-15):
                raise ValueError("survival estimates must be non-increasing")


def km_fit(records) -> KMCurve:
    """Product-limit estimate ``S_i = prod_{j<=i} (1 - d_j / r_j)``.

    Greenwood's variance ``S_i^2 * sum_{j<=i} d_j / (r_j (r_j - d_j))`` is
    attached per step (0 where the curve reaches exactly zero).
    """
    records = list(records)
    if not records:
        raise EmptyInput("no survival records")
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])
    n = times.shape[0]

    event_times = np.unique(times[events == 1])
    censor_times = np.sort(times[events == 0])
    all_sorted = np.sort(times)

    k = event_times.shape[0]
    d = np.zeros(k, dtype=np.int64)
    r = np.zeros(k, dtype=np.int64)
    c_before = np.zeros(k, dtype=np.int64)
    prev = -np.inf
    for i, t in enumerate(event_times):
        d[i] = int(np.sum((times == t) & (events == 1)))
        r[i] = n - int(np.searchsorted(all_sorted, t, side="left"))
        c_before[i] = int(
            np.searchsorted(censor_times, t, side="left")
            - np.searchsorted(censor_times, prev, side="left")
        )
        prev = t

    frac = 1.0 - d / r if k else np.zeros(0)
    survival = np.cumprod(frac)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(r > d, d / (r * (r - d).astype(np.float64)), np.inf)
        gw = survival**2 * np.cumsum(terms)
    gw = np.where(survival == 0.0, 0.0, gw)

    return KMCurve(
        times=event_times.astype(np.float64),
        n_risk=r,
        n_event=d,
        censored_before=c_before,
        survival=survival,
        greenwood_var=gw,
        n_total=n,
        censor_times=censor_times.astype(np.float64),
    )


def km_survival_at(curve: KMCurve, t) -> float:
    """Right-continuous read-off: product over event times <= t."""
    step = StepFunction(curve.times, curve.survival, initial=1.0)
    return step(t)


def cumulative_death_at(curve: KMCurve, t) -> float:
    """Complement of the survival estimate, ``1 - S(t)``."""
    return 1.0 - km_survival_at(curve, t)


def _as_arrays(records, beta=None):
    records = list(records)
    if not records:
        raise EmptyInput("no survival records")
    width = records[0].covariates.shape[0]
    for r in records:
        if r.covariates.shape[0] != width:
            raise LengthMismatch("records carry covariates of unequal length")
    X = np.array([r.covariates for r in records])
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records], dtype=np.int64)
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (width,):
            raise LengthMismatch(
                f"beta has shape {beta.shape}, covariates have width {width}"
            )
    return times, events, X, beta


def _risk_set_sums(eta, X, risk, order):
    """S0, S1, S2 of one risk set under its own max(eta) shift."""
    shift = float(eta[risk].max())
    w = np.exp(eta[risk] - shift)
    Xr = X[risk]
    s1 = w @ Xr if order >= 1 else None
    s2 = (Xr * w[:, None]).T @ Xr if order >= 2 else None
    return float(w.sum()), s1, s2, shift


def _breslow_scan(times, events, X, beta, order=2):
    """Log partial likelihood and its derivatives in one descending pass.

    For each distinct event time the risk set is everyone with observed
    time >= that time; tied events share the risk-set denominator (the
    Breslow approximation).  Exponentials are shifted by max(eta) so the
    scan tolerates large linear predictors; the shift cancels in every
    ratio and is restored in the log terms.  A late risk set whose shifted
    weights all underflow to 0 is summed again under its own max shift.
    """
    n, width = X.shape
    eta = X @ beta
    shift = float(eta.max()) if n else 0.0
    w = np.exp(eta - shift)

    desc = np.argsort(-times, kind="stable")
    ll = 0.0
    grad = np.zeros(width) if order >= 1 else None
    hess = np.zeros((width, width)) if order >= 2 else None

    s0 = 0.0
    s1 = np.zeros(width)
    s2 = np.zeros((width, width))
    i = 0
    while i < n:
        t = times[desc[i]]
        j = i
        while j < n and times[desc[j]] == t:
            j += 1
        block = desc[i:j]
        wb = w[block]
        Xb = X[block]
        s0 += float(wb.sum())
        if order >= 1:
            s1 += wb @ Xb
        if order >= 2:
            s2 += (Xb * wb[:, None]).T @ Xb
        ev = block[events[block] == 1]
        n_dead = ev.shape[0]
        if n_dead:
            r0, r1, r2, r_shift = s0, s1, s2, shift
            if s0 == 0.0:
                r0, r1, r2, r_shift = _risk_set_sums(eta, X, desc[:j], order)
            ll += float(eta[ev].sum()) - n_dead * (math.log(r0) + r_shift)
            if order >= 1:
                xbar = r1 / r0
                grad += X[ev].sum(axis=0) - n_dead * xbar
            if order >= 2:
                hess -= n_dead * (r2 / r0 - np.outer(xbar, xbar))
        i = j
    return ll, grad, hess


def cox_log_partial_likelihood(beta, records) -> float:
    """Breslow log partial likelihood at ``beta``; 0.0 with no events."""
    times, events, X, beta = _as_arrays(records, beta)
    ll, _, _ = _breslow_scan(times, events, X, beta, order=0)
    return ll


def cox_gradient(beta, records) -> np.ndarray:
    """Analytic first derivative of the Breslow log partial likelihood."""
    times, events, X, beta = _as_arrays(records, beta)
    _, grad, _ = _breslow_scan(times, events, X, beta, order=1)
    return grad


def cox_hessian(beta, records) -> np.ndarray:
    """Analytic second derivative; negative semi-definite."""
    times, events, X, beta = _as_arrays(records, beta)
    _, _, hess = _breslow_scan(times, events, X, beta, order=2)
    return hess


@dataclass(frozen=True)
class CoxOptions:
    ridge: float = 0.0  # penalty strength lambda, on the standardized scale
    tol: float = 1e-8
    max_iter: int = 100

    def __post_init__(self):
        if self.ridge < 0:
            raise ValueError("ridge strength must be >= 0")


@dataclass(frozen=True)
class CoxModel:
    """Fitted proportional-hazards coefficients with Wald statistics.

    Coefficients, standard errors and confidence bounds are reported on
    the original covariate scale; ``penalty`` is the ridge strength that
    was actually used (it grows when a singular Hessian forces a retry).
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


def _newton(times, events, Z, lam, tol, max_iter):
    width = Z.shape[1]
    beta = np.zeros(width)
    ll, grad, hess = _breslow_scan(times, events, Z, beta, order=2)
    ll_pen = ll - 0.5 * lam * float(beta @ beta)
    iterations = 0
    converged = False
    grad_norm = np.inf
    while iterations < max_iter:
        grad_pen = grad - lam * beta
        grad_norm = float(np.abs(grad_pen).max())
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
        for _ in range(20):  # step-halving; trials only need the objective
            trial = beta + scale * step
            ll_t, _, _ = _breslow_scan(times, events, Z, trial, order=0)
            ll_t_pen = ll_t - 0.5 * lam * float(trial @ trial)
            if np.isfinite(ll_t_pen) and ll_t_pen >= floor:
                beta = trial
                ll, grad, hess = _breslow_scan(times, events, Z, beta, order=2)
                ll_pen = ll_t_pen
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break  # no uphill step available; report non-convergence
    else:
        grad_pen = grad - lam * beta
        grad_norm = float(np.abs(grad_pen).max())
        converged = grad_norm < tol
    return beta, ll, hess, converged, iterations, grad_norm


def _breslow_cumhaz(times, events, X, beta) -> StepFunction:
    """Cumulative baseline hazard: at each event time add
    ``d / sum_{risk set} exp(beta . x)``, computed in log space."""
    eta = X @ beta
    desc = np.argsort(-times, kind="stable")
    log_denoms = []
    event_ts = []
    log_s0 = -np.inf
    i = 0
    n = times.shape[0]
    while i < n:
        t = times[desc[i]]
        j = i
        while j < n and times[desc[j]] == t:
            j += 1
        block = desc[i:j]
        log_s0 = np.logaddexp.reduce(np.concatenate([[log_s0], eta[block]]))
        n_dead = int(events[block].sum())
        if n_dead:
            event_ts.append(t)
            log_denoms.append(math.log(n_dead) - log_s0)
        i = j
    event_ts = np.array(event_ts[::-1])
    increments = np.exp(np.array(log_denoms[::-1]))
    return StepFunction(
        times=event_ts, values=np.cumsum(increments), initial=0.0
    )


def normal_two_sided_p(z) -> np.ndarray:
    """Two-sided tail probability of a standard normal statistic."""
    z = np.asarray(z, dtype=np.float64)
    return np.vectorize(math.erfc)(np.abs(z) / math.sqrt(2.0))


def cox_fit(
    records,
    options: CoxOptions = CoxOptions(),
    feature_names: tuple[str, ...] | None = None,
) -> CoxModel:
    """Maximize the (optionally ridge-penalized) log partial likelihood.

    Newton-Raphson with up to 20 step-halvings per iteration; a step is
    accepted only if the penalized objective does not decrease.  A
    singular Hessian triggers one automatic retry with the penalty raised
    to at least 1e-4 and a warning recorded on the model.  After
    ``max_iter`` iterations without meeting ``tol`` the model is returned
    with ``converged=False`` (monotone-likelihood and separation cases).

    Raises :class:`NoEvents` when every record is censored.
    """
    times, events, X, _ = _as_arrays(records)
    n, width = X.shape
    if events.sum() == 0:
        raise NoEvents("all records are censored; nothing to fit")
    if feature_names is None:
        feature_names = tuple(f"x{j}" for j in range(width))
    if len(feature_names) != width:
        raise LengthMismatch("one feature name per covariate required")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    Z = (X - mu) / sd

    def attempt(lam):
        beta_std, ll, hess, converged, iterations, grad_norm = _newton(
            times, events, Z, lam, options.tol, options.max_iter
        )
        neg_hess_pen = -(hess - lam * np.eye(width))
        try:
            cov = np.linalg.inv(neg_hess_pen)
        except np.linalg.LinAlgError:
            raise SingularHessian(
                "information matrix is singular at the optimum"
            )
        if not np.all(np.isfinite(cov)):
            raise SingularHessian("information matrix inversion overflowed")
        return beta_std, ll, converged, iterations, grad_norm, cov

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
    beta_std, ll, converged, iterations, grad_norm, cov = result
    se_std = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    beta = beta_std / sd
    se = se_std / sd
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se_std > 0, beta_std / se_std, 0.0)
    p = normal_two_sided_p(z)

    return CoxModel(
        feature_names=tuple(feature_names),
        beta=beta,
        hazard_ratios=np.exp(beta),
        std_errors=se,
        p_values=p,
        ci95_low=beta - Z95 * se,
        ci95_high=beta + Z95 * se,
        log_partial_likelihood=ll,
        penalty=lam,
        converged=converged,
        iterations=iterations,
        final_grad_norm=grad_norm,
        baseline_cumhaz=_breslow_cumhaz(times, events, X, beta),
        warnings=tuple(warnings),
    )


def hazard_ratios(model: CoxModel) -> np.ndarray:
    """``exp(beta)`` per feature; > 1 raises the event rate, < 1 lowers it."""
    return np.exp(model.beta)


def wald_stats(model: CoxModel) -> dict:
    """Per-feature Wald statistics aligned with ``model.feature_names``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(model.std_errors > 0, model.beta / model.std_errors, 0.0)
    return {
        "feature": model.feature_names,
        "se": model.std_errors,
        "z": z,
        "p": model.p_values,
        "ci95_low": model.ci95_low,
        "ci95_high": model.ci95_high,
    }


def breslow_baseline(model: CoxModel, records) -> StepFunction:
    """Cumulative baseline hazard of ``records`` under the fitted model."""
    times, events, X, beta = _as_arrays(records, model.beta)
    return _breslow_cumhaz(times, events, X, beta)


def cox_survival_at(model: CoxModel, covariates, t):
    """Predicted survival ``S0(t) ** exp(beta . x)`` for one covariate
    vector, with ``S0(t) = exp(-H0(t))`` from the Breslow baseline."""
    x = np.asarray(covariates, dtype=np.float64)
    if x.shape != model.beta.shape:
        raise LengthMismatch(
            f"covariates have shape {x.shape}, model has {model.beta.shape}"
        )
    relative_risk = math.exp(float(model.beta @ x))
    cumhaz = np.asarray(model.baseline_cumhaz(t), dtype=np.float64)
    out = np.exp(-cumhaz * relative_risk)
    return float(out) if np.isscalar(t) else out


# ---------------------------------------------------------------------------
# serialization


def _open_sink(sink, mode):
    if isinstance(sink, (str, os.PathLike)):
        return open(sink, mode, newline=""), True
    return sink, False


def km_to_csv(curve: KMCurve, sink) -> None:
    """One row per distinct observed time (events and censorings)."""
    fh, own = _open_sink(sink, "w")
    try:
        writer = csv.writer(fh)
        writer.writerow(
            ["time", "n_risk", "n_event", "n_censored", "survival",
             "greenwood_var"]
        )
        ct, counts = np.unique(curve.censor_times, return_counts=True)
        censor_map = dict(zip(ct.tolist(), counts.tolist()))
        all_times = sorted(set(curve.times.tolist()) | set(ct.tolist()))
        surv = StepFunction(curve.times, curve.survival, initial=1.0)
        gw = StepFunction(curve.times, curve.greenwood_var, initial=0.0)
        event_map = {
            t: (int(r), int(d), float(s), float(g))
            for t, r, d, s, g in zip(
                curve.times.tolist(), curve.n_risk, curve.n_event,
                curve.survival, curve.greenwood_var,
            )
        }
        remaining = curve.n_total
        for t in all_times:
            n_cens = censor_map.get(t, 0)
            if t in event_map:
                n_risk, n_event, s, g = event_map[t]
            else:
                n_risk, n_event, s, g = remaining, 0, float(surv(t)), float(gw(t))
            writer.writerow(
                [repr(float(t)), n_risk, n_event, n_cens, repr(s), repr(g)]
            )
            remaining = n_risk - n_event - n_cens
    finally:
        if own:
            fh.close()


def km_from_csv(source) -> KMCurve:
    """Rebuild a curve from :func:`km_to_csv` output."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="") as fh:
            rows = list(csv.DictReader(fh))
    else:
        rows = list(csv.DictReader(source))
    if not rows:
        raise EmptyInput("empty KM curve CSV")
    times, n_risk, n_event, survival, gw = [], [], [], [], []
    censor_times = []
    total = None
    for row in rows:
        t = float(row["time"])
        d = int(row["n_event"])
        c = int(row["n_censored"])
        r = int(row["n_risk"])
        if total is None:
            total = r
        censor_times.extend([t] * c)
        if d:
            times.append(t)
            n_risk.append(r)
            n_event.append(d)
            survival.append(float(row["survival"]))
            gw.append(float(row["greenwood_var"]))
    times = np.array(times)
    censor_arr = np.array(sorted(censor_times))
    c_before = np.zeros(len(times), dtype=np.int64)
    prev = -np.inf
    for i, t in enumerate(times):
        c_before[i] = int(
            np.searchsorted(censor_arr, t, side="left")
            - np.searchsorted(censor_arr, prev, side="left")
        )
        prev = t
    return KMCurve(
        times=times,
        n_risk=np.array(n_risk, dtype=np.int64),
        n_event=np.array(n_event, dtype=np.int64),
        censored_before=c_before,
        survival=np.array(survival),
        greenwood_var=np.array(gw),
        n_total=int(total),
        censor_times=censor_arr,
    )


def cox_to_csv(model: CoxModel, sink) -> None:
    fh, own = _open_sink(sink, "w")
    try:
        writer = csv.writer(fh)
        writer.writerow(
            ["feature", "beta", "hr", "se", "z", "p", "ci_low", "ci_high"]
        )
        stats = wald_stats(model)
        for j, name in enumerate(model.feature_names):
            writer.writerow([
                name,
                repr(float(model.beta[j])),
                repr(float(model.hazard_ratios[j])),
                repr(float(model.std_errors[j])),
                repr(float(stats["z"][j])),
                repr(float(model.p_values[j])),
                repr(float(model.ci95_low[j])),
                repr(float(model.ci95_high[j])),
            ])
    finally:
        if own:
            fh.close()


def cox_from_csv(source) -> dict:
    """Columns of :func:`cox_to_csv` output as arrays."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, newline="") as fh:
            rows = list(csv.DictReader(fh))
    else:
        rows = list(csv.DictReader(source))
    if not rows:
        raise EmptyInput("empty Cox table CSV")
    out: dict = {"feature": tuple(r["feature"] for r in rows)}
    for col in ("beta", "hr", "se", "z", "p", "ci_low", "ci_high"):
        out[col] = np.array([float(r[col]) for r in rows])
    return out


def cox_convergence_report(model: CoxModel) -> dict:
    return {
        "iterations": model.iterations,
        "final_grad_norm": model.final_grad_norm,
        "penalty": model.penalty,
        "converged": model.converged,
        "warnings": list(model.warnings),
    }
