"""Independent reference implementations used as test oracles.

These deliberately avoid the package's optimized code paths: the partial
likelihood is a direct double loop over explicit risk sets, the
maximizer is found by brute-force grid search, injection streams each
sequence through the classifier on its own, and the per-time scans walk
the distinct times one at a time, growing each risk set block by block.
"""

import math

import numpy as np

from flowhazard import EmptyInput, KMCurve, SequenceResult, SurvivalRecord
from flowhazard.flowdata import abs_diff_covariates
from flowhazard.models import predict_many


def naive_log_partial_likelihood(beta, records):
    """Direct double loop over distinct event times with explicit risk
    sets and the shared tied-event denominator."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])
    X = np.array([r.covariates for r in records])
    total = 0.0
    for t in np.unique(times[events == 1]):
        dead = (times == t) & (events == 1)
        at_risk = times >= t
        d = int(dead.sum())
        total += float((X[dead] @ beta).sum())
        total -= d * math.log(np.exp(X[at_risk] @ beta).sum())
    return total


def grid_search_beta(records, lo=-10.0, hi=10.0, step=1e-4):
    """Brute-force maximizer of the partial likelihood for a scalar
    covariate, vectorized over the grid."""
    times = np.array([r.time for r in records])
    events = np.array([r.event for r in records])
    x = np.array([r.covariates[0] for r in records])
    grid = np.arange(lo, hi + step / 2, step)
    total = np.zeros_like(grid)
    for t in np.unique(times[events == 1]):
        dead = (times == t) & (events == 1)
        at_risk = times >= t
        d = int(dead.sum())
        total += x[dead].sum() * grid
        total -= d * np.log(
            np.exp(np.outer(grid, x[at_risk])).sum(axis=1)
        )
    return float(grid[np.argmax(total)])


def per_sequence_scan(model, post, band, pre_summary, n_sequences, seq_len,
                      rng):
    """Injection as a per-sequence loop: gather each sequence's flows,
    score them with one predict call, and take the first in-band index."""
    if len(post) == 0:
        raise EmptyInput("post-novelty dataset is empty")
    idx = rng.integers(0, len(post), size=(n_sequences, seq_len))
    sequences = post.features[idx]
    low, high = band
    results = []
    for seq_id, sequence in enumerate(sequences):
        scores = predict_many(model, sequence)
        hits = np.flatnonzero((scores >= low) & (scores <= high))
        if hits.size:
            i = int(hits[0])
            record = SurvivalRecord(
                time=float(i),
                event=1,
                covariates=abs_diff_covariates(sequence[i], pre_summary),
            )
            results.append(
                SequenceResult(seq_id, record, i, scores[: i + 1])
            )
            continue
        record = SurvivalRecord(
            time=float(sequence.shape[0]),
            event=0,
            covariates=np.abs(sequence - pre_summary.means).mean(axis=0),
        )
        results.append(SequenceResult(seq_id, record, None, scores))
    return tuple(results)


def per_time_km_fit(records):
    """Kaplan-Meier by one pass per distinct event time: events counted
    at the time, at-risk and censored counts by searchsorted."""
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


def _own_shift_sums(eta, X, risk, order):
    shift = float(eta[risk].max())
    w = np.exp(eta[risk] - shift)
    Xr = X[risk]
    s1 = w @ Xr if order >= 1 else None
    s2 = (Xr * w[:, None]).T @ Xr if order >= 2 else None
    return float(w.sum()), s1, s2, shift


def per_time_breslow_scan(times, events, X, beta, order=2):
    """Breslow log partial likelihood, gradient and Hessian in one
    descending pass, one Python step per distinct time.

    Weights are shifted by the global max(eta); a risk set whose shifted
    sum is exactly 0 is summed again under its own max shift.
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
                r0, r1, r2, r_shift = _own_shift_sums(eta, X, desc[:j], order)
            ll += float(eta[ev].sum()) - n_dead * (math.log(r0) + r_shift)
            if order >= 1:
                xbar = r1 / r0
                grad += X[ev].sum(axis=0) - n_dead * xbar
            if order >= 2:
                hess -= n_dead * (r2 / r0 - np.outer(xbar, xbar))
        i = j
    return ll, grad, hess


def per_time_breslow_cumhaz(times, events, X, beta):
    """Breslow cumulative baseline hazard, one log-space step per
    distinct time: ``(event times, cumulative hazard)``."""
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
    return event_ts, np.cumsum(increments)
