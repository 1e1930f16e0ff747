"""Independent reference implementations used as test oracles.

These deliberately avoid the package's optimized code paths: the partial
likelihood is a direct double loop over explicit risk sets, the
maximizer is found by brute-force grid search, and injection streams
each sequence through the classifier on its own.
"""

import math

import numpy as np

from flowhazard import EmptyInput, SequenceResult, SurvivalRecord
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
