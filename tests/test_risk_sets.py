"""The block-end cumulative sums of survival.py against the per-time scans
they replaced (kept in ``_oracles``).

Kaplan-Meier counts are integers and must match exactly.  The Cox scan
and the Breslow baseline sum the same terms in another order, so they
match to a relative tolerance; where the Cox terms cancel, the tolerance
is taken relative to the size of the terms summed, not to their
difference.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowhazard.survival import (
    SurvivalTable,
    _breslow_scan,
    _tie_blocks,
    km_fit,
)

from _oracles import (
    per_time_breslow_cumhaz,
    per_time_breslow_scan,
    per_time_km_fit,
)

TINY = np.finfo(np.float64).tiny


@st.composite
def survival_data(draw):
    """Small tables with heavy ties, censor-only blocks, and linear
    predictors from 0 up to about +-700."""
    n = draw(st.integers(1, 30))
    width = draw(st.integers(1, 3))
    n_times = draw(st.integers(1, n))  # 1: everything at one time
    times = draw(st.lists(st.integers(0, n_times - 1), min_size=n,
                          max_size=n))
    events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    unit = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
    X = draw(st.lists(unit, min_size=n * width, max_size=n * width))
    direction = draw(st.lists(unit, min_size=width, max_size=width))
    beta = np.array(direction) * draw(
        st.sampled_from([0.0, 0.5, 3.0, 230.0, 700.0])
    )
    X = np.array(X).reshape(n, width)
    times = np.array(times, dtype=np.float64)
    if draw(st.booleans()):
        # eta runs from +-700 to -+700 along time, so the risk sets at one
        # end of it sit far below the global max(eta) and underflow
        X[:, 0] = 1.0 - 2.0 * times / max(n_times - 1, 1)
        beta[0] = draw(st.sampled_from([-700.0, 700.0]))
        beta[1:] = np.array(direction[1:]) * 3.0
    return (
        times * draw(st.sampled_from([1.0, 0.5])),
        np.array(events, dtype=np.int64),
        X,
        beta,
    )


def _examples():
    one = (np.array([2.0]), np.array([1]), np.array([[0.3]]), np.array([1.0]))
    same_time = (np.full(5, 4.0), np.ones(5, dtype=np.int64),
                 np.arange(5.0)[:, None], np.array([0.7]))
    censor_blocks = (np.array([1.0, 2.0, 2.0, 3.0, 4.0, 5.0]),
                     np.array([1, 0, 0, 1, 0, 1]),
                     np.array([[0.1], [0.4], [-0.2], [0.9], [0.5], [-1.0]]),
                     np.array([2.0]))
    # under the global shift of 1000 the risk set at t=2 sums to 0
    underflow = (np.array([1.0, 2.0, 3.0]), np.array([1, 1, 0]),
                 np.array([[1.0], [-0.7], [0.0]]), np.array([1000.0]))
    return [one, same_time, censor_blocks, underflow]


def _with_examples(test):
    for case in _examples():
        test = example(data=case)(test)
    return test


def _subnormal_risk_sum(times, events, X, beta) -> bool:
    """Whether some event time's risk set sums, under the global max(eta)
    shift, to a subnormal float.  There the per-time oracle's sum rounds
    at 5e-324 absolute and is no 1e-10 reference; that band is checked
    against closed forms in test_survival_cox.py."""
    eta = X @ beta
    w = np.exp(eta - eta.max())
    return any(
        0.0 < w[times >= t].sum() < TINY for t in np.unique(times[events == 1])
    )


class TestKaplanMeierBlocks:
    @settings(max_examples=200)
    @_with_examples
    @given(data=survival_data())
    def test_km_equals_per_time_loop(self, data):
        times, events, X, _ = data
        table = SurvivalTable(times, events, X)
        got = km_fit(table)
        want = per_time_km_fit(list(table))
        for field in ("times", "n_risk", "n_event", "n_censored",
                      "survival", "greenwood_var"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype, field
            assert np.array_equal(a, b), field


class TestBreslowScanBlocks:
    @settings(max_examples=200)
    @_with_examples
    @given(data=survival_data())
    def test_scan_equals_per_time_loop(self, data):
        times, events, X, beta = data
        if _subnormal_risk_sum(times, events, X, beta):
            return
        blocks = _tie_blocks(times, events)
        ll, grad, hess, _ = _breslow_scan(blocks, X, beta)
        ll_o, grad_o, hess_o = per_time_breslow_scan(times, events, X, beta)
        eta = X @ beta
        n_dead = int(events.sum())
        size = max(1.0, float(np.abs(X).max()))
        rtol = 1e-10
        # each event adds eta_i - (log S0 + shift): terms of size
        # max|eta| + log n
        ll_terms = n_dead * (np.abs(eta).max() + math.log(len(times)) + 1.0)
        assert abs(ll - ll_o) <= rtol * max(abs(ll_o), ll_terms)
        np.testing.assert_allclose(grad, grad_o, rtol=rtol,
                                   atol=rtol * n_dead * size)
        np.testing.assert_allclose(hess, hess_o, rtol=rtol,
                                   atol=rtol * n_dead * size**2)


class TestBreslowBaselineBlocks:
    @settings(max_examples=200)
    @_with_examples
    @given(data=survival_data())
    def test_cumhaz_equals_per_time_loop(self, data):
        # the baseline adds d / S0 at each event time, with log S0 from
        # the scan's event blocks (descending time)
        times, events, X, beta = data
        blocks = _tie_blocks(times, events)
        log_s0 = _breslow_scan(blocks, X, beta)[3]
        ev = np.flatnonzero(blocks.dead)
        with np.errstate(over="ignore"):
            increments = np.exp(np.log(blocks.dead[ev]) - log_s0)
            want_times, want_values = per_time_breslow_cumhaz(
                times, events, X, beta
            )
        assert np.array_equal(blocks.times[ev][::-1], want_times)
        # below the normal float range values carry absolute precision only
        np.testing.assert_allclose(np.cumsum(increments[::-1]), want_values,
                                   rtol=1e-12, atol=TINY)
