import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowhazard.errors import EmptyInput
from flowhazard.survival import (
    SurvivalRecord,
    SurvivalTable,
    km_fit,
    km_survival_at,
    km_to_csv,
)

from _oracles import per_time_km_to_csv, stack_records


def rec(time, event, cov=(0.0,)):
    return SurvivalRecord(time=time, event=event, covariates=np.array(cov))


def km(records):
    return km_fit(stack_records(records))


class TestKMFit:
    def test_three_events_hand_oracle(self):
        # times {1,2,3}, all events: S = 2/3, 1/3, 0
        curve = km([rec(1, 1), rec(2, 1), rec(3, 1)])
        assert curve.times.tolist() == [1.0, 2.0, 3.0]
        assert curve.n_risk.tolist() == [3, 2, 1]
        assert curve.n_event.tolist() == [1, 1, 1]
        np.testing.assert_allclose(
            curve.survival, [2 / 3, 1 / 3, 0.0], atol=1e-12
        )

    def test_all_censored_is_flat_one(self):
        curve = km([rec(5, 0), rec(7, 0)])
        assert curve.times.size == 0
        for t in (0.0, 5.0, 100.0):
            assert km_survival_at(curve, t) == 1.0

    def test_mixed_censoring_hand_oracle(self):
        # times {1,2,3}, events {1,0,1}: S(1)=2/3 (d=1,r=3); the censoring
        # at 2 shrinks the risk set; S(3)=0 (d=1,r=1)
        curve = km([rec(1, 1), rec(2, 0), rec(3, 1)])
        assert curve.times.tolist() == [1.0, 3.0]
        assert curve.n_risk.tolist() == [3, 1]
        assert curve.censored_before.tolist() == [0, 1]
        np.testing.assert_allclose(curve.survival, [2 / 3, 0.0], atol=1e-12)

    def test_greenwood_hand_oracle(self):
        # no censoring, n=4: terms d/(r(r-d)) = 1/12, 1/6, 1/2; S^2 * cumsum
        curve = km([rec(t, 1) for t in (1, 2, 3, 4)])
        s = np.array([3 / 4, 2 / 4, 1 / 4, 0.0])
        terms = np.array([1 / 12, 1 / 6, 1 / 2])
        expect = s[:3] ** 2 * np.cumsum(terms)
        np.testing.assert_allclose(curve.greenwood_var[:3], expect, rtol=1e-12)
        assert curve.greenwood_var[3] == 0.0  # curve hits exactly zero

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            km_fit(SurvivalTable(np.zeros(0), np.zeros(0), np.zeros((0, 1))))

    def test_recursion_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            records = [
                rec(float(rng.integers(0, 8)), int(rng.integers(0, 2)))
                for _ in range(n)
            ]
            if not any(r.event for r in records):
                continue
            curve = km(records)
            # r_1 = N minus censorings strictly before the first event
            assert curve.n_risk[0] == curve.n_total - curve.censored_before[0]
            for i in range(1, curve.times.size):
                assert curve.n_risk[i] == (
                    curve.n_risk[i - 1]
                    - curve.n_event[i - 1]
                    - curve.censored_before[i]
                )
            assert (np.diff(curve.survival) <= 1e-15).all()

    def test_no_censoring_matches_empirical_fraction(self):
        rng = np.random.default_rng(3)
        times = rng.integers(1, 10, size=50).astype(float)
        curve = km([rec(t, 1) for t in times])
        for t in np.unique(times):
            empirical = np.mean(times > t)
            np.testing.assert_allclose(
                km_survival_at(curve, t), empirical, atol=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        records = [
            rec(float(rng.integers(0, 6)), int(rng.integers(0, 2)))
            for _ in range(25)
        ]
        records[0] = rec(1, 1)  # guarantee an event
        curve_a = km(records)
        perm = rng.permutation(len(records))
        curve_b = km([records[i] for i in perm])
        assert np.array_equal(curve_a.times, curve_b.times)
        assert np.array_equal(curve_a.survival, curve_b.survival)
        assert np.array_equal(curve_a.n_risk, curve_b.n_risk)


class TestReadOff:
    def setup_method(self):
        self.curve = km([rec(1, 1), rec(2, 1), rec(3, 1)])

    def test_before_first_event(self):
        assert km_survival_at(self.curve, 0.0) == 1.0

    def test_between_events_is_right_continuous(self):
        assert km_survival_at(self.curve, 2.5) == pytest.approx(1 / 3)
        assert km_survival_at(self.curve, 2.0) == pytest.approx(1 / 3)

    def test_beyond_last_event_all_dead(self):
        assert km_survival_at(self.curve, 10.0) == 0.0


def _curve(times, events):
    return km_fit(SurvivalTable(np.array(times, dtype=np.float64),
                                np.array(events), np.zeros((len(times), 0))))


@st.composite
def km_curves(draw):
    """Curves on few distinct times, so events and censorings tie; the
    events may be all, none or some of the rows."""
    n = draw(st.integers(1, 25))
    times = draw(st.lists(
        st.one_of(st.integers(0, draw(st.integers(0, 9))).map(float),
                  st.sampled_from([0.5, 1e-300, 2.0**60, 1e308])),
        min_size=n, max_size=n,
    ))
    mode = draw(st.sampled_from(["mixed", "mixed", "events", "censored"]))
    if mode == "mixed":
        events = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        events = [int(mode == "events")] * n
    return _curve(times, events)


class TestKMWriterEqualsPerTimeWriter:
    @given(curve=km_curves())
    @example(curve=_curve([1, 1, 2, 2, 2, 3], [1, 0, 1, 1, 0, 0]))
    @example(curve=_curve([1, 4, 4, 5, 9, 9], [0, 1, 0, 0, 0, 0]))
    @example(curve=_curve([2, 2, 3], [0, 0, 0]))
    @example(curve=_curve([2, 2, 3], [1, 1, 1]))
    def test_same_text(self, curve):
        got, want = io.StringIO(), io.StringIO()
        km_to_csv(curve, got)
        per_time_km_to_csv(curve, want)
        assert got.getvalue() == want.getvalue()
