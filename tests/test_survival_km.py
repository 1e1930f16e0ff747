import io

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flowhazard.errors import EmptyInput, InvalidValue
from flowhazard.survival import (
    SurvivalRecord,
    SurvivalTable,
    km_fit,
    km_survival_at,
    km_to_csv,
)
from flowhazard.svgplot import km_svg

from _oracles import (
    per_time_km_fit,
    per_time_km_svg,
    per_time_km_to_csv,
    stack_records,
)


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
        assert curve.times[curve.n_event > 0].size == 0
        for t in (0.0, 5.0, 100.0):
            assert km_survival_at(curve, t) == 1.0

    def test_mixed_censoring_hand_oracle(self):
        # times {1,2,3}, events {1,0,1}: S(1)=2/3 (d=1,r=3); the censoring
        # at 2 shrinks the risk set; S(3)=0 (d=1,r=1)
        curve = km([rec(1, 1), rec(2, 0), rec(3, 1)])
        event = curve.n_event > 0
        assert curve.times[event].tolist() == [1.0, 3.0]
        assert curve.n_risk[event].tolist() == [3, 1]
        # no censoring before t=1, one in the gap [1, 3)
        assert curve.n_censored.tolist() == [0, 1, 0]
        np.testing.assert_allclose(curve.survival[event], [2 / 3, 0.0],
                                   atol=1e-12)

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
            rows = np.flatnonzero(curve.n_event > 0)
            # r_1 = N minus censorings strictly before the first event
            assert curve.n_risk[rows[0]] == (
                len(records) - curve.n_censored[:rows[0]].sum()
            )
            # between event times, the censorings in [t_{i-1}, t_i)
            for i, j in zip(rows, rows[1:]):
                assert curve.n_risk[j] == (
                    curve.n_risk[i]
                    - curve.n_event[i]
                    - curve.n_censored[i:j].sum()
                )
            assert (np.diff(curve.survival[rows]) <= 1e-15).all()

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

    @pytest.mark.parametrize("t", [float("nan"), np.array([1.0, np.nan])],
                             ids=["scalar", "array_element"])
    def test_nan_time_is_invalid_value(self, t):
        with pytest.raises(InvalidValue, match="NaN"):
            km_survival_at(self.curve, t)


def _table(times, events):
    return SurvivalTable(np.array(times, dtype=np.float64), np.array(events),
                         np.zeros((len(times), 0)))


@st.composite
def km_tables(draw):
    """Tables on few distinct times, so events and censorings tie; the
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
    return _table(times, events)


def _with_examples(test):
    for times, events in (
        ([1, 1, 2, 2, 2, 3], [1, 0, 1, 1, 0, 0]),  # ties of both kinds
        ([1, 4, 4, 5, 9, 9], [0, 1, 0, 0, 0, 0]),
        ([2, 2, 3], [0, 0, 0]),                    # all censored
        ([2, 2, 3], [1, 1, 1]),                    # all events
        ([1e-300, 1e-300, 1e308, 1e308], [1, 0, 1, 0]),
        ([0.0, 1e-300, 1e308], [0, 0, 1]),
    ):
        test = example(table=_table(times, events))(test)
    return test


class TestKMCurveRows:
    @given(table=km_tables())
    @_with_examples
    def test_counts_and_steps(self, table):
        curve = km_fit(table)
        n = len(table)
        assert curve.n_risk[0] == n
        assert np.array_equal(
            curve.n_risk[1:],
            curve.n_risk[:-1] - curve.n_event[:-1] - curve.n_censored[:-1],
        )
        assert curve.n_event.sum() + curve.n_censored.sum() == n
        assert (curve.n_event + curve.n_censored > 0).all()
        assert (np.diff(curve.times) > 0).all()
        assert (np.diff(curve.survival) <= 0.0).all()
        before = np.r_[1.0, curve.survival[:-1]]
        flat = curve.n_event == 0
        assert np.array_equal(curve.survival[flat], before[flat])


class TestKMWriterEqualsPerTimeWriter:
    @given(table=km_tables())
    @_with_examples
    def test_same_text(self, table):
        got, want = io.StringIO(), io.StringIO()
        km_to_csv(km_fit(table), got)
        per_time_km_to_csv(per_time_km_fit(list(table)), want)
        assert got.getvalue() == want.getvalue()


class TestKMPlotEqualsPerTimePlot:
    @given(table=km_tables())
    @_with_examples
    def test_same_text(self, table):
        assert km_svg(km_fit(table)) == per_time_km_svg(
            per_time_km_fit(list(table))
        )
