import csv
import io
import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhazard.errors import (
    FlowHazardError,
    InvalidValue,
    LengthMismatch,
    NoEvents,
    NonFinite,
    SingularHessian,
)
from flowhazard.survival import (
    CoxOptions,
    SurvivalRecord,
    SurvivalTable,
    cox_fit,
    cox_gradient,
    cox_hessian,
    cox_log_partial_likelihood,
    cox_to_csv,
)


from _oracles import (
    grid_search_beta,
    naive_log_partial_likelihood,
    per_time_breslow_cumhaz,
    stack_records,
)


def rec(time, event, cov):
    cov = np.atleast_1d(np.asarray(cov, dtype=float))
    return SurvivalRecord(time=time, event=event, covariates=cov)


def random_instance(rng, n_max=20, width_max=5, tie_times=6):
    n = int(rng.integers(2, n_max + 1))
    width = int(rng.integers(1, width_max + 1))
    records = [
        rec(
            float(rng.integers(0, tie_times)),
            int(rng.integers(0, 2)),
            rng.standard_normal(width),
        )
        for _ in range(n)
    ]
    records[0] = rec(1.0, 1, rng.standard_normal(width))
    return stack_records(records), width


class TestLogPartialLikelihood:
    def test_zero_beta_distinct_events_is_log_factorial(self):
        n = 6
        records = stack_records(
            [rec(float(i + 1), 1, [float(i)]) for i in range(n)]
        )
        expected = -sum(math.log(n - i) for i in range(n))  # -log(n!)
        got = cox_log_partial_likelihood(np.zeros(1), records)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-math.log(math.factorial(n)), abs=1e-12)

    def test_all_censored_is_zero(self):
        records = stack_records([rec(1, 0, [1.0]), rec(2, 0, [0.0])])
        assert cox_log_partial_likelihood(np.zeros(1), records) == 0.0

    def test_two_record_hand_oracle(self):
        # events at 1 < 2, covariates 1 and 0, beta=0: -log 2 - log 1
        records = stack_records([rec(1, 1, [1.0]), rec(2, 1, [0.0])])
        got = cox_log_partial_likelihood(np.zeros(1), records)
        assert got == pytest.approx(-math.log(2), abs=1e-15)

    def test_matches_naive_reference_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            records, width = random_instance(rng)
            beta = rng.standard_normal(width)
            assert cox_log_partial_likelihood(beta, records) == pytest.approx(
                naive_log_partial_likelihood(beta, records), rel=1e-10
            )

    def test_rank_invariance_under_monotone_time_transform(self):
        rng = np.random.default_rng(23)
        records, width = random_instance(rng)
        beta = rng.standard_normal(width)
        mapped = stack_records(
            rec(r.time**3 + 1.0, r.event, r.covariates) for r in records
        )
        assert cox_log_partial_likelihood(
            beta, records
        ) == cox_log_partial_likelihood(beta, mapped)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cox_log_partial_likelihood(np.zeros(2),
                                       stack_records([rec(1, 1, [1.0])]))

    def test_late_risk_set_underflow_stays_finite(self):
        # under the global max(eta) shift of 1000 every weight in the risk
        # set at t=2 underflows to 0; that set needs its own shift
        records = stack_records(
            [rec(1, 1, [10.0]), rec(2, 1, [0.0]), rec(3, 0, [0.0])]
        )
        beta = np.array([100.0])
        got = cox_log_partial_likelihood(beta, records)
        assert got == pytest.approx(-math.log(2), abs=1e-12)
        assert cox_gradient(beta, records).tolist() == [0.0]
        assert cox_hessian(beta, records).tolist() == [[0.0]]

    @pytest.mark.parametrize("beta", [72.8, 69.0])
    def test_tiny_late_risk_set_sum_keeps_full_precision(self, beta):
        # the same design with the risk set at t=2 summing, under the
        # global shift, to subnormals (about 1e-316, kept to multiples of
        # 5e-324) at beta 72.8 and to about 4e-300 at 69
        records = stack_records(
            [rec(1, 1, [10.0]), rec(2, 1, [0.0]), rec(3, 0, [0.0])]
        )
        beta = np.array([beta])
        got = cox_log_partial_likelihood(beta, records)
        assert got == pytest.approx(-math.log(2), abs=1e-12)
        assert cox_gradient(beta, records).tolist() == [0.0]
        assert cox_hessian(beta, records).tolist() == [[0.0]]


def fd_gradient(beta, records, h=1e-5):
    beta = np.asarray(beta, dtype=float)
    out = np.zeros_like(beta)
    for j in range(beta.size):
        e = np.zeros_like(beta)
        e[j] = h
        out[j] = (
            cox_log_partial_likelihood(beta + e, records)
            - cox_log_partial_likelihood(beta - e, records)
        ) / (2 * h)
    return out


def fd_hessian(beta, records, h=1e-5):
    beta = np.asarray(beta, dtype=float)
    out = np.zeros((beta.size, beta.size))
    for j in range(beta.size):
        e = np.zeros_like(beta)
        e[j] = h
        out[:, j] = (
            cox_gradient(beta + e, records) - cox_gradient(beta - e, records)
        ) / (2 * h)
    return out


class TestDerivatives:
    def test_gradient_hand_oracle(self):
        # d/dbeta of [beta - log(e^beta + 1)] at 0 is 1 - 1/2
        records = stack_records([rec(1, 1, [1.0]), rec(2, 1, [0.0])])
        grad = cox_gradient(np.zeros(1), records)
        assert grad[0] == pytest.approx(0.5, abs=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            records, width = random_instance(rng)
            beta = rng.standard_normal(width) * 0.5
            analytic = cox_gradient(beta, records)
            numeric = fd_gradient(beta, records)
            denom = max(1.0, float(np.linalg.norm(numeric)))
            assert np.linalg.norm(analytic - numeric) / denom < 1e-6

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            records, width = random_instance(rng)
            beta = rng.standard_normal(width) * 0.5
            analytic = cox_hessian(beta, records)
            numeric = fd_hessian(beta, records)
            denom = max(1.0, float(np.linalg.norm(numeric)))
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    def test_hessian_negative_semidefinite(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            records, width = random_instance(rng)
            H = cox_hessian(rng.standard_normal(width), records)
            eigs = np.linalg.eigvalsh(H)
            assert (eigs <= 1e-10).all()

    def test_identical_covariates_zero_gradient(self):
        records = stack_records(
            [rec(float(t), 1, [2.5, -1.0]) for t in range(1, 6)]
        )
        for beta in (np.zeros(2), np.array([1.0, -3.0])):
            np.testing.assert_allclose(
                cox_gradient(beta, records), 0.0, atol=1e-9
            )


class TestCoxFit:
    def test_four_record_grid_oracle(self):
        # covariates {0,0,1,1} over times {1,2,3,4}; the groups must be
        # interleaved in time for the maximizer to be interior (grouping
        # all x=0 deaths first makes the likelihood monotone in beta)
        records = stack_records([
            rec(1, 1, [0.0]), rec(2, 1, [1.0]),
            rec(3, 1, [0.0]), rec(4, 1, [1.0]),
        ])
        oracle = grid_search_beta(records)
        assert abs(oracle) < 9.5  # interior maximizer
        model = cox_fit(records, CoxOptions(ridge=0.0))
        assert model.converged
        assert model.beta[0] == pytest.approx(oracle, abs=1e-3)

    def test_randomized_grid_oracle(self):
        # >= 5 accepted datasets with an interior maximizer, no ties
        rng = np.random.default_rng(41)
        accepted = 0
        attempts = 0
        while accepted < 5 and attempts < 60:
            attempts += 1
            n = int(rng.integers(3, 7))
            times = rng.permutation(np.arange(1, n + 1)).astype(float)
            records = [
                rec(times[i], int(rng.integers(0, 2)), rng.standard_normal(1))
                for i in range(n)
            ]
            records[0] = rec(times[0], 1, rng.standard_normal(1))
            records = stack_records(records)
            oracle = grid_search_beta(records)
            if abs(oracle) > 9.5:  # boundary: monotone likelihood, skip
                continue
            model = cox_fit(records, CoxOptions(ridge=0.0))
            assert model.beta[0] == pytest.approx(oracle, abs=1e-3)
            accepted += 1
        assert accepted >= 5

    def test_one_scan_per_accepted_newton_step(self, wrap_scan):
        # a fit with no step-halving scans beta = 0, each accepted trial
        # (keeping its derivatives) and the ray 2 beta, and nothing else
        rng = np.random.default_rng(11)
        X = rng.standard_normal((300, 2))
        hazard = np.exp(X @ np.array([0.5, -0.3]))
        times = rng.exponential(1.0 / hazard)
        events = (times < rng.exponential(2.0, 300)).astype(np.int64)
        table = SurvivalTable(np.round(times, 3), events, X, ("a", "b"))
        calls = wrap_scan()
        model = cox_fit(table)
        assert model.converged and model.iterations >= 3
        assert len(calls) == model.iterations + 2
        assert not calls[0].any()
        assert np.array_equal(calls[-1], 2.0 * calls[-2])

    @staticmethod
    def _newton_table():
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 2))
        times = rng.exponential(1.0 / np.exp(X @ np.array([0.8, -0.4])))
        events = (times < rng.exponential(2.0, 200)).astype(np.int64)
        return SurvivalTable(np.round(times, 3), events, X, ("a", "b"))

    def test_max_iter_at_the_converging_step_and_one_short(self):
        table = self._newton_table()
        free = cox_fit(table)
        k = free.iterations
        assert free.converged and k >= 2
        capped = cox_fit(table, CoxOptions(max_iter=k))
        assert capped.converged and capped.iterations == k
        assert capped.beta.tobytes() == free.beta.tobytes()
        short = cox_fit(table, CoxOptions(max_iter=k - 1))
        assert not short.converged and short.iterations == k - 1
        assert short.final_grad_norm >= CoxOptions().tol
        assert short.warnings == ()

    def test_no_uphill_step_in_20_halvings_stops_at_beta_zero(
            self, wrap_scan):
        # every trial scan after the first (beta = 0) reports ll = -inf,
        # so the first Newton step halves 20 times and gives up
        table = self._newton_table()
        calls = wrap_scan(lambda scan, calls: (
            scan[0] if len(calls) == 1 else -np.inf, *scan[1:]))
        model = cox_fit(table)
        assert len(calls) == 21
        assert not model.converged
        assert model.iterations == 1
        assert model.beta.tobytes() == np.zeros(2).tobytes()
        assert model.final_grad_norm >= CoxOptions().tol
        assert model.warnings == ()

    @pytest.mark.parametrize("ridge, scans", [
        (0.0, 2), (1e-4, 1), (1e-3, 1),
    ])
    def test_nan_hessian_is_retried_only_below_ridge_1e_4(
            self, wrap_scan, ridge, scans):
        # the first Newton step fails, and at ridge 0 fails again at 1e-4
        calls = wrap_scan(lambda scan, calls: (
            *scan[:2], np.full_like(scan[2], np.nan), scan[3]))
        with pytest.raises(SingularHessian,
                           match="^Newton step failed: non-finite step$"):
            cox_fit(self._newton_table(), CoxOptions(ridge=ridge))
        assert len(calls) == scans

    @pytest.mark.parametrize("zero_gradient, message", [
        (False, "Newton step failed: singular Hessian"),
        (True, "information matrix is singular at the optimum"),
    ], ids=["step", "optimum"])
    def test_hessian_equal_to_the_penalty_raises_at_ridge_1e_3(
            self, wrap_scan, zero_gradient, message):
        # the penalized information matrix -(H - 1e-3 I) is exactly zero
        def singular(scan, calls):
            ll, grad, hess, log_s0 = scan
            if zero_gradient:
                grad = np.zeros_like(grad)
            return ll, grad, 1e-3 * np.eye(len(grad)), log_s0

        calls = wrap_scan(singular)
        with pytest.raises(SingularHessian, match=f"^{message}$"):
            cox_fit(self._newton_table(), CoxOptions(ridge=1e-3))
        assert len(calls) == 1

    def test_overflowing_covariance_is_retried_at_ridge_1e_4(
            self, wrap_scan):
        # a zero gradient ends the fit at beta = 0, where the information
        # matrix 1e-310 I inverts past float range at ridge 0; at ridge
        # 1e-4 it inverts
        calls = wrap_scan(lambda scan, calls: (
            scan[0], np.zeros_like(scan[1]), -1e-310 * np.eye(2), scan[3]))
        model = cox_fit(self._newton_table(), CoxOptions(ridge=0.0))
        assert len(calls) == 2
        assert model.converged and model.iterations == 0
        assert model.penalty == 1e-4
        assert model.warnings == (
            "singular Hessian at ridge=0; retried with ridge=0.0001",
        )

    def test_separation_case(self):
        # lone event with the larger covariate: likelihood is monotone in
        # beta, so the unpenalized path must either flag non-convergence or
        # run off to a large coefficient; any positive ridge tames it
        records = stack_records([rec(1, 1, [1.0]), rec(2, 1, [0.0])])
        unpenalized = cox_fit(records, CoxOptions(ridge=0.0, max_iter=50))
        assert (not unpenalized.converged) or abs(unpenalized.beta[0]) > 5.0
        penalized = cox_fit(records, CoxOptions(ridge=1e-2))
        assert penalized.converged
        assert np.isfinite(penalized.beta[0])
        assert abs(penalized.beta[0]) < 50.0

    def test_zero_column_gets_zero_beta(self):
        rng = np.random.default_rng(43)
        base = [
            rec(float(t + 1), int(rng.integers(0, 2)), rng.standard_normal(1))
            for t in range(12)
        ]
        base[0] = rec(1.0, 1, rng.standard_normal(1))
        with_zero = [
            rec(r.time, r.event, np.concatenate([r.covariates, [0.0]]))
            for r in base
        ]
        lam = 1e-3
        solo = cox_fit(stack_records(base), CoxOptions(ridge=lam))
        both = cox_fit(stack_records(with_zero), CoxOptions(ridge=lam))
        assert both.beta[1] == 0.0
        assert both.beta[0] == pytest.approx(solo.beta[0], abs=1e-6)

    def test_no_events_raises(self):
        with pytest.raises(NoEvents):
            cox_fit(stack_records([rec(1, 0, [1.0]), rec(2, 0, [0.0])]))

    def test_gradient_small_at_unpenalized_optimum(self):
        rng = np.random.default_rng(47)
        records = stack_records(
            rec(float(rng.integers(1, 12)), 1, rng.standard_normal(2) * 0.5)
            for _ in range(30)
        )
        model = cox_fit(records, CoxOptions(ridge=0.0, tol=1e-8))
        assert model.converged
        grad = cox_gradient(model.beta, records)
        # reported beta is on the original scale; the stationarity
        # condition transfers through the (diagonal) rescaling
        sd = np.array([r.covariates for r in records]).std(axis=0)
        assert np.abs(grad * sd).max() < 1e-6

    def test_covariate_scaling(self):
        rng = np.random.default_rng(53)
        records = stack_records(
            rec(float(t + 1), int(t % 2 == 0), rng.standard_normal(2))
            for t in range(16)
        )
        c = 7.5
        scaled = stack_records(
            rec(r.time, r.event, r.covariates * np.array([c, 1.0]))
            for r in records
        )
        a = cox_fit(records, CoxOptions(ridge=0.0))
        b = cox_fit(scaled, CoxOptions(ridge=0.0))
        assert b.beta[0] == pytest.approx(a.beta[0] / c, rel=1e-6)
        assert b.beta[1] == pytest.approx(a.beta[1], rel=1e-6)
        np.testing.assert_allclose(a.beta / a.std_errors,
                                   b.beta / b.std_errors, rtol=1e-6)
        np.testing.assert_allclose(a.p_values, b.p_values, atol=1e-6)
        # hazard ratio per original unit recovers after undoing the scale
        assert math.exp(b.beta[0] * c) == pytest.approx(
            math.exp(a.beta[0]), rel=1e-6
        )

    def test_synthetic_recovery(self):
        # h(t) = exp(0.7 x), x ~ Bernoulli(1/2), ~20% independent censoring
        rng = np.random.default_rng(59)
        n = 2000
        x = rng.integers(0, 2, size=n).astype(float)
        t_event = rng.exponential(1.0 / np.exp(0.7 * x))
        t_censor = rng.exponential(1.0 / 0.35, size=n)
        records = stack_records(
            rec(min(te, tc), int(te <= tc), [xi])
            for te, tc, xi in zip(t_event, t_censor, x)
        )
        censored = sum(1 - r.event for r in records) / n
        assert 0.1 < censored < 0.3
        model = cox_fit(records, CoxOptions(ridge=0.0))
        assert model.converged
        assert 0.55 <= model.beta[0] <= 0.85


    def test_step_halving_through_underflowed_risk_set_does_not_crash(self):
        # a Newton trial on this separated design drives the risk set at
        # t=1 to all-zero shifted weights; the fit must end without a raw
        # ValueError, and report the separation
        records = stack_records(
            [rec(3, 0, [-34.6]), rec(3, 1, [-34.5]), rec(1, 1, [-11.5])]
        )
        model = cox_fit(records, CoxOptions(ridge=0.0))
        assert np.isfinite(model.beta).all()
        assert np.isfinite(model.log_partial_likelihood)
        assert not model.converged
        assert any("monotone likelihood" in w for w in model.warnings)

    def test_perfect_separation_is_not_converged(self):
        # the larger x always dies first: the likelihood rises without
        # bound in beta, and Newton only stops on a vanishing gradient
        records = stack_records(
            [rec(float(t), 1, [-float(t)]) for t in range(1, 21)]
        )
        model = cox_fit(records, CoxOptions(ridge=0.0))
        assert not model.converged
        assert any("monotone likelihood" in w for w in model.warnings)
        # a ridge penalty gives the same data a finite optimum
        penalized = cox_fit(records, CoxOptions(ridge=1e-2))
        assert penalized.converged
        assert penalized.warnings == ()

    def test_separation_below_the_beta_bound_is_not_converged(self):
        # every x=1 row dies before every x=0 row: the likelihood rises
        # toward its bound as beta grows, and Newton's gradient vanishes
        # at |beta| of about 10.5 per standard deviation, under the bound
        records = stack_records(
            [rec(float(t), 1, [1.0]) for t in (1, 2, 3)]
            + [rec(float(t), 0, [0.0]) for t in (4, 5, 6)]
        )
        model = cox_fit(records, CoxOptions(ridge=0.0))
        assert 5.0 < abs(model.beta[0]) * 0.5 < 20.0
        assert model.log_partial_likelihood <= cox_log_partial_likelihood(
            2.0 * model.beta, records
        )
        assert not model.converged
        assert any("monotone likelihood" in w for w in model.warnings)


class TestConstantColumns:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), at=st.integers(0, 5),
           value=st.floats(allow_nan=False, allow_infinity=False),
           ridge=st.sampled_from([0.0, 1e-3]))
    def test_inserted_constant_column_changes_no_other(self, seed, at, value,
                                                       ridge):
        table, width = random_instance(np.random.default_rng(seed))
        at = min(at, width)
        names = table.feature_names
        wider = SurvivalTable(
            table.times, table.events, np.insert(table.X, at, value, axis=1),
            names[:at] + ("flat",) + names[at:],
        )
        options = CoxOptions(ridge=ridge)
        try:
            base = cox_fit(table, options)
        except FlowHazardError as err:
            with pytest.raises(type(err)) as again:
                cox_fit(wider, options)
            assert str(again.value) == str(err)
            return
        model = cox_fit(wider, options)
        assert model.dropped == ("flat",)
        assert (model.beta[at], model.std_errors[at], model.p_values[at]) == (
            0.0, 0.0, 1.0
        )
        for field in ("beta", "hazard_ratios", "std_errors", "p_values",
                      "ci95_low", "ci95_high"):
            got = np.delete(getattr(model, field), at)
            assert got.tobytes() == getattr(base, field).tobytes(), field
        for field in ("log_partial_likelihood", "penalty", "converged",
                      "iterations", "final_grad_norm", "warnings"):
            assert getattr(model, field) == getattr(base, field), field
        for field in ("times", "values"):
            assert (getattr(model.baseline_cumhaz, field).tobytes()
                    == getattr(base.baseline_cumhaz, field).tobytes())

    def test_all_constant_is_the_zero_fit(self):
        # Breslow increments 1/5, 1/4, ... at beta = 0, even at ridge 0
        table = SurvivalTable(np.arange(1.0, 6.0), np.ones(5, dtype=int),
                              np.c_[np.full(5, 2.5), np.zeros(5)])
        model = cox_fit(table, CoxOptions(ridge=0.0))
        assert model.dropped == ("x0", "x1")
        assert model.converged and model.iterations == 0
        assert model.warnings == ()
        assert model.beta.tolist() == [0.0, 0.0]
        assert model.p_values.tolist() == [1.0, 1.0]
        assert model.log_partial_likelihood == pytest.approx(-math.log(120))
        np.testing.assert_allclose(
            np.diff(model.baseline_cumhaz.values, prepend=0.0),
            [1 / 5, 1 / 4, 1 / 3, 1 / 2, 1.0], rtol=1e-15,
        )

    @pytest.mark.parametrize("values", [
        [1e160, -1e160, 1e160, -1e160, 0.5],  # squares overflow
        [1e-200, 2e-200, 1e-200, 3e-200, 1e-200],  # squares underflow to 0
    ], ids=["overflow", "underflow"])
    def test_unscalable_column_is_nonfinite_naming_it(self, values):
        table = SurvivalTable(np.arange(1.0, 6.0), np.ones(5, dtype=int),
                              np.c_[np.arange(5.0), values], ("x", "odd"))
        with pytest.raises(NonFinite, match="'odd'"):
            cox_fit(table)


class TestHazardRatiosAndWald:
    def test_reported_table_values(self):
        betas = np.array([0.157, -0.580, -0.105, 1.506])
        hr = np.exp(betas)
        np.testing.assert_allclose(
            hr, [1.170, 0.560, 0.900, 4.509], atol=5e-4
        )

    def test_exact_same_floating_point_op(self):
        records = stack_records([
            rec(1, 1, [0.5, 1.0]), rec(2, 1, [1.5, 0.0]),
            rec(3, 0, [0.25, 2.0]),
        ])
        model = cox_fit(records, CoxOptions(ridge=1e-2))
        assert np.array_equal(model.hazard_ratios, np.exp(model.beta))

    def test_zero_beta_unit_ratio(self):
        assert math.exp(0.0) == 1.0

    def test_p_value_oracle(self):
        # independent oracle: scipy's normal survival function
        from flowhazard.survival import normal_two_sided_p

        assert normal_two_sided_p(0.0) == pytest.approx(1.0)
        assert normal_two_sided_p(1.959964) == pytest.approx(0.05, abs=1e-6)
        for z in (0.3, 1.0, 2.5, 4.0):
            assert normal_two_sided_p(z) == pytest.approx(
                2 * scipy.stats.norm.sf(z), rel=1e-12
            )

    def test_ci_definition(self):
        # beta 0, se 1 -> (-1.959964, 1.959964)
        rng = np.random.default_rng(61)
        records = stack_records(
            rec(float(t + 1), 1, rng.standard_normal(1)) for t in range(10)
        )
        model = cox_fit(records, CoxOptions(ridge=0.0))
        np.testing.assert_allclose(
            model.ci95_low, model.beta - 1.959964 * model.std_errors
        )
        np.testing.assert_allclose(
            model.ci95_high, model.beta + 1.959964 * model.std_errors
        )
        buf = io.StringIO()
        cox_to_csv(model, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        np.testing.assert_allclose(
            [float(row["z"]) for row in rows], model.beta / model.std_errors
        )


class TestBreslowBaseline:
    def test_zero_beta_distinct_times(self):
        # increments 1/n, 1/(n-1), ... at successive event times
        n = 5
        records = stack_records(
            [rec(float(i + 1), 1, [0.0, 0.0]) for i in range(n)]
        )
        model = cox_fit(records, CoxOptions(ridge=1e-3))
        np.testing.assert_allclose(model.beta, 0.0, atol=1e-8)
        base = model.baseline_cumhaz
        increments = np.diff(np.concatenate([[0.0], base.values]))
        np.testing.assert_allclose(
            increments, [1 / 5, 1 / 4, 1 / 3, 1 / 2, 1.0], rtol=1e-6
        )

    def test_non_decreasing(self):
        rng = np.random.default_rng(67)
        records = [
            rec(float(rng.integers(1, 9)), int(rng.integers(0, 2)),
                rng.standard_normal(2))
            for _ in range(25)
        ]
        records[0] = rec(1.0, 1, rng.standard_normal(2))
        records = stack_records(records)
        model = cox_fit(records, CoxOptions(ridge=1e-2))
        base = model.baseline_cumhaz
        assert (np.diff(base.values) >= -1e-15).all()
        assert base(0.0) == 0.0 or base.times.min() <= 0.0

    @pytest.mark.parametrize("case", ["offset", "retry", "constant"])
    def test_fitted_baseline_equals_per_time_oracle(self, case):
        # the fit reads log S0 of standardized covariates off its last
        # Newton scan; the oracle sums exp(beta . x) on the raw scale
        rng = np.random.default_rng(73)
        n = 40
        times = rng.integers(1, 12, size=n).astype(float)
        events = rng.integers(0, 2, size=n)
        events[0] = 1
        x = rng.standard_normal(n)
        X = {
            "offset": np.c_[x + 30.0, 5.0 - 2.0 * rng.standard_normal(n)],
            # identical columns: singular at ridge 0, so the fit retries
            "retry": np.c_[x, x],
            # a constant column is not fitted, so nothing is singular
            "constant": np.c_[x, np.full(n, 7.0)],
        }[case]
        table = SurvivalTable(times, events, X)
        model = cox_fit(table, CoxOptions(ridge=0.0))
        assert any("retried" in w for w in model.warnings) == (
            case == "retry"
        )
        want_times, want_values = per_time_breslow_cumhaz(
            times, table.events, X, model.beta
        )
        assert np.array_equal(model.baseline_cumhaz.times, want_times)
        np.testing.assert_allclose(model.baseline_cumhaz.values, want_values,
                                   rtol=1e-12)

    def test_predicted_survival_from_baseline(self):
        from flowhazard.survival import cox_survival_at

        rng = np.random.default_rng(71)
        records = [
            rec(float(t + 1), int(rng.integers(0, 2)), rng.standard_normal(2))
            for t in range(20)
        ]
        records[0] = rec(1.0, 1, rng.standard_normal(2))
        model = cox_fit(stack_records(records), CoxOptions(ridge=1e-2))
        x = rng.standard_normal(2)
        # proper survival curve: starts at 1, non-increasing, in [0, 1]
        assert cox_survival_at(model, x, 0.0) == 1.0
        ts = np.linspace(0.0, 25.0, 60)
        vals = cox_survival_at(model, x, ts)
        assert (np.diff(vals) <= 1e-15).all()
        assert ((0.0 <= vals) & (vals <= 1.0)).all()
        # doubling the relative risk squares the survival probability
        s1 = cox_survival_at(model, x, 10.0)
        rr = math.exp(float(model.beta @ x))
        assert s1 == pytest.approx(
            math.exp(-model.baseline_cumhaz(10.0) * rr), rel=1e-12
        )

    @staticmethod
    def six_row_fit():
        # one covariate, ridge 0.1: beta is about -0.465
        table = SurvivalTable(
            np.arange(1.0, 7.0), np.array([1, 0, 1, 1, 0, 1]),
            np.array([[0.5], [1.5], [0.2], [2.0], [1.0], [0.7]]),
        )
        return cox_fit(table, CoxOptions(ridge=0.1))

    def test_relative_risk_past_float_range(self):
        from flowhazard.survival import cox_survival_at

        model = self.six_row_fit()
        assert model.beta[0] == pytest.approx(-0.465, abs=1e-3)
        # beta . x is about 4650, so exp(beta . x) overflows a float: the
        # survival is 1 before the first event time and 0 from it on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cox_survival_at(model, [-1e4], 3.0) == 0.0
            assert cox_survival_at(model, [-1e4], 0.5) == 1.0
            vals = cox_survival_at(model, [-1e4], np.array([0.5, 1.0, 9.0]))
            assert vals.tolist() == [1.0, 0.0, 0.0]
            assert cox_survival_at(model, [1e4], 9.0) == 1.0

    @pytest.mark.parametrize("t", [float("nan"), np.array([1.0, np.nan])],
                             ids=["scalar", "array_element"])
    def test_nan_time_is_invalid_value(self, t):
        from flowhazard.survival import cox_survival_at

        with pytest.raises(InvalidValue, match="NaN"):
            cox_survival_at(self.six_row_fit(), [0.5], t)
