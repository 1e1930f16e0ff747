import math

import numpy as np
import pytest
import scipy.stats

from flowhazard.errors import LengthMismatch, NoEvents
from flowhazard.survival import (
    CoxOptions,
    SurvivalRecord,
    breslow_baseline,
    cox_fit,
    cox_gradient,
    cox_hessian,
    cox_log_partial_likelihood,
    wald_stats,
)


from _oracles import (
    grid_search_beta,
    naive_log_partial_likelihood,
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
        stats_a, stats_b = wald_stats(a), wald_stats(b)
        np.testing.assert_allclose(stats_a["z"], stats_b["z"], rtol=1e-6)
        np.testing.assert_allclose(stats_a["p"], stats_b["p"], atol=1e-6)
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
        stats = wald_stats(model)
        np.testing.assert_allclose(
            stats["z"], model.beta / model.std_errors
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
        base = breslow_baseline(model, records)
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
        base = breslow_baseline(model, records)
        assert (np.diff(base.values) >= -1e-15).all()
        assert base(0.0) == 0.0 or base.times.min() <= 0.0

    def test_baseline_on_model_matches_free_function(self):
        records = stack_records(
            [rec(float(t + 1), 1, [float(t % 2)]) for t in range(8)]
        )
        model = cox_fit(records, CoxOptions(ridge=1e-3))
        free = breslow_baseline(model, records)
        np.testing.assert_allclose(
            model.baseline_cumhaz.values, free.values, rtol=1e-12
        )

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
