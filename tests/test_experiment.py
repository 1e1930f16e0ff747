import csv
import dataclasses
import functools
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhazard.errors import (
    AccuracyGateFailed,
    AllIterationsFailed,
    EmptyInput,
    InvalidValue,
    LengthMismatch,
    SchemaMismatch,
)
from flowhazard.experiment import (
    AttackCombination,
    ExperimentConfig,
    IterationFailure,
    SelectionRule,
    _draw_indices,
    _scan_sequences,
    aggregate_cox_to_csv,
    build_sequences,
    report_to_json_dict,
    run_experiment,
    run_iteration,
    run_sequence,
    select_features,
    train_on_split,
)
from flowhazard.flowdata import FlowDataset, feature_summary, subset
from flowhazard.models import (
    BayesianRidgeParams,
    LinearState,
    LinearSVRParams,
    RandomForestParams,
    TrainedModel,
    predict_many,
)
from flowhazard.seeding import rng_from
from flowhazard.survival import (
    km_survival_at,
    read_survival_table,
    write_survival_table,
)

from _oracles import per_sequence_scan

from _worlds import (
    DRIVER,
    DRIVER_NAME,
    KNOWN_ATTACK,
    NOVEL_ATTACK,
    SCHEMA,
    familiar_world,
    make_pre_benign,
    planted_world,
)

COMBO = AttackCombination(KNOWN_ATTACK, NOVEL_ATTACK)


def linear_model(weights, intercept):
    """Handcrafted model whose score is exactly weights . x + intercept."""
    weights = np.asarray(weights, dtype=float)
    return TrainedModel(
        kind=BayesianRidgeParams(),
        state=LinearState(weights=weights, intercept=intercept),
        scale_mean=np.zeros(weights.size),
        scale_std=np.ones(weights.size),
    )


def small_config(**overrides):
    base = dict(
        regressor=BayesianRidgeParams(),
        combination=COMBO,
        seq_len=20,
        n_sequences=30,
        n_iterations=2,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("key", [(), (-1,), (7, 0, -3)])
def test_rng_from_rejects_a_bad_key_naming_it(key):
    with pytest.raises(InvalidValue) as err:
        rng_from(*key)
    assert repr(key) in str(err.value)


class TestBuildSequences:
    def test_single_flow_post_repeats_it(self):
        post = FlowDataset(SCHEMA, np.arange(5.0)[None, :], ("x",))
        rng = np.random.default_rng(0)
        seqs = build_sequences(post, n_sequences=4, seq_len=6, rng=rng)
        assert seqs.shape == (4, 6, 5)
        assert (seqs == np.arange(5.0)).all()

    def test_protocol_scale_shapes(self):
        rng = np.random.default_rng(1)
        post = FlowDataset(
            SCHEMA, np.random.default_rng(2).normal(size=(50, 5)),
            ("x",) * 50,
        )
        seqs = build_sequences(post, n_sequences=500, seq_len=100, rng=rng)
        assert seqs.shape == (500, 100, 5)

    def test_same_rng_state_identical(self):
        post = FlowDataset(
            SCHEMA, np.random.default_rng(3).normal(size=(40, 5)),
            ("x",) * 40,
        )
        a = build_sequences(post, 10, 10, np.random.default_rng(5))
        b = build_sequences(post, 10, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_empty_post_rejected(self):
        empty = FlowDataset(SCHEMA, np.zeros((0, 5)), ())
        with pytest.raises(EmptyInput):
            build_sequences(empty, 1, 1, np.random.default_rng(0))


class TestRunSequence:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.pre = make_pre_benign(50, rng)
        self.summary = feature_summary(self.pre)

    def test_constant_in_band_score_dies_at_index_zero(self):
        model = linear_model(np.zeros(5), 0.45)
        seq = np.random.default_rng(0).normal(size=(10, 5))
        res = run_sequence(model, seq, (0.40, 0.60), self.summary)
        assert res.detected_flow_index == 0
        assert res.survival.event == 1
        assert res.survival.time == 0.0
        assert res.score_trace.tolist() == [0.45]
        expected = np.abs(seq[0] - self.summary)
        np.testing.assert_allclose(res.survival.covariates, expected)

    def test_constant_out_of_band_score_censors(self):
        model = linear_model(np.zeros(5), 0.99)
        seq = np.random.default_rng(1).normal(size=(10, 5))
        res = run_sequence(model, seq, (0.40, 0.60), self.summary)
        assert res.detected_flow_index is None
        assert res.survival.event == 0
        assert res.survival.time == 10.0
        assert res.score_trace.shape == (10,)
        expected = np.abs(seq - self.summary).mean(axis=0)
        np.testing.assert_allclose(res.survival.covariates, expected)

    def test_censored_flows_sharing_a_distance_carry_it_exactly(self):
        # the mean of 100 copies of 0.7 is 0.7 + 2.2e-16
        model = linear_model(np.zeros(5), 0.99)
        seq = np.random.default_rng(2).normal(size=(100, 5))
        seq[:, 1] = 0.7
        res = run_sequence(model, seq, (0.40, 0.60), np.zeros(5))
        assert res.survival.event == 0
        want = np.abs(seq).mean(axis=0)
        want[1] = 0.7
        assert res.survival.covariates.tobytes() == want.tobytes()

    def test_first_hit_scan_with_inclusive_band_edge(self):
        # scores [0.9, 0.61, 0.60, 0.2]: 0.60 is inside the closed band
        model = linear_model(np.array([1.0, 0, 0, 0, 0]), 0.0)
        seq = np.zeros((4, 5))
        seq[:, 0] = [0.9, 0.61, 0.60, 0.2]
        res = run_sequence(model, seq, (0.40, 0.60), self.summary)
        assert res.detected_flow_index == 2
        assert res.survival.time == 2.0
        np.testing.assert_allclose(
            res.score_trace, [0.9, 0.61, 0.60], atol=1e-12
        )
        np.testing.assert_allclose(
            res.survival.covariates, np.abs(seq[2] - self.summary)
        )

    @pytest.mark.parametrize("score", [0.45, 0.99],
                             ids=["detected", "censored"])
    def test_means_of_another_width_rejected(self, score):
        model = linear_model(np.zeros(5), score)
        seq = np.zeros((4, 5))
        with pytest.raises(LengthMismatch):
            run_sequence(model, seq, (0.40, 0.60), self.summary[:4])

    def test_sequence_not_a_matrix_rejected(self):
        model = linear_model(np.zeros(5), 0.5)
        with pytest.raises(SchemaMismatch, match="matrix"):
            run_sequence(model, np.zeros(5), (0.40, 0.60), self.summary)

    def test_result_invariants_on_random_traces(self):
        rng = np.random.default_rng(13)
        model = linear_model(np.array([1.0, 0, 0, 0, 0]), 0.0)
        for _ in range(50):
            seq = np.zeros((8, 5))
            seq[:, 0] = rng.uniform(0, 1.2, 8)
            res = run_sequence(model, seq, (0.40, 0.60), self.summary)
            if res.survival.event:
                i = res.detected_flow_index
                assert res.survival.time == float(i)
                assert 0.40 <= res.score_trace[i] <= 0.60
                assert all(
                    not (0.40 <= s <= 0.60) for s in res.score_trace[:i]
                )
            else:
                assert res.survival.time == 8.0
                assert res.detected_flow_index is None


def _same_table(table, oracle):
    """Row i of ``table`` is the survival record of the oracle's sequence
    i, bit for bit."""
    assert len(table) == len(oracle)
    assert [r.sequence_id for r in oracle] == list(range(len(table)))
    want = [r.survival for r in oracle]
    assert table.times.tobytes() == np.array([r.time for r in want]).tobytes()
    assert table.events.tolist() == [r.event for r in want]
    for row, r in zip(table.X, want):
        assert row.tobytes() == r.covariates.tobytes()


def _same_results(bulk, oracle):
    """Bit-for-bit equality of two tuples of sequence results."""
    assert len(bulk) == len(oracle)
    for a, b in zip(bulk, oracle):
        assert a.sequence_id == b.sequence_id
        assert a.detected_flow_index == b.detected_flow_index
        assert a.survival.time == b.survival.time
        assert a.survival.event == b.survival.event
        assert a.survival.covariates.tobytes() == b.survival.covariates.tobytes()
        assert a.score_trace.tobytes() == b.score_trace.tobytes()


_SCAN_KINDS = {
    "random_forest": RandomForestParams(n_trees=5),
    "bayesian_ridge": BayesianRidgeParams(),
    "linear_svr": LinearSVRParams(epochs=5),
}


@functools.lru_cache(maxsize=None)
def scan_world(kind):
    """A model of ``kind`` trained on a small planted world, its post pool,
    the pool's scores and the pre-novelty summary."""
    benign, attack, post = planted_world(seed=21, n_pre=200, n_post=60, q=0.3)
    split = train_on_split(small_config(regressor=_SCAN_KINDS[kind]),
                           benign, attack)
    return (split.model, post, predict_many(split.model, post.features),
            feature_summary(split.pre))


@st.composite
def scan_cases(draw):
    kind = draw(st.sampled_from(sorted(_SCAN_KINDS)))
    model, pool, pool_scores, summary = scan_world(kind)
    n_post = draw(st.integers(1, len(pool)))
    # band edges: infinities, arbitrary values, and exact scores of flows
    # in the post pool, so a score can sit on either edge
    edge = st.one_of(
        st.sampled_from([-np.inf, np.inf]),
        st.floats(-0.5, 1.5),
        st.integers(0, n_post - 1).map(lambda k: float(pool_scores[k])),
    )
    low, high = sorted([draw(edge), draw(edge)])
    return dict(
        model=model,
        post=subset(pool, np.arange(n_post)),
        band=(low, high),
        pre_summary=summary,
        n_sequences=draw(st.integers(1, 12)),
        seq_len=draw(st.integers(1, 25)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestBulkScanMatchesPerSequenceOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=scan_cases())
    def test_bulk_scan_equals_per_sequence_loop(self, case):
        seed = case.pop("seed")
        n, length = case["n_sequences"], case["seq_len"]
        idx = _draw_indices(case["post"], n, length,
                            np.random.default_rng(seed))
        bulk = _scan_sequences(case["model"], case["post"], case["band"],
                               case["pre_summary"], idx)
        oracle = per_sequence_scan(rng=np.random.default_rng(seed), **case)
        _same_table(bulk, oracle)
        # run_sequence over build_sequences is the same scan, one row at a
        # time, with the score traces and detection indices
        seqs = build_sequences(case["post"], n, length,
                               np.random.default_rng(seed))
        one_by_one = tuple(
            run_sequence(case["model"], seqs[i], case["band"],
                         case["pre_summary"], sequence_id=i)
            for i in range(n)
        )
        _same_results(one_by_one, oracle)

    @pytest.mark.parametrize("kind", sorted(_SCAN_KINDS))
    def test_run_iteration_equals_oracle(self, kind):
        benign, attack, post = planted_world(seed=4, n_pre=200, n_post=400,
                                             q=0.05)
        cfg = small_config(regressor=_SCAN_KINDS[kind], n_sequences=40,
                           seq_len=30, accuracy_gate=0.0)
        split = train_on_split(cfg, benign, attack, 1)
        it = run_iteration(cfg, split, post, iteration=1)
        oracle = per_sequence_scan(
            split.model, post, (cfg.band_low, cfg.band_high),
            feature_summary(split.pre),
            cfg.n_sequences, cfg.seq_len, rng_from(cfg.master_seed, 1, 3),
        )
        _same_table(it.table, oracle)


class TestRunIteration:
    def test_smoke_row_count(self):
        benign, attack, post = planted_world(seed=3, n_pre=200, n_post=500,
                                             q=0.01)
        cfg = small_config(n_sequences=3, seq_len=5)
        it = run_iteration(cfg, train_on_split(cfg, benign, attack, 0),
                           post, iteration=0)
        assert len(it.table) == 3
        assert it.table.X.shape == (3, SCHEMA.n_features)
        buf = io.StringIO()
        write_survival_table(it.table, buf)
        ids = [line.split(",")[0] for line in buf.getvalue().splitlines()]
        assert ids == ["sequence_id", "0", "1", "2"]

    def test_familiar_post_rarely_detected(self):
        benign, attack, post = familiar_world(seed=5, n_pre=400, n_post=1000)
        cfg = small_config(n_sequences=50, seq_len=30)
        it = run_iteration(cfg, train_on_split(cfg, benign, attack, 0),
                           post, iteration=0)
        assert it.n_events / len(it.table) < 0.2

    def test_accuracy_gate_failure_reports_achieved(self):
        rng = np.random.default_rng(7)
        benign = make_pre_benign(300, rng)
        # "attack" drawn from the benign distribution: indistinguishable
        confusable = FlowDataset(
            SCHEMA, make_pre_benign(300, rng).features,
            (KNOWN_ATTACK,) * 300,
        )
        _, _, post = planted_world(seed=9, n_pre=50, n_post=200, q=0.01)
        cfg = small_config()
        with pytest.raises(AccuracyGateFailed) as err:
            run_iteration(cfg, train_on_split(cfg, benign, confusable, 0),
                          post, iteration=0)
        assert 0.0 <= err.value.achieved < 0.95
        assert err.value.required == 0.95

    def test_post_schema_mismatch_rejected_upfront(self):
        from flowhazard.errors import SchemaMismatch
        from flowhazard.flowdata import FlowSchema

        benign, attack, _ = planted_world(seed=2, n_pre=200, n_post=100)
        other = FlowDataset(
            FlowSchema(("a", "b")), np.zeros((5, 2)), ("x",) * 5
        )
        with pytest.raises(SchemaMismatch):
            run_iteration(small_config(),
                          train_on_split(small_config(), benign, attack, 0),
                          other, iteration=0)

    def test_planted_driver_beta_positive(self):
        benign, attack, post = planted_world(seed=11, q=0.008)
        cfg = small_config(n_sequences=200, seq_len=100)
        it = run_iteration(cfg, train_on_split(cfg, benign, attack, 1),
                           post, iteration=1)
        assert it.cox is not None and it.cox.converged
        assert it.cox.beta[DRIVER] > 0

    def test_pool_of_one_flow_leaves_nothing_to_fit(self):
        # every drawn flow is the same, so every record, hit or censored,
        # carries the same distances and no covariate column varies
        benign, attack, post = planted_world(seed=3, n_pre=200, n_post=50,
                                             q=0.01)
        one = FlowDataset(SCHEMA, np.repeat(post.features[:1], 50, axis=0),
                          post.labels[:1] * 50)
        cfg = small_config(n_sequences=20, seq_len=10, n_iterations=1)
        it = run_iteration(cfg, train_on_split(cfg, benign, attack, 0), one)
        assert it.cox is None
        assert it.cox_error == "all covariate columns are constant"
        assert it.dropped_covariates == SCHEMA.feature_names
        assert len(np.unique(it.table.X, axis=0)) == 1

        report = run_experiment(cfg, benign, attack, lambda: one)
        entry, = report_to_json_dict(report)["iterations"]
        assert entry["failed"] is False and "cox" not in entry
        assert entry["beta"] == [0.0] * SCHEMA.n_features
        assert entry["cox_error"] == "all covariate columns are constant"
        assert entry["dropped_covariates"] == list(SCHEMA.feature_names)

    def test_failed_iteration_is_written_as_its_error(self):
        benign, attack, post = planted_world(seed=3, n_pre=200, n_post=200,
                                             q=0.01)
        cfg = small_config(n_sequences=20, seq_len=10, n_iterations=1)
        report = run_experiment(cfg, benign, attack, lambda: post)
        failure = IterationFailure(1, "AccuracyGateFailed", "holdout 0.5")
        report = dataclasses.replace(
            report, iterations=report.iterations + (failure,)
        )
        entries = report_to_json_dict(report)["iterations"]
        assert entries[1] == {
            "iteration": 1, "failed": True,
            "error_kind": "AccuracyGateFailed", "message": "holdout 0.5",
        }
        assert entries[0]["failed"] is False


class TestRunExperiment:
    def test_band_covering_everything_kills_at_index_zero(self):
        benign, attack, post = planted_world(seed=13, n_pre=300, n_post=800,
                                             q=0.0)
        cfg = small_config(
            band_low=-np.inf, band_high=np.inf, n_sequences=40, seq_len=10,
        )
        report = run_experiment(cfg, benign, attack, lambda: post)
        assert report.detection_rate == 1.0
        assert km_survival_at(report.pooled_km, 0.0) == 0.0
        for it in report.successes:
            assert it.table.events.all()
            assert (it.table.times == 0.0).all()

    def test_feature_constant_in_the_novel_attack_is_dropped(self):
        # f_n4 is 7.3 in every novel flow, so every record carries the same
        # distance, censored ones included; a mean of 100 copies rounds
        benign, attack, post = planted_world(seed=7, q=0.01)
        flat = post.features.copy()
        flat[:, 4] = 7.3
        post = FlowDataset(SCHEMA, flat, post.labels)
        cfg = small_config(n_sequences=100, seq_len=100, n_iterations=3)
        report = run_experiment(cfg, benign, attack, lambda: post)
        assert report.n_converged == 3
        for it in report.successes:
            assert it.dropped_covariates == it.cox.dropped == ("f_n4",)
            assert it.cox.beta[4] == 0.0
            assert len(np.unique(it.table.X[:, 4])) == 1
        assert report.mean_beta[4] == 0.0
        assert "f_n4" not in report.selected_features

    def test_unreachable_band_censors_everything(self):
        benign, attack, post = planted_world(seed=17, n_pre=300, n_post=800,
                                             q=0.0)
        cfg = small_config(
            band_low=1e9, band_high=2e9, n_sequences=40, seq_len=10,
        )
        report = run_experiment(cfg, benign, attack, lambda: post)
        assert report.detection_rate == 0.0
        assert report.n_converged == 0
        for t in (0.0, 5.0, 10.0):
            assert km_survival_at(report.pooled_km, t) == 1.0
        records = [r for it in report.successes for r in it.table]
        assert all(r.event == 0 and r.time == 10.0 for r in records)
        for it in report.successes:
            assert it.cox is None
            assert "NoEvents" in it.cox_error

    def test_pooled_km_tail_equals_one_minus_detection_rate(self):
        # censoring only happens at seq_len, so the survival estimate at
        # the horizon is exactly the censored fraction
        benign, attack, post = planted_world(seed=19, q=0.01)
        cfg = small_config(n_sequences=60, seq_len=40, n_iterations=2)
        report = run_experiment(cfg, benign, attack, lambda: post)
        assert 0.0 < report.detection_rate < 1.0
        tail = km_survival_at(report.pooled_km, cfg.seq_len)
        assert tail == pytest.approx(1.0 - report.detection_rate, abs=1e-12)

    def test_single_iteration_mean_beta_is_that_iteration(self):
        benign, attack, post = planted_world(seed=23, q=0.01)
        cfg = small_config(n_sequences=80, seq_len=30, n_iterations=1)
        report = run_experiment(cfg, benign, attack, lambda: post)
        assert report.n_converged == 1
        it = report.successes[0]
        np.testing.assert_array_equal(report.mean_beta, it.cox.beta)

    def test_all_iterations_failing_raises(self):
        # consistent gate failures surface as the gate error; other
        # iteration-killing failures aggregate
        rng = np.random.default_rng(29)
        benign = make_pre_benign(200, rng)
        confusable = FlowDataset(
            SCHEMA, make_pre_benign(200, rng).features,
            (KNOWN_ATTACK,) * 200,
        )
        _, _, post = planted_world(seed=31, n_pre=50, n_post=100, q=0.0)
        cfg = small_config(n_iterations=2)
        with pytest.raises(AccuracyGateFailed):
            run_experiment(cfg, benign, confusable, lambda: post)

        good_benign, good_attack, _ = planted_world(seed=31, n_pre=200,
                                                    n_post=100, q=0.0)
        empty_post = FlowDataset(SCHEMA, np.zeros((0, 5)), ())
        with pytest.raises(AllIterationsFailed):
            run_experiment(cfg, good_benign, good_attack, lambda: empty_post)

    def test_pooled_km_exchangeable_in_sequence_order(self):
        benign, attack, post = planted_world(seed=53, q=0.02)
        cfg = small_config(n_sequences=40, seq_len=20, n_iterations=1)
        report = run_experiment(cfg, benign, attack, lambda: post)
        table = report.successes[0].table
        perm = np.random.default_rng(0).permutation(len(table))
        from flowhazard.survival import SurvivalTable, km_fit

        again = km_fit(SurvivalTable(table.times[perm], table.events[perm],
                                     table.X[perm]))
        np.testing.assert_array_equal(report.pooled_km.times, again.times)
        np.testing.assert_array_equal(
            report.pooled_km.survival, again.survival
        )

    def test_gate_failure_everywhere_surfaces_gate_error(self):
        benign, attack, post = planted_world(seed=59, n_pre=200, n_post=400,
                                             q=0.01)
        cfg = small_config(accuracy_gate=1.01)  # unreachable on purpose
        with pytest.raises(AccuracyGateFailed):
            run_experiment(cfg, benign, attack, lambda: post)

    @pytest.mark.parametrize("kind", [BayesianRidgeParams(),
                                      RandomForestParams(n_trees=5)],
                             ids=lambda k: k.kind)
    def test_scores_no_training_row(self, kind, monkeypatch):
        # one iteration scores its holdout for the gate and each distinct
        # injected flow once; the training set is not scored
        from flowhazard import experiment, models

        benign, attack, post = planted_world(seed=61, q=0.01)
        cfg = small_config(regressor=kind, n_sequences=50, seq_len=30,
                           n_iterations=1)
        holdout = train_on_split(cfg, benign, attack, 0).holdout
        idx = experiment._draw_indices(post, cfg.n_sequences, cfg.seq_len,
                                       rng_from(cfg.master_seed, 0, 3))
        scored = []

        def counting(model, X):
            scored.append(len(X))
            return predict_many(model, X)

        monkeypatch.setattr(models, "predict_many", counting)
        monkeypatch.setattr(experiment, "predict_many", counting)
        run_experiment(cfg, benign, attack, lambda: post)
        assert scored == [len(holdout), np.unique(idx).size]

    def test_deterministic_report(self):
        benign, attack, post = planted_world(seed=37, n_pre=300, n_post=800,
                                             q=0.02)
        cfg = small_config(n_sequences=40, seq_len=20)
        a = run_experiment(cfg, benign, attack, lambda: post)
        b = run_experiment(cfg, benign, attack, lambda: post)
        text_a = json.dumps(report_to_json_dict(a), sort_keys=True)
        text_b = json.dumps(report_to_json_dict(b), sort_keys=True)
        assert text_a == text_b


class TestSelectFeatures:
    def run_small(self, seed=41):
        benign, attack, post = planted_world(seed=seed, q=0.01)
        cfg = small_config(n_sequences=150, seq_len=60, n_iterations=3)
        return run_experiment(cfg, benign, attack, lambda: post)

    def test_planted_feature_selected_with_positive_mean(self):
        report = self.run_small()
        assert DRIVER_NAME in report.selected_features
        assert report.mean_beta[DRIVER] > 0

    def test_ordering_is_by_mean_beta_magnitude(self):
        report = self.run_small()
        mags = [
            abs(report.mean_beta[report.feature_names.index(name)])
            for name in report.selected_features
        ]
        assert mags == sorted(mags, reverse=True)

    def test_threshold_fraction_arithmetic(self):
        report = self.run_small()
        # raising the magnitude threshold above every |beta| empties the list
        nothing = select_features(
            report, SelectionRule(min_abs_beta=1e9, min_fraction=0.8)
        )
        assert nothing == ()
        # a feature non-zero in under the required fraction is excluded:
        # with 3 converged fits, min_fraction=0.8 needs all 3
        betas = np.array([
            it.cox.beta for it in report.successes
            if it.cox is not None and it.cox.converged
        ])
        frac = np.mean(np.abs(betas) >= 1e-3, axis=0)
        chosen = select_features(
            report, SelectionRule(min_abs_beta=1e-3, min_fraction=0.8)
        )
        for j, name in enumerate(report.feature_names):
            assert (name in chosen) == (frac[j] >= 0.8)


class TestSurvivalTableIO:
    def test_round_trip(self):
        benign, attack, post = planted_world(seed=43, n_pre=300, n_post=500,
                                             q=0.05)
        cfg = small_config(n_sequences=20, seq_len=10, n_iterations=1)
        report = run_experiment(cfg, benign, attack, lambda: post)
        original = report.successes[0].table
        buf = io.StringIO()
        write_survival_table(original, buf)
        buf.seek(0)
        table = read_survival_table(buf)
        assert table.feature_names == report.feature_names
        for col in ("times", "events", "X"):
            np.testing.assert_array_equal(getattr(table, col),
                                          getattr(original, col))

    def test_header_validation_names_offender(self):
        buf = io.StringIO("sequence_id,when,event,f\n0,1,1,2\n")
        with pytest.raises(Exception) as err:
            read_survival_table(buf)
        assert "time" in str(err.value)

    def test_aggregate_cox_round_trip(self):
        benign, attack, post = planted_world(seed=47, q=0.02)
        cfg = small_config(n_sequences=50, seq_len=20, n_iterations=2)
        report = run_experiment(cfg, benign, attack, lambda: post)
        buf = io.StringIO()
        aggregate_cox_to_csv(report, buf)
        buf.seek(0)
        rows = list(csv.DictReader(buf))
        assert tuple(r["feature"] for r in rows) == report.feature_names
        np.testing.assert_array_equal(
            [float(r["mean_beta"]) for r in rows], report.mean_beta
        )
        np.testing.assert_array_equal(
            [float(r["hazard_ratio"]) for r in rows], np.exp(report.mean_beta)
        )

    def test_aggregate_ratio_past_float_range_is_inf(self):
        benign, attack, post = planted_world(seed=47, q=0.02)
        cfg = small_config(n_sequences=50, seq_len=20, n_iterations=1)
        report = run_experiment(cfg, benign, attack, lambda: post)
        huge = dataclasses.replace(report, betas=np.full((1, 5), 1000.0))
        buf = io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            aggregate_cox_to_csv(huge, buf)
        rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
        assert [r["mean_beta"] for r in rows] == ["1000.0"] * 5
        assert [r["hazard_ratio"] for r in rows] == ["inf"] * 5
