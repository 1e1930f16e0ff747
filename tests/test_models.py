import json
from dataclasses import asdict

import numpy as np
import pytest

from flowhazard.errors import (
    DegenerateData, EmptyInput, InvalidSpec, InvalidValue, NonFinite,
    SchemaMismatch,
)
from flowhazard.flowdata import FlowDataset, FlowSchema
from flowhazard.models import (
    BayesianRidgeParams,
    LinearSVRParams,
    RandomForestParams,
    TrainReport,
    evaluate_accuracy,
    model_to_json,
    predict_many,
    train,
)
from flowhazard.models.forest import ForestState

ALL_KINDS = [
    RandomForestParams(n_trees=30),
    BayesianRidgeParams(),
    LinearSVRParams(),
]

SCHEMA2 = FlowSchema(("f0", "f1"))


def dataset(features, targets, schema=None, labels=None):
    features = np.asarray(features, dtype=float)
    n, width = features.shape
    schema = schema or FlowSchema(tuple(f"f{i}" for i in range(width)))
    targets = np.asarray(targets, dtype=float)
    if labels is None:
        labels = tuple("attack" if t == 1.0 else "benign" for t in targets)
    return FlowDataset(schema, features, labels, targets=targets)


def separable_toy(n_per_class=60, seed=0, gap=4.0):
    """Two features; class decided by a threshold on feature 0."""
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([
        rng.normal(0.0, 0.4, n_per_class),
        rng.normal(gap, 0.4, n_per_class),
    ])
    x1 = rng.normal(0.0, 1.0, 2 * n_per_class)
    y = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    return dataset(np.column_stack([x0, x1]), y)


class TestTrain:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_separable_toy_reaches_full_accuracy(self, kind):
        data = separable_toy()
        model = train(kind, data, seed=1)
        assert evaluate_accuracy(model, data) == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_single_class_is_degenerate(self, kind):
        data = dataset(np.random.default_rng(0).normal(size=(10, 2)),
                       np.zeros(10))
        with pytest.raises(DegenerateData):
            train(kind, data, seed=0)

    def test_dataset_without_targets_is_degenerate(self):
        data = separable_toy()
        model = train(BayesianRidgeParams(), data, seed=0)
        unlabeled = FlowDataset(data.schema, data.features, data.labels)
        with pytest.raises(DegenerateData):
            train(BayesianRidgeParams(), unlabeled, seed=0)
        with pytest.raises(DegenerateData):
            evaluate_accuracy(model, unlabeled)

    def test_unknown_kind_is_invalid_spec(self):
        with pytest.raises(InvalidSpec, match="unsupported regressor kind"):
            train({"kind": "random_forest"}, separable_toy(), seed=0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_same_seed_byte_identical(self, kind):
        data = separable_toy(seed=3)
        a = model_to_json(train(kind, data, seed=42))
        b = model_to_json(train(kind, data, seed=42))
        assert a == b

    def test_different_seed_changes_forest(self):
        data = separable_toy(seed=3)
        kind = RandomForestParams(n_trees=10)
        a = model_to_json(train(kind, data, seed=1))
        b = model_to_json(train(kind, data, seed=2))
        assert a != b

    def test_constant_feature_scaling_recorded_as_one(self):
        feats = np.column_stack([np.ones(20), np.arange(20.0)])
        y = (np.arange(20) >= 10).astype(float)
        model = train(BayesianRidgeParams(), dataset(feats, y), seed=0)
        assert model.scale_std[0] == 1.0

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_feature_past_float_range_is_nonfinite(self, kind):
        # the squares of +-1e160 overflow: no finite std to scale by
        feats = np.column_stack([np.arange(20.0),
                                 np.resize([1e160, -1e160], 20)])
        y = (np.arange(20) >= 10).astype(float)
        with pytest.raises(NonFinite, match="'f1'"):
            train(kind, dataset(feats, y), seed=0)


class TestPredict:
    def test_stump_predicts_global_mean(self):
        # depth-0 tree, no bootstrap: every prediction is the target mean
        data = separable_toy(n_per_class=25)
        kind = RandomForestParams(n_trees=1, max_depth=0, bootstrap=False)
        model = train(kind, data, seed=0)
        scores = predict_many(model, np.array([[0.0, 0.0], [100.0, -3.0]]))
        for score in scores:
            assert score == pytest.approx(0.5)

    def test_bayesian_ridge_constant_targets(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(30, 3))
        # constant-target check needs both classes bypassed: targets all c
        # is degenerate for train(), so exercise the regression core
        from flowhazard.models.bayes_ridge import fit_bayesian_ridge

        c = 0.7
        state = fit_bayesian_ridge(feats, np.full(30, c), 300, 1e-4)
        scores = feats @ state.weights + state.intercept
        np.testing.assert_allclose(scores, c, atol=1e-6)

    def test_overfit_forest_memorizes_training_rows(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(40, 3))
        # rows distinct in every feature by construction (continuous draws)
        assert len(np.unique(feats[:, 0])) == 40
        y = rng.integers(0, 2, 40).astype(float)
        y[0], y[1] = 0.0, 1.0
        kind = RandomForestParams(
            n_trees=3, max_depth=None, min_leaf=1,
            features_per_split=3, bootstrap=False,
        )
        model = train(kind, dataset(feats, y), seed=0)
        scores = predict_many(model, feats)
        np.testing.assert_allclose(scores, y, atol=1e-12)

    def test_schema_mismatch(self):
        model = train(BayesianRidgeParams(), separable_toy(), seed=0)
        with pytest.raises(SchemaMismatch):
            predict_many(model, np.zeros((1, 3)))
        with pytest.raises(SchemaMismatch):
            predict_many(model, np.zeros(2))
        with pytest.raises(SchemaMismatch):
            predict_many(model, np.zeros((4, 5)))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_scores_finite_on_finite_input(self, kind):
        data = separable_toy(seed=11)
        model = train(kind, data, seed=2)
        rng = np.random.default_rng(13)
        scores = predict_many(model, rng.normal(scale=1e5, size=(50, 2)))
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_predict_matches_predict_many(self, kind):
        # one flow scored as a batch of one equals its row of a full batch
        data = separable_toy(seed=11)
        model = train(kind, data, seed=2)
        rng = np.random.default_rng(17)
        X = rng.normal(size=(10, 2))
        many = predict_many(model, X)
        for i in range(10):
            one = predict_many(model, X[i:i + 1])
            assert one.shape == (1,)
            assert one[0] == many[i]

    @pytest.mark.parametrize("kind", ALL_KINDS[1:], ids=lambda k: k.kind)
    def test_score_does_not_depend_on_batch_at_cic_width(self, kind):
        # 78 features: wide enough for BLAS matrix-vector kernels to treat
        # a batch's remainder rows differently
        rng = np.random.default_rng(19)
        width = 78
        y = np.repeat([0.0, 1.0], 40)
        feats = rng.normal(size=(80, width)) + y[:, None]
        model = train(kind, dataset(feats, y), seed=0)
        X = rng.normal(size=(40, width))
        full = predict_many(model, X)
        for start in range(4):
            for n in range(1, 12):
                part = predict_many(model, X[start:start + n])
                assert part.tobytes() == full[start:start + n].tobytes()


class TestInvariances:
    def test_forest_invariant_under_affine_feature_transform(self):
        # affine maps preserve midpoints, so thresholds move exactly with
        # the data and every prediction is unchanged
        data = separable_toy(seed=19)
        kind = RandomForestParams(n_trees=20)
        model_raw = train(kind, data, seed=5)
        scale, shift = 8.0, -3.0
        transformed = dataset(
            np.column_stack([
                data.features[:, 0] * scale + shift,
                data.features[:, 1],
            ]),
            data.targets,
        )
        model_t = train(kind, transformed, seed=5)
        rng = np.random.default_rng(23)
        X = rng.normal(loc=2.0, size=(30, 2))
        Xt = np.column_stack([X[:, 0] * scale + shift, X[:, 1]])
        np.testing.assert_allclose(
            predict_many(model_raw, X), predict_many(model_t, Xt), atol=1e-9
        )

    def test_forest_rank_invariance_under_nonlinear_monotone_transform(self):
        # a nonlinear monotone map keeps every training row on the same
        # side of every split (thresholds are midpoints of training
        # values), so training-row predictions are unchanged; points
        # inside a gap may cross the moved midpoint, so trees must see
        # every row (no bootstrap) for the exact form of the property
        data = separable_toy(seed=19)
        kind = RandomForestParams(n_trees=20, bootstrap=False)
        model_raw = train(kind, data, seed=5)
        transformed = dataset(
            np.column_stack([
                np.exp(data.features[:, 0] / 4.0),
                data.features[:, 1],
            ]),
            data.targets,
        )
        model_t = train(kind, transformed, seed=5)
        np.testing.assert_allclose(
            predict_many(model_raw, data.features),
            predict_many(model_t, transformed.features),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "kind", [BayesianRidgeParams(), LinearSVRParams()],
        ids=lambda k: k.kind,
    )
    def test_linear_kinds_invariant_under_affine_rescaling(self, kind):
        data = separable_toy(seed=29)
        scale, shift = 250.0, -40.0
        rescaled = dataset(
            np.column_stack([
                data.features[:, 0] * scale + shift,
                data.features[:, 1],
            ]),
            data.targets,
        )
        model_raw = train(kind, data, seed=7)
        model_r = train(kind, rescaled, seed=7)
        rng = np.random.default_rng(31)
        X = rng.normal(size=(30, 2))
        Xr = np.column_stack([X[:, 0] * scale + shift, X[:, 1]])
        np.testing.assert_allclose(
            predict_many(model_raw, X), predict_many(model_r, Xr),
            rtol=1e-8, atol=1e-8,
        )


class TestEvaluateAccuracy:
    def test_perfect_and_inverted(self):
        data = separable_toy(seed=37)
        kind = RandomForestParams(
            n_trees=1, min_leaf=1, features_per_split=2, bootstrap=False
        )
        model = train(kind, data, seed=0)
        assert evaluate_accuracy(model, data) == 1.0
        inverted = dataset(data.features, 1.0 - data.targets)
        assert evaluate_accuracy(model, inverted) == 0.0

    def test_uninformative_model_on_balanced_coin_targets(self):
        # a depth-0 stump scores the target share for every row, so its
        # accuracy is the majority share: 0.5 within the binomial 3 sigma
        # bound 3*sqrt(0.25/10000) = 0.015
        rng = np.random.default_rng(41)
        n = 10000
        feats = rng.normal(size=(n, 1))  # uninformative feature
        targets = rng.integers(0, 2, n).astype(float)
        data = dataset(feats, targets)
        kind = RandomForestParams(n_trees=1, max_depth=0, bootstrap=False)
        model = train(kind, data, seed=0)
        accuracy = evaluate_accuracy(model, data)
        assert abs(accuracy - 0.5) < 0.02

    def test_empty_rejected(self):
        model = train(BayesianRidgeParams(), separable_toy(), seed=0)
        empty = FlowDataset(SCHEMA2, np.zeros((0, 2)), (), targets=np.zeros(0))
        with pytest.raises(EmptyInput):
            evaluate_accuracy(model, empty)

    def test_bounded(self):
        data = separable_toy(seed=43)
        for kind in ALL_KINDS:
            model = train(kind, data, seed=3)
            acc = evaluate_accuracy(model, data, cut=0.9)
            assert 0.0 <= acc <= 1.0


def assert_written_exactly(values, array):
    """``values``, read from JSON, hold ``array``'s numbers bit for bit."""
    array = np.asarray(array)
    assert np.array(values, dtype=array.dtype).tobytes() == array.tobytes()


class TestSerialization:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.kind)
    def test_document_holds_the_model_exactly(self, kind):
        model = train(kind, separable_toy(seed=47), seed=9)
        report = TrainReport(n_rows=120, train_accuracy=0.975)
        doc = json.loads(model_to_json(model, report))
        assert (doc["format"], doc["version"]) == ("flowhazard-model", 1)
        assert doc["kind"] == kind.kind
        assert doc["hyperparams"] == asdict(kind)
        assert_written_exactly(doc["scaling"]["mean"], model.scale_mean)
        assert_written_exactly(doc["scaling"]["std"], model.scale_std)
        state = doc["state"]
        if isinstance(model.state, ForestState):
            assert len(state["trees"]) == len(model.state.trees)
            for written, tree in zip(state["trees"], model.state.trees):
                for field in ("feature", "threshold", "left", "right",
                              "value"):
                    assert_written_exactly(written[field],
                                           getattr(tree, field))
        else:
            assert_written_exactly(state["weights"], model.state.weights)
            assert_written_exactly([state["intercept"]],
                                   [model.state.intercept])
        assert doc["train_report"] == asdict(report)


class TestHyperparameterValidation:
    def test_bad_counts(self):
        with pytest.raises(InvalidValue):
            RandomForestParams(n_trees=0)
        with pytest.raises(InvalidValue):
            LinearSVRParams(C=0.0)
        with pytest.raises(InvalidValue):
            LinearSVRParams(epsilon=-0.1)
        with pytest.raises(InvalidValue):
            BayesianRidgeParams(max_evidence_iters=0)
