import io

import numpy as np
import pytest

from flowhazard.errors import (
    EmptyInput,
    InvalidSpec,
    LengthMismatch,
    MissingColumn,
    SchemaMismatch,
)
from flowhazard.flowdata import (
    FlowDataset,
    FlowSchema,
    SyntheticSpec,
    abs_diff_covariates,
    binary_dataset,
    cicids2017_schema,
    feature_summary,
    parse_flow_csv,
    serialize_flow_csv,
    subset,
    synthesize_flows,
)

SCHEMA = FlowSchema(("a", "b"), label_column="Label")


def csv_bytes(text: str) -> bytes:
    return text.encode("utf-8")


def make_dataset(rows, labels, schema=SCHEMA, targets=None):
    return FlowDataset(
        schema=schema,
        features=np.array(rows, dtype=float),
        labels=tuple(labels),
        targets=targets,
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(InvalidSpec):
            FlowSchema(("a", "a"))

    def test_label_clash_rejected(self):
        with pytest.raises(InvalidSpec):
            FlowSchema(("a", "Label"))

    def test_cicids_preset_is_self_consistent(self):
        schema = cicids2017_schema()
        assert schema.n_features == len(set(schema.feature_names))
        assert "PSH Flag Count" in schema.feature_names
        assert "Down/Up Ratio" in schema.feature_names


class TestParse:
    def test_clean_three_rows(self):
        data = csv_bytes("a,b,Label\n1,2,x\n3,4,x\n5,6,y\n")
        ds = parse_flow_csv(data, SCHEMA)
        assert len(ds) == 3
        assert ds.report.rows_kept == 3
        assert ds.report.nonfinite_dropped == 0
        assert ds.labels == ("x", "x", "y")

    def test_infinity_token_dropped_and_counted(self):
        data = csv_bytes("a,b,Label\n1,2,x\nInfinity,4,x\n5,NaN,x\n")
        ds = parse_flow_csv(data, SCHEMA)
        assert len(ds) == 1
        assert ds.report.nonfinite_dropped == 2

    def test_missing_label_column(self):
        data = csv_bytes("a,b\n1,2\n")
        with pytest.raises(MissingColumn):
            parse_flow_csv(data, SCHEMA)

    def test_missing_feature_column(self):
        data = csv_bytes("a,Label\n1,x\n")
        with pytest.raises(MissingColumn) as err:
            parse_flow_csv(data, SCHEMA)
        assert "b" in str(err.value)

    def test_malformed_rows_reported_not_fatal(self):
        data = csv_bytes("a,b,Label\n1,2,x\nbogus,2,x\n3\n4,5,y\n")
        ds = parse_flow_csv(data, SCHEMA)
        assert len(ds) == 2
        assert ds.report.malformed_dropped == 2
        assert ds.report.rows_read == 4

    def test_header_matching_trims_and_ignores_case(self):
        data = csv_bytes(" A , b ,label\n1,2,x\n")
        ds = parse_flow_csv(data, SCHEMA)
        assert len(ds) == 1

    def test_column_order_may_differ(self):
        data = csv_bytes("Label,b,a\nx,2,1\n")
        ds = parse_flow_csv(data, SCHEMA)
        assert ds.features[0].tolist() == [1.0, 2.0]

    def test_all_rows_dropped_is_empty_input(self):
        data = csv_bytes("a,b,Label\nInfinity,2,x\n")
        with pytest.raises(EmptyInput):
            parse_flow_csv(data, SCHEMA)

    def test_published_flow_header_shape(self):
        # mimic the published flow CSVs: leading spaces in the header, a
        # duplicated "Fwd Header Length" column, and Infinity/NaN tokens
        # in the rate columns
        schema = cicids2017_schema()
        header = [" " + name for name in schema.feature_names]
        dup_at = header.index(" Avg Bwd Segment Size") + 1
        header.insert(dup_at, " Fwd Header Length")
        header.append(" Label")

        def row(rate_token):
            cells = []
            for name in header[:-1]:
                if name.strip() in ("Flow Bytes/s", "Flow Packets/s"):
                    cells.append(rate_token)
                else:
                    cells.append("1")
            return ",".join(cells + ["DoS Hulk"])

        text = ",".join(header) + "\n" + row("2.5") + "\n" + row("Infinity")
        ds = parse_flow_csv(text.encode(), schema)
        assert len(ds) == 1
        assert ds.report.nonfinite_dropped == 1
        assert ds.labels == ("DoS Hulk",)
        assert ds.features.shape == (1, schema.n_features)

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((20, 2)) * 1e6
        ds = make_dataset(feats, ["x"] * 10 + ["y z"] * 10)
        buf = io.StringIO()
        serialize_flow_csv(ds, buf)
        again = parse_flow_csv(buf.getvalue().encode(), SCHEMA)
        assert np.array_equal(again.features, ds.features)
        assert again.labels == ds.labels
        buf2 = io.StringIO()
        serialize_flow_csv(again, buf2)
        assert buf2.getvalue() == buf.getvalue()


class TestBinaryDataset:
    def test_counts_and_targets(self):
        benign = make_dataset(np.zeros((10, 2)), ["B"] * 10)
        attack = make_dataset(np.ones((10, 2)), ["A"] * 10)
        ds = binary_dataset(benign, attack, seed=3)
        assert len(ds) == 20
        values, counts = np.unique(ds.targets, return_counts=True)
        assert values.tolist() == [0.0, 1.0]
        assert counts.tolist() == [10, 10]
        # targets track labels through the shuffle
        for lab, t in zip(ds.labels, ds.targets):
            assert t == (1.0 if lab == "A" else 0.0)

    def test_empty_attack_rejected(self):
        benign = make_dataset(np.zeros((5, 2)), ["B"] * 5)
        empty = FlowDataset(SCHEMA, np.zeros((0, 2)), ())
        with pytest.raises(EmptyInput):
            binary_dataset(benign, empty, seed=0)

    def test_same_seed_same_order(self):
        benign = make_dataset(np.arange(20).reshape(10, 2), ["B"] * 10)
        attack = make_dataset(-np.arange(20).reshape(10, 2), ["A"] * 10)
        first = binary_dataset(benign, attack, seed=11)
        second = binary_dataset(benign, attack, seed=11)
        assert np.array_equal(first.features, second.features)
        assert first.labels == second.labels

    def test_schema_mismatch(self):
        other = FlowSchema(("a", "c"))
        benign = make_dataset(np.zeros((2, 2)), ["B"] * 2)
        attack = make_dataset(np.zeros((2, 2)), ["A"] * 2, schema=other)
        with pytest.raises(SchemaMismatch):
            binary_dataset(benign, attack, seed=0)


class TestFeatureSummary:
    def test_single_row(self):
        ds = make_dataset([[4.0, -2.0]], ["x"])
        s = feature_summary(ds)
        assert s.means.tolist() == [4.0, -2.0]

    def test_hand_arithmetic(self):
        # rows (1,3) and (3,5): means (2,4)
        ds = make_dataset([[1.0, 3.0], [3.0, 5.0]], ["x", "x"])
        s = feature_summary(ds)
        assert s.means.tolist() == [2.0, 4.0]

    def test_duplication_invariance(self):
        rng = np.random.default_rng(5)
        feats = rng.standard_normal((7, 2))
        ds = make_dataset(feats, ["x"] * 7)
        doubled = make_dataset(np.vstack([feats, feats]), ["x"] * 14)
        np.testing.assert_allclose(
            feature_summary(ds).means, feature_summary(doubled).means
        )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((9, 2))
        ds = make_dataset(feats, ["x"] * 9)
        perm = rng.permutation(9)
        shuffled = subset(ds, perm)
        np.testing.assert_allclose(
            feature_summary(ds).means, feature_summary(shuffled).means
        )

    def test_empty_rejected(self):
        empty = FlowDataset(SCHEMA, np.zeros((0, 2)), ())
        with pytest.raises(EmptyInput):
            feature_summary(empty)


class TestAbsDiffCovariates:
    def test_flow_at_the_mean_gives_zero(self):
        ds = make_dataset([[1.0, 2.0], [3.0, 4.0]], ["x", "x"])
        s = feature_summary(ds)
        assert abs_diff_covariates(s.means, s).tolist() == [0.0, 0.0]

    def test_own_summary_gives_zero(self):
        ds = make_dataset([[5.5, -1.25]], ["x"])
        s = feature_summary(ds)
        assert abs_diff_covariates(ds.features[0], s).tolist() == [0.0, 0.0]

    def test_hand_arithmetic(self):
        # flow (5, 0), means (2, 4) -> (3, 4)
        ds = make_dataset([[2.0, 4.0]], ["x"])
        s = feature_summary(ds)
        out = abs_diff_covariates(np.array([5.0, 0.0]), s)
        assert out.tolist() == [3.0, 4.0]

    def test_non_negative_on_random_inputs(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(rng.standard_normal((30, 2)), ["x"] * 30)
        s = feature_summary(ds)
        for _ in range(50):
            out = abs_diff_covariates(rng.standard_normal(2) * 100, s)
            assert (out >= 0).all()

    def test_length_mismatch(self):
        ds = make_dataset([[1.0, 2.0]], ["x"])
        s = feature_summary(ds)
        with pytest.raises(LengthMismatch):
            abs_diff_covariates(np.array([1.0, 2.0, 3.0]), s)


def toy_spec(mean=10.0, std=2.0, truncate=True):
    return SyntheticSpec.from_json_dict({
        "X": {"f": {"mean": mean, "std": std, "truncate_at_zero": truncate}},
    })


class TestSynthesize:
    def test_zero_std_gives_identical_rows(self):
        ds = synthesize_flows(toy_spec(std=0.0), n=20, seed=1)
        assert np.all(ds.features == 10.0)

    def test_sample_mean_is_close(self):
        # standard error 2/sqrt(1000) ~ 0.063; 10 +/- 0.25 is a ~4 sigma box
        ds = synthesize_flows(toy_spec(), n=1000, seed=2)
        assert abs(ds.features.mean() - 10.0) < 0.25

    def test_same_seed_identical(self):
        a = synthesize_flows(toy_spec(), n=50, seed=9)
        b = synthesize_flows(toy_spec(), n=50, seed=9)
        assert np.array_equal(a.features, b.features)

    def test_negative_std_rejected(self):
        with pytest.raises(InvalidSpec):
            toy_spec(std=-1.0)

    def test_truncation_clips_at_zero(self):
        ds = synthesize_flows(toy_spec(mean=0.0, std=1.0), n=500, seed=3)
        assert ds.features.min() >= 0.0
        untrunc = synthesize_flows(
            toy_spec(mean=0.0, std=1.0, truncate=False), n=500, seed=3
        )
        assert untrunc.features.min() < 0.0

    def test_inconsistent_classes_rejected(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec.from_json_dict({
                "X": {"f": {"mean": 0, "std": 1}},
                "Y": {"g": {"mean": 0, "std": 1}},
            })


def test_every_dataset_is_finite():
    with pytest.raises(Exception):
        make_dataset([[np.inf, 0.0]], ["x"])
    with pytest.raises(Exception):
        make_dataset([[np.nan, 0.0]], ["x"])
