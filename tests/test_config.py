"""Config dataclasses: one type check for every scalar field, and the
experiment section read and written in one place."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowhazard.config import (
    CsvInputs,
    PipelineConfig,
    SchemaColumns,
    SyntheticInputs,
)
from flowhazard.errors import InvalidSpec, InvalidValue, read_config
from flowhazard.experiment import (
    AttackCombination,
    ExperimentConfig,
    SelectionRule,
)
from flowhazard.models import (
    BayesianRidgeParams,
    LinearSVRParams,
    RandomForestParams,
)
from flowhazard.flowdata import FlowSchema, _Normal
from flowhazard.survival import CoxOptions

# every config dataclass, with the arguments a valid instance needs
CONFIGS = {
    RandomForestParams: {},
    BayesianRidgeParams: {},
    LinearSVRParams: {},
    CoxOptions: {},
    SelectionRule: {},
    AttackCombination: {"pre_attack": "a", "post_attack": "b"},
    ExperimentConfig: {"regressor": BayesianRidgeParams(),
                       "combination": AttackCombination("a", "b")},
    _Normal: {},
    FlowSchema: {"feature_names": ("a",)},
    SyntheticInputs: {"synthetic_spec": "spec.json"},
    CsvInputs: {"benign_csv": "a.csv", "pre_attack_csv": "b.csv",
                "post_attack_csv": "c.csv"},
    SchemaColumns: {"features": ("a",)},
    PipelineConfig: {"inputs": SyntheticInputs("spec.json"), "synthetic": None,
                     "schema": FlowSchema(("a",)),
                     "experiment": ExperimentConfig(
                         BayesianRidgeParams(), AttackCombination("a", "b"))},
}
# fields holding another config instead of a scalar
NESTED = {"regressor", "combination", "cox_options", "selection", "inputs",
          "synthetic", "schema", "experiment"}
# values of another type than the annotation, per annotation
WRONG = {
    "int": [True, "6", 2.5, 2.0, None],
    "float": [True, "0.9", math.nan, 10 ** 400, None],
    "bool": [1, "no", None],
    "str": [5, b"a", None],
    "tuple[str, ...]": [5, "ab", ["a", 2], {"a": 1}, None],
}


def scalar_fields():
    for cls in CONFIGS:
        for field in fields(cls):
            if field.name not in NESTED:
                yield cls, field


def wrong_values():
    for cls, field in scalar_fields():
        kind, _, none = field.type.partition(" | ")
        for value in WRONG[kind]:
            if not (value is None and none):
                yield pytest.param(cls, field.name, value,
                                   id=f"{cls.__name__}.{field.name}={value!r}")


class TestCheckFields:
    @pytest.mark.parametrize("cls, field", [
        pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")
        for cls, field in scalar_fields()
    ])
    def test_every_field_is_a_checked_scalar(self, cls, field):
        # a string annotation says the module keeps its postponed
        # annotations, which the check reads
        assert isinstance(field.type, str)
        kind, _, none = field.type.partition(" | ")
        assert kind in WRONG and none in ("", "None")

    @pytest.mark.parametrize("cls, name, value", list(wrong_values()))
    def test_wrong_type_is_rejected_naming_the_field(self, cls, name, value):
        with pytest.raises(InvalidValue) as err:
            cls(**{**CONFIGS[cls], name: value})
        assert str(err.value).startswith(f"{name} must be")

    def test_optional_field_takes_none(self):
        params = RandomForestParams(max_depth=None, features_per_split=None)
        assert params.max_depth is None

    def test_numbers_are_stored_as_plain_python_numbers(self):
        svr = LinearSVRParams(C=1, epochs=np.int64(5))
        assert type(svr.C) is float and svr.C == 1.0
        assert type(svr.epochs) is int and svr.epochs == 5
        rule = SelectionRule(min_abs_beta=np.float32(0.5))
        assert type(rule.min_abs_beta) is float

    @pytest.mark.parametrize("cls, kwargs", [
        (SelectionRule, {"min_abs_beta": -1.0}),
        (SelectionRule, {"min_fraction": 1.5}),
        (SelectionRule, {"min_fraction": -0.1}),
        (BayesianRidgeParams, {"tol": math.inf}),
        (LinearSVRParams, {"C": math.inf}),
        (LinearSVRParams, {"learning_rate": math.inf}),
        (ExperimentConfig, {"seq_len": 0}),
        (ExperimentConfig, {"band_low": 0.6, "band_high": 0.4}),
        (ExperimentConfig, {"holdout_fraction": 1.0}),
        (ExperimentConfig, {"master_seed": -1}),
        (_Normal, {"mean": math.inf}),
        (_Normal, {"std": -1.0}),
        (_Normal, {"std": math.inf}),
    ], ids=["negative_min_abs_beta", "min_fraction_above_1",
            "negative_min_fraction", "infinite_ridge_tol", "infinite_C",
            "infinite_learning_rate", "zero_seq_len", "inverted_band",
            "holdout_fraction_1", "negative_master_seed", "infinite_mean",
            "negative_std", "infinite_std"])
    def test_range_checks(self, cls, kwargs):
        with pytest.raises(InvalidValue, match=next(iter(kwargs))):
            cls(**{**CONFIGS[cls], **kwargs})

    def test_infinite_band_high_is_a_library_value(self):
        config = ExperimentConfig(**CONFIGS[ExperimentConfig],
                                  band_low=-math.inf, band_high=math.inf)
        assert config.band_high == math.inf


class TestReadConfig:
    def test_first_missing_key_is_named_in_field_order(self):
        with pytest.raises(InvalidSpec) as err:
            read_config({"post_attack_csv": "c.csv"}, CsvInputs, "inputs")
        assert str(err.value) == "missing key 'benign_csv' in 'inputs'"


_regressors = st.one_of(
    st.fixed_dictionaries({"kind": st.just("random_forest")}, optional={
        "n_trees": st.integers(1, 500),
        "max_depth": st.none() | st.integers(0, 30),
        "min_leaf": st.integers(1, 20),
        "features_per_split": st.none() | st.integers(1, 80),
        "bootstrap": st.booleans(),
    }),
    st.fixed_dictionaries({"kind": st.just("bayesian_ridge")}, optional={
        "max_evidence_iters": st.integers(1, 1000),
        "tol": st.floats(1e-12, 1.0),
    }),
    st.fixed_dictionaries({"kind": st.just("linear_svr")}, optional={
        "C": st.floats(1e-6, 1e6) | st.integers(1, 100),
        "epsilon": st.floats(0.0, 1.0),
        "learning_rate": st.floats(1e-6, 1.0),
        "epochs": st.integers(1, 500),
    }),
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_sections = st.fixed_dictionaries(
    {"regressor": _regressors,
     "combination": st.fixed_dictionaries(
         {"pre_attack": st.text(max_size=8),
          "post_attack": st.text(max_size=8)})},
    optional={
        "band": st.lists(_finite | st.just(-math.inf), min_size=2,
                         max_size=2),
        "seq_len": st.integers(-2, 10 ** 6),
        "n_sequences": st.integers(-2, 10 ** 6),
        "n_iterations": st.integers(-2, 100),
        "master_seed": st.integers(-2, 2 ** 64),
        "cox": st.fixed_dictionaries({}, optional={
            "ridge": _finite, "tol": _finite, "max_iter": st.integers(-1, 500),
        }),
        "accuracy_gate": _finite | st.integers(-2, 2),
        "holdout_fraction": _finite,
        "selection": st.fixed_dictionaries({}, optional={
            "min_abs_beta": _finite, "min_fraction": _finite,
        }),
    },
)


class TestExperimentSection:
    @settings(max_examples=300)
    @given(raw=_sections)
    def test_round_trip(self, raw):
        try:
            config = ExperimentConfig.from_json_dict(raw)
        except InvalidSpec:
            return
        assert ExperimentConfig.from_json_dict(config.to_json_dict()) == config

    def test_absent_keys_take_the_field_defaults(self):
        config = ExperimentConfig.from_json_dict({
            "regressor": {"kind": "linear_svr"},
            "combination": {"pre_attack": "a", "post_attack": "b"},
        })
        assert config == ExperimentConfig(LinearSVRParams(),
                                          AttackCombination("a", "b"))
        assert config.cox_options == CoxOptions(ridge=1e-3)

    def test_cox_section_starts_from_the_experiment_default(self):
        config = ExperimentConfig.from_json_dict({
            "regressor": {"kind": "bayesian_ridge"},
            "combination": {"pre_attack": "a", "post_attack": "b"},
            "cox": {"max_iter": 7},
        })
        assert config.cox_options == CoxOptions(ridge=1e-3, max_iter=7)

    def test_seed_overrides_master_seed(self):
        config = ExperimentConfig.from_json_dict({
            "regressor": {"kind": "bayesian_ridge"},
            "combination": {"pre_attack": "a", "post_attack": "b"},
            "master_seed": 3,
        }, seed=11)
        assert config.master_seed == 11

    @pytest.mark.parametrize("section", [
        "experiment", "combination", "cox", "selection",
    ])
    def test_unknown_key_is_named(self, section):
        raw = {"regressor": {"kind": "bayesian_ridge"},
               "combination": {"pre_attack": "a", "post_attack": "b"},
               "cox": {}, "selection": {}}
        (raw if section == "experiment" else raw[section])["zz"] = 1
        with pytest.raises(InvalidSpec, match="unknown key 'zz'"):
            ExperimentConfig.from_json_dict(raw)
