"""Survival analysis of novelty detection in network-flow classifiers.

Train a regression classifier on benign plus one known attack, stream
sequences of a different attack through it, treat in-band scores as
events, and analyze which flow features drive detection with
Kaplan-Meier curves and Cox proportional hazards models.
"""

from .errors import (
    AccuracyGateFailed,
    AllIterationsFailed,
    DegenerateData,
    EmptyInput,
    FlowHazardError,
    InvalidSpec,
    InvalidValue,
    LengthMismatch,
    MissingColumn,
    MissingInput,
    NoEvents,
    NonFinite,
    SchemaMismatch,
    SingularHessian,
    UnusablePath,
)
from .experiment import (
    AttackCombination,
    ExperimentConfig,
    ExperimentReport,
    IterationFailure,
    IterationResult,
    SelectionRule,
    SequenceResult,
    build_sequences,
    read_survival_table,
    run_experiment,
    run_iteration,
    run_sequence,
    select_features,
    write_survival_table,
)
from .flowdata import (
    CICIDS2017_FEATURES,
    ClassSpec,
    FeatureSummary,
    FlowDataset,
    FlowSchema,
    ParseReport,
    SanitizePolicy,
    SyntheticSpec,
    abs_diff_covariates,
    binary_dataset,
    cicids2017_schema,
    feature_summary,
    filter_label,
    parse_flow_csv,
    serialize_flow_csv,
    subset,
    synthesize_flows,
)
from .models import (
    BayesianRidgeParams,
    LinearSVRParams,
    RandomForestParams,
    RegressorKind,
    TrainedModel,
    evaluate_accuracy,
    model_from_json,
    model_to_json,
    predict_many,
    regressor_from_dict,
    train,
)
from .survival import (
    CoxModel,
    CoxOptions,
    KMCurve,
    StepFunction,
    SurvivalRecord,
    SurvivalTable,
    breslow_baseline,
    cox_fit,
    cox_gradient,
    cox_hessian,
    cox_log_partial_likelihood,
    cox_survival_at,
    cumulative_death_at,
    km_fit,
    km_survival_at,
    wald_stats,
)

__version__ = "0.1.0"
