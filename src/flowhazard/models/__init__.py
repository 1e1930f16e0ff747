from .base import (
    BayesianRidgeParams,
    LinearSVRParams,
    RandomForestParams,
    RegressorKind,
    TrainReport,
    TrainedModel,
    evaluate_accuracy,
    model_to_json,
    predict_many,
    regressor_from_dict,
    train,
)
