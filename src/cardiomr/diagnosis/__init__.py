"""Two-stage ensemble disease classification.

Stage 1 is a majority vote of four classifiers (RBF-kernel SVM, MLP,
Gaussian naive Bayes, random forest) over all twenty cardiac features;
stage 2 is an expert MLP that re-decides MINF-vs-DCM calls from the four
end-systolic wall-thickness statistics alone.
"""

from .ensemble import (
    DISEASE_LABELS,
    CvScore,
    Dataset,
    EnsembleModel,
    Preprocessor,
    SelectionError,
    StratificationError,
    cross_validate,
    load_model,
    predict_two_stage,
    save_model,
    select_classifiers,
    train_ensemble,
)
from .forest import RandomForest
from .gnb import GaussianNB
from .mlp import MLPClassifier, TrainingError
from .svm import RbfSvm

__all__ = [
    "DISEASE_LABELS", "CvScore", "Dataset", "EnsembleModel", "Preprocessor",
    "SelectionError", "StratificationError", "cross_validate", "load_model",
    "predict_two_stage", "save_model", "select_classifiers", "train_ensemble",
    "RandomForest", "GaussianNB", "MLPClassifier", "TrainingError", "RbfSvm",
]
