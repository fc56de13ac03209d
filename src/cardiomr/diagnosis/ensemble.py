"""Dataset handling, cross-validation, classifier selection and the
two-stage prediction rule.

Preprocessing (median imputation + z-scoring) is always fit on training
rows only; cross-validation refits it inside every fold so validation
statistics never leak into training.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from functools import partial
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..features import ES_MWT_FEATURES, FEATURE_NAMES, FeatureRecord
from .forest import RandomForest
from .gnb import GaussianNB
from .mlp import MLPClassifier
from .svm import RbfSvm

DISEASE_LABELS = ("NOR", "MINF", "DCM", "HCM", "ARV")

MODEL_SCHEMA_VERSION = 2


class StratificationError(ValueError):
    """A class has fewer samples than the requested fold count."""


class SelectionError(RuntimeError):
    """No classifier cleared the selection threshold."""


@dataclass
class Dataset:
    """Feature matrix with labels; rows may hold NaN for missing values."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple = FEATURE_NAMES

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X must be (n, d) with one label per row")
        bad = set(np.unique(self.y)) - set(DISEASE_LABELS)
        if bad:
            raise ValueError(f"unknown disease labels: {sorted(bad)}")

    @classmethod
    def from_records(cls, records: Sequence[FeatureRecord], labels) -> "Dataset":
        if not records:
            raise ValueError("need at least one feature record")
        X = np.stack([r.to_vector() for r in records])
        return cls(X=X, y=np.asarray(labels))

    def subset(self, idx) -> "Dataset":
        return Dataset(X=self.X[idx], y=self.y[idx], feature_names=self.feature_names)

    def columns(self, names) -> "Dataset":
        cols = [self.feature_names.index(n) for n in names]
        return Dataset(X=self.X[:, cols], y=self.y, feature_names=tuple(names))


@dataclass
class Preprocessor:
    """Median imputation followed by per-feature z-scoring. ``fit`` refuses,
    by index, every column whose median, mean or std is not finite (huge
    values overflow them), which z-scoring would turn into zeros or NaN."""

    medians: Optional[np.ndarray] = None
    means: Optional[np.ndarray] = None
    stds: Optional[np.ndarray] = None

    def fit(self, X) -> "Preprocessor":
        X = np.asarray(X, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            held = ~np.isnan(X).all(axis=0)  # a column with no value has median 0
            self.medians = np.nanmedian(np.where(held, X, 0.0), axis=0)
            filled = self._impute(X)
            self.means = filled.mean(axis=0)
            stds = filled.std(axis=0)
        bad = np.flatnonzero(~np.isfinite([self.medians, self.means, stds]).all(axis=0))
        if bad.size:
            raise ValueError(
                f"feature column(s) {bad.tolist()}: median, mean or std is not finite")
        self.stds = np.where(stds > 0, stds, 1.0)
        return self

    def _impute(self, X):
        return np.where(np.isnan(X), self.medians, X)

    def transform(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return (self._impute(X) - self.means) / self.stds


@dataclass(frozen=True)
class CvScore:
    mean: float
    std: float
    fold_accuracies: tuple

    def __str__(self):
        return f"{self.mean:.2f} ({self.std:.2f})"


def stratified_folds(y, k: int, seed: int) -> List[np.ndarray]:
    """Index arrays of k stratified folds; every sample lands in exactly one."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    folds: List[List[int]] = [[] for _ in range(k)]
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < k:
            raise StratificationError(
                f"class {cls!r} has {len(idx)} samples, fewer than {k} folds"
            )
        idx = rng.permutation(idx)
        for i, sample in enumerate(idx):
            folds[i % k].append(int(sample))
    return [np.sort(np.array(f)) for f in folds]


def cross_validate(ds: Dataset, make_classifier: Callable, k: int = 5, seed: int = 0) -> CvScore:
    """Stratified k-fold accuracy of a classifier factory.

    Each fold gets a preprocessor fit on its training rows only.
    """
    folds = stratified_folds(ds.y, k, seed)
    accs = []
    for i in range(k):
        val_idx = folds[i]
        train_idx = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
        prep = Preprocessor().fit(ds.X[train_idx])
        clf = make_classifier()
        clf.fit(prep.transform(ds.X[train_idx]), ds.y[train_idx])
        pred = clf.predict(prep.transform(ds.X[val_idx]))
        accs.append(float(np.mean(pred == ds.y[val_idx])))
    accs = np.array(accs)
    return CvScore(mean=float(accs.mean()), std=float(accs.std()), fold_accuracies=tuple(accs))


def select_classifiers(cv_results: Dict[str, float], threshold: float = 0.95) -> List[str]:
    """Names with mean CV accuracy strictly above the threshold."""
    scores = {
        name: (score.mean if isinstance(score, CvScore) else float(score))
        for name, score in cv_results.items()
    }
    kept = [name for name, s in scores.items() if s > threshold]
    if not kept:
        listing = ", ".join(f"{n}={s:.3f}" for n, s in scores.items())
        raise SelectionError(f"no classifier above {threshold}: {listing}")
    return kept


@dataclass
class EnsembleModel:
    """Trained two-stage ensemble with its preprocessing state."""

    stage1: Dict[str, object]
    cv_accuracy: Dict[str, float]
    preprocessor: Preprocessor
    expert: Optional[MLPClassifier]
    expert_preprocessor: Optional[Preprocessor]
    feature_names: tuple = FEATURE_NAMES
    expert_features: tuple = ES_MWT_FEATURES
    mode: str = "all"                    # "all" votes every stage-1 classifier,
    selected: tuple = ()                 # "selected" votes only these names

    def voters(self) -> List[str]:
        if self.mode == "selected" and self.selected:
            return [n for n in self.stage1 if n in self.selected]
        return list(self.stage1)


@contextmanager
def _named(what: str):
    """Prefix ``what`` to a ValueError or RuntimeError raised inside."""
    try:
        yield
    except (ValueError, RuntimeError) as exc:
        exc.args = (f"{what}: {exc}",) + exc.args[1:]
        raise


# The stage-1 classifiers in voting order: name -> factory(seed, n_trees).
_STAGE1 = {
    "SVM": lambda seed, n_trees: RbfSvm(seed=seed),
    "MLP": lambda seed, n_trees: MLPClassifier(hidden=(100, 100), seed=seed),
    "GNB": lambda seed, n_trees: GaussianNB(),
    "RF": lambda seed, n_trees: RandomForest(n_trees=n_trees, seed=seed),
}


def train_ensemble(
    ds: Dataset,
    seed: int = 0,
    mode: str = "all",
    n_trees: int = 1000,
    cv_folds: int = 5,
    selection_threshold: float = 0.95,
) -> EnsembleModel:
    """Train the four stage-1 classifiers, the MINF/DCM expert, and score
    every stage-1 classifier by stratified cross-validation.

    With ``mode="selected"`` only classifiers whose CV accuracy clears the
    selection threshold vote at prediction time.
    """
    # built before any fit, so a bad size fails at once
    stage1: Dict[str, object] = {name: make(seed, n_trees) for name, make in _STAGE1.items()}
    classes = np.unique(ds.y)
    if len(classes) < 2:
        raise ValueError(f"need at least 2 classes to train, found only {', '.join(classes)}")
    prep = Preprocessor().fit(ds.X)
    Xt = prep.transform(ds.X)

    cv_acc: Dict[str, float] = {}
    min_per_class = min(np.bincount(np.searchsorted(classes, ds.y)))
    k = min(cv_folds, int(min_per_class))
    for name, make in _STAGE1.items():
        with _named(f"stage-1 {name}"):
            if k >= 2:
                # cross-validation caps the forest at 200 trees
                factory = partial(make, seed, min(n_trees, 200))
                cv_acc[name] = cross_validate(ds, factory, k=k, seed=seed).mean
            else:
                cv_acc[name] = float("nan")
            stage1[name].fit(Xt, ds.y)

    selected: tuple = ()
    if mode == "selected":
        selected = tuple(select_classifiers(cv_acc, selection_threshold))

    expert = None
    expert_prep = None
    expert_mask = np.isin(ds.y, ("MINF", "DCM"))
    if expert_mask.sum() >= 2 and len(np.unique(ds.y[expert_mask])) == 2:
        expert_ds = ds.subset(np.flatnonzero(expert_mask)).columns(ES_MWT_FEATURES)
        expert_prep = Preprocessor().fit(expert_ds.X)
        expert = _STAGE1["MLP"](seed, n_trees)
        with _named("expert MLP"):
            expert.fit(expert_prep.transform(expert_ds.X), expert_ds.y)

    return EnsembleModel(
        stage1=stage1,
        cv_accuracy=cv_acc,
        preprocessor=prep,
        expert=expert,
        expert_preprocessor=expert_prep,
        feature_names=ds.feature_names,
        mode=mode,
        selected=selected,
    )


def _majority(votes: Dict[str, str], cv_acc: Dict[str, float]) -> str:
    """Majority label; ties go to the label voted by the classifier with
    the highest stored CV accuracy."""
    tally: Dict[str, int] = {}
    for label in votes.values():
        tally[label] = tally.get(label, 0) + 1
    top = max(tally.values())
    tied = sorted(label for label, count in tally.items() if count == top)
    if len(tied) == 1:
        return tied[0]

    def best_backer(label: str) -> float:
        accs = [cv_acc.get(name, float("-inf")) for name, v in votes.items() if v == label]
        accs = [a for a in accs if not np.isnan(a)]
        return max(accs) if accs else float("-inf")

    return max(tied, key=lambda label: (best_backer(label), label))


def predict_two_stage(model: EnsembleModel, record) -> Tuple[str, dict]:
    """Predict the disease label of one feature record with an audit trail.

    Stage 1 is the majority vote; when it lands on MINF or DCM the expert
    re-decides from the ES wall-thickness features alone.
    """
    if isinstance(record, FeatureRecord):
        vec = record.to_vector()
    else:
        vec = np.asarray(record, dtype=np.float64)
    if vec.shape != (len(model.feature_names),):
        raise ValueError(f"expected {len(model.feature_names)} features, got {vec.shape}")

    Xt = model.preprocessor.transform(vec[np.newaxis, :])
    votes = {name: str(model.stage1[name].predict(Xt)[0]) for name in model.voters()}
    stage1_label = _majority(votes, model.cv_accuracy)

    audit = {
        "votes": votes,
        "stage1": stage1_label,
        "stage2_fired": False,
        "stage2": None,
        "voters": model.voters(),
        "mode": model.mode,
    }
    final = stage1_label
    if stage1_label in ("MINF", "DCM") and model.expert is not None:
        cols = [model.feature_names.index(n) for n in model.expert_features]
        sub = model.expert_preprocessor.transform(vec[cols][np.newaxis, :])
        stage2_label = str(model.expert.predict(sub)[0])
        audit["stage2_fired"] = True
        audit["stage2"] = stage2_label
        final = stage2_label
    audit["final"] = final
    return final, audit


def save_model(model: EnsembleModel, path) -> None:
    payload = {"schema": MODEL_SCHEMA_VERSION, "kind": "cardiomr-ensemble", "model": model}
    with open(path, "wb") as fh:
        pickle.dump(payload, fh)


def load_model(path) -> EnsembleModel:
    """ValueError names the file unless it holds a model this version wrote."""
    with open(path, "rb") as fh:
        try:
            payload = pickle.load(fh)
        except Exception as exc:
            why = f"{type(exc).__name__}: {exc}"
            raise ValueError(f"{path}: not a cardiomr model file this version can read ({why})") from None
    if not isinstance(payload, dict) or payload.get("kind") != "cardiomr-ensemble":
        raise ValueError(f"{path} is not an ensemble model file")
    if payload.get("schema") != MODEL_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: model schema {payload.get('schema')} unsupported"
            f" (expected {MODEL_SCHEMA_VERSION}); retrain with train-clf"
        )
    return payload["model"]
