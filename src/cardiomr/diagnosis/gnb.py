"""Gaussian naive Bayes classifier."""

from __future__ import annotations

import numpy as np

VAR_SMOOTHING = 1e-9


class GaussianNB:
    """Per-class per-feature Gaussians with empirical priors.

    Variances are floored by ``VAR_SMOOTHING`` times the largest overall
    feature variance so constant features cannot zero out a likelihood.
    """

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 classes")
        n, d = X.shape
        self.theta_ = np.zeros((len(self.classes_), d))
        self.var_ = np.zeros((len(self.classes_), d))
        self.priors_ = np.zeros(len(self.classes_))
        floor = VAR_SMOOTHING * max(X.var(axis=0).max(), 1e-12)
        for i, cls in enumerate(self.classes_):
            rows = X[y == cls]
            self.theta_[i] = rows.mean(axis=0)
            self.var_[i] = rows.var(axis=0) + floor
            self.priors_[i] = rows.shape[0] / n
        return self

    def log_posterior(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((X.shape[0], len(self.classes_)))
        for i in range(len(self.classes_)):
            ll = -0.5 * (
                np.log(2 * np.pi * self.var_[i])
                + (X - self.theta_[i]) ** 2 / self.var_[i]
            ).sum(axis=1)
            out[:, i] = np.log(self.priors_[i]) + ll
        return out

    def predict(self, X):
        return self.classes_[np.argmax(self.log_posterior(X), axis=1)]
