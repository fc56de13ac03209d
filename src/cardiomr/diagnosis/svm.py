"""RBF-kernel support vector machine trained by sequential minimal
optimization.

Binary subproblems follow Platt's SMO: pick a KKT-violating multiplier,
pair it with the partner maximizing the error gap (with random-restart
fallbacks), solve the two-variable subproblem analytically, and keep the
error cache in sync until no multiplier changes within tolerance.
Multi-class uses one-vs-one voting.
"""

from __future__ import annotations

import numpy as np

C = 1.0            # soft-margin penalty
TOL = 1e-3         # KKT violation tolerance
MAX_PASSES = 200   # sweeps over the multipliers before SMO stops


def rbf_kernel(A, B, gamma: float) -> np.ndarray:
    a2 = (A * A).sum(axis=1)[:, None]
    b2 = (B * B).sum(axis=1)[None, :]
    d2 = np.maximum(a2 + b2 - 2.0 * (A @ B.T), 0.0)
    return np.exp(-gamma * d2)


class _BinarySvm:
    """Soft-margin binary SVM on labels in {-1, +1}."""

    def __init__(self, gamma: float):
        self.gamma = gamma

    def fit(self, X, y, rng):
        """SMO; ``rng`` orders the random-restart scans and is not kept."""
        n = X.shape[0]
        K = rbf_kernel(X, X, self.gamma)
        alpha = np.zeros(n)
        b = 0.0
        errors = -y.astype(np.float64)  # f(x) - y with all-zero alphas

        def take_step(i, j):
            nonlocal b
            if i == j:
                return False
            ai, aj = alpha[i], alpha[j]
            yi, yj = y[i], y[j]
            ei, ej = errors[i], errors[j]
            if yi != yj:
                lo, hi = max(0.0, aj - ai), min(C, C + aj - ai)
            else:
                lo, hi = max(0.0, ai + aj - C), min(C, ai + aj)
            if lo >= hi:
                return False
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                return False
            aj_new = np.clip(aj - yj * (ei - ej) / eta, lo, hi)
            if abs(aj_new - aj) < 1e-12 * (aj_new + aj + 1e-12):
                return False
            ai_new = ai + yi * yj * (aj - aj_new)

            b1 = b - ei - yi * (ai_new - ai) * K[i, i] - yj * (aj_new - aj) * K[i, j]
            b2 = b - ej - yi * (ai_new - ai) * K[i, j] - yj * (aj_new - aj) * K[j, j]
            if 0 < ai_new < C:
                b_new = b1
            elif 0 < aj_new < C:
                b_new = b2
            else:
                b_new = 0.5 * (b1 + b2)

            errors[:] += (
                yi * (ai_new - ai) * K[i]
                + yj * (aj_new - aj) * K[j]
                + (b_new - b)
            )
            alpha[i], alpha[j] = ai_new, aj_new
            b = b_new
            return True

        def examine(j):
            ej = errors[j]
            r = ej * y[j]
            if (r < -TOL and alpha[j] < C) or (r > TOL and alpha[j] > 0):
                non_bound = np.nonzero((alpha > 0) & (alpha < C))[0]
                if len(non_bound) > 1:
                    i = int(non_bound[np.argmax(np.abs(errors[non_bound] - ej))])
                    if take_step(i, j):
                        return True
                for i in rng.permutation(non_bound):
                    if take_step(int(i), j):
                        return True
                for i in rng.permutation(n):
                    if take_step(int(i), j):
                        return True
            return False

        passes = 0
        examine_all = True
        while passes < MAX_PASSES:
            changed = 0
            targets = range(n) if examine_all else np.nonzero((alpha > 0) & (alpha < C))[0]
            for j in targets:
                changed += examine(int(j))
            passes += 1
            if examine_all:
                if changed == 0:
                    break
                examine_all = False
            elif changed == 0:
                examine_all = True

        self.alpha = alpha
        self.b = b
        support = alpha > 1e-12
        self.support_vectors_ = X[support]
        self.support_coef_ = (alpha * y)[support]
        return self

    def decision(self, X):
        K = rbf_kernel(X, self.support_vectors_, self.gamma)
        return K @ self.support_coef_ + self.b


class RbfSvm:
    """One-vs-one multi-class RBF SVM.

    The kernel width ``gamma_`` is 1 / (n_features * feature variance) of
    the training matrix.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 classes")
        var = X.var()
        self.gamma_ = 1.0 / (X.shape[1] * var) if var > 0 else 1.0
        rng = np.random.default_rng(self.seed)
        self.pairs_ = {}
        for a in range(len(self.classes_)):
            for bb in range(a + 1, len(self.classes_)):
                mask = (y == self.classes_[a]) | (y == self.classes_[bb])
                Xp = X[mask]
                yp = np.where(y[mask] == self.classes_[a], 1.0, -1.0)
                self.pairs_[(a, bb)] = _BinarySvm(self.gamma_).fit(Xp, yp, rng)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.int64)
        for (a, bb), svm in self.pairs_.items():
            d = svm.decision(X)
            votes[:, a] += d >= 0
            votes[:, bb] += d < 0
        return self.classes_[np.argmax(votes, axis=1)]
