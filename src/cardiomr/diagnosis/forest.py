"""Random forest of Gini-impurity CART trees grown to purity.

Bootstrap sampling and per-split feature subsampling (sqrt of the feature
count) are driven by one seeded generator, so a forest is reproducible
from its seed. Feature importances are mean impurity decrease, averaged
over trees, with the inter-tree standard deviation exposed alongside.
"""

from __future__ import annotations

import numpy as np


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "counts")

    def __init__(self, feature=-1, threshold=0.0, left=None, right=None, counts=None):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.counts = counts  # class counts at leaves

    @property
    def is_leaf(self):
        return self.feature < 0


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - float((p * p).sum())


class _Tree:
    def __init__(self, n_classes: int, max_features: int, rng: np.random.Generator):
        self.n_classes = n_classes
        self.max_features = max_features
        self.rng = rng
        self.importances = None

    def fit(self, X, y):
        self.importances = np.zeros(X.shape[1])
        self._n_total = X.shape[0]
        self.root = self._grow(X, y, np.arange(X.shape[0]))
        total = self.importances.sum()
        if total > 0:
            self.importances /= total
        return self

    def _grow(self, X, y, idx):
        counts = np.bincount(y[idx], minlength=self.n_classes)
        node_gini = _gini(counts)
        if node_gini == 0.0 or len(idx) < 2:
            return _Node(counts=counts)
        best = self._best_split(X, y, idx, counts, node_gini)
        if best is None:
            return _Node(counts=counts)
        feature, threshold, gain, left_idx, right_idx = best
        self.importances[feature] += (len(idx) / self._n_total) * gain
        return _Node(
            feature=feature,
            threshold=threshold,
            left=self._grow(X, y, left_idx),
            right=self._grow(X, y, right_idx),
        )

    def _best_split(self, X, y, idx, counts, node_gini):
        n = len(idx)
        features = self.rng.choice(X.shape[1], size=self.max_features, replace=False)
        best_gain = 0.0
        best = None
        onehot = np.zeros((n, self.n_classes))
        onehot[np.arange(n), y[idx]] = 1.0
        for f in features:
            vals = X[idx, f]
            order = np.argsort(vals, kind="stable")
            sv = vals[order]
            distinct = np.nonzero(np.diff(sv) > 0)[0]
            if distinct.size == 0:
                continue
            cum = np.cumsum(onehot[order], axis=0)  # class counts left of each cut
            left_counts = cum[distinct]
            left_n = distinct + 1.0
            right_counts = counts - left_counts
            right_n = n - left_n
            gl = 1.0 - ((left_counts / left_n[:, None]) ** 2).sum(axis=1)
            gr = 1.0 - ((right_counts / right_n[:, None]) ** 2).sum(axis=1)
            gains = node_gini - (left_n * gl + right_n * gr) / n
            k = int(np.argmax(gains))
            if gains[k] > best_gain + 1e-12:
                best_gain = float(gains[k])
                threshold = 0.5 * (sv[distinct[k]] + sv[distinct[k] + 1])
                mask = vals <= threshold
                best = (int(f), float(threshold), best_gain, idx[mask], idx[~mask])
        return best

    def predict_class(self, X):
        out = np.empty(X.shape[0], dtype=np.int64)
        for i, row in enumerate(X):
            node = self.root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            out[i] = int(np.argmax(node.counts))
        return out


class RandomForest:
    def __init__(self, n_trees: int = 1000, seed: int = 0):
        if n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {n_trees}")
        self.n_trees = n_trees
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 classes")
        y_enc = np.searchsorted(self.classes_, y)
        n, d = X.shape
        m = max(1, int(round(np.sqrt(d))))  # features tried per split
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        for _ in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            tree = _Tree(len(self.classes_), m, rng)
            tree.fit(X[boot], y_enc[boot])
            self.trees_.append(tree)
        imp = np.stack([t.importances for t in self.trees_])
        self.feature_importances_ = imp.mean(axis=0)
        self.feature_importances_std_ = imp.std(axis=0)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((X.shape[0], len(self.classes_)), dtype=np.int64)
        for tree in self.trees_:
            pred = tree.predict_class(X)
            votes[np.arange(X.shape[0]), pred] += 1
        return self.classes_[np.argmax(votes, axis=1)]
