"""Random forest of Gini-impurity CART trees grown to purity.

Bootstrap sampling and per-split feature subsampling (sqrt of the feature
count) are driven by one seeded generator, so a forest is reproducible
from its seed. Feature importances are mean impurity decrease, averaged
over trees, with the inter-tree standard deviation exposed alongside.

A fitted forest is flat node arrays, each tree in preorder from its entry
in ``roots_``: ``feature_`` (-1 at a leaf), ``threshold_``, ``right_`` (an
inner node's left child is the next node) and ``leaf_class_``. ``predict``
moves every (row, tree) pair down one level per step.
"""

from __future__ import annotations

import numpy as np


def _best_split(X, y, idx, counts, node_gini, max_features, n_classes, rng):
    """Search every sampled feature's cuts at once, in one ``(n, m)`` block.

    Each feature's best cut is the first maximum of its gains over the cuts
    between distinct values; the first feature wins, and a later one replaces
    it only when its gain is larger by more than 1e-12.
    """
    n = len(idx)
    features = rng.choice(X.shape[1], size=max_features, replace=False)
    vals = X[np.ix_(idx, features)]
    order = np.argsort(vals, axis=0, kind="stable")
    sv = np.take_along_axis(vals, order, axis=0)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), y[idx]] = 1.0
    left_counts = np.cumsum(onehot[order], axis=0)[:-1]  # class counts left of each cut
    left_n = np.arange(1.0, n)[:, None]
    right_counts = counts - left_counts
    right_n = n - left_n
    gl = 1.0 - ((left_counts / left_n[:, :, None]) ** 2).sum(axis=2)
    gr = 1.0 - ((right_counts / right_n[:, :, None]) ** 2).sum(axis=2)
    gains = node_gini - (left_n * gl + right_n * gr) / n
    cuts = np.diff(sv, axis=0) > 0  # a cut lies between two distinct values
    gains[~cuts] = -np.inf  # so a feature without a cut never wins
    best_gain = 0.0
    best = None
    for j, k in enumerate(np.argmax(gains, axis=0)):
        if gains[k, j] > best_gain + 1e-12:
            best_gain = float(gains[k, j])
            best = (j, k)
    if best is None:
        return None
    j, k = best
    threshold = 0.5 * (sv[k, j] + sv[k + 1, j])
    mask = vals[:, j] <= threshold
    return int(features[j]), float(threshold), best_gain, idx[mask], idx[~mask]


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
        k = len(self.classes_)
        m = max(1, int(round(np.sqrt(d))))  # features tried per split
        rng = np.random.default_rng(self.seed)
        roots, nodes = [], []  # nodes: [feature, threshold, right, leaf class]
        imp = np.zeros((self.n_trees, d))
        for tree in range(self.n_trees):
            boot = rng.integers(0, n, size=n)
            Xb, yb = X[boot], y_enc[boot]
            roots.append(len(nodes))
            # preorder: the left subtree is popped, and so grown, before the right
            stack = [(np.arange(n), None)]  # (rows, parent whose right child this is)
            while stack:
                idx, parent = stack.pop()
                if parent is not None:
                    nodes[parent][2] = len(nodes)
                counts = np.bincount(yb[idx], minlength=k)
                p = counts / len(idx)  # a split leaves rows on both sides
                node_gini = 1.0 - float((p * p).sum())
                best = (_best_split(Xb, yb, idx, counts, node_gini, m, k, rng)
                        if node_gini != 0.0 and len(idx) >= 2 else None)
                if best is None:
                    nodes.append([-1, 0.0, -1, int(np.argmax(counts))])
                    continue
                f, t, gain, left_idx, right_idx = best
                imp[tree, f] += (len(idx) / n) * gain
                stack += [(right_idx, len(nodes)), (left_idx, None)]
                nodes.append([f, t, -1, -1])
            total = imp[tree].sum()
            if total > 0:
                imp[tree] /= total
        feature, threshold, right, leaf_class = zip(*nodes)
        self.roots_ = np.array(roots, dtype=np.intp)
        self.feature_ = np.array(feature, dtype=np.intp)
        self.threshold_ = np.array(threshold, dtype=np.float64)
        self.right_ = np.array(right, dtype=np.intp)
        self.leaf_class_ = np.array(leaf_class, dtype=np.intp)
        self.feature_importances_ = imp.mean(axis=0)
        self.feature_importances_std_ = imp.std(axis=0)
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        row = np.arange(X.shape[0])[:, np.newaxis]
        node = np.tile(self.roots_, (X.shape[0], 1))  # (rows, trees)
        f = self.feature_[node]
        while (f >= 0).any():
            go_right = ~(X[row, f] <= self.threshold_[node])  # NaN goes right
            node = np.where(f < 0, node, np.where(go_right, self.right_[node], node + 1))
            f = self.feature_[node]
        leaf = self.leaf_class_[node]
        votes = (leaf[:, :, np.newaxis] == np.arange(len(self.classes_))).sum(axis=1)
        return self.classes_[np.argmax(votes, axis=1)]
