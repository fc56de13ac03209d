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

    The m features are drawn first (``rng.choice``, so the generator moves as
    in a per-feature search). Each column is sorted, and each row's class is
    a one-hot row of an identity matrix, so cumulative sums give the class
    counts left of every cut. A cut lies between two sorted values where
    ``sv[1:] > sv[:-1]``, which is ``np.diff(sv) > 0`` with NaN and +-inf
    too. Each feature's best cut is the first maximum of its gains over its
    cuts; the first feature wins, and a later one replaces it only when its
    gain is larger by more than 1e-12. The threshold is the cut's midpoint,
    or its lower value where the midpoint is not below the upper one (two
    adjacent floats, or +inf above), so neither child is empty.
    """
    n = len(idx)
    features = rng.choice(X.shape[1], size=max_features, replace=False)
    vals = X[idx][:, features]
    order = np.argsort(vals, axis=0, kind="stable")
    cols = np.arange(max_features)
    sv = vals[order, cols]
    onehot = np.eye(n_classes)[y[idx][order]]  # (n, m, classes), in sorted order
    left_counts = np.cumsum(onehot, axis=0)[:-1]  # class counts left of each cut
    left_n = np.arange(1.0, n)[:, None]
    right_counts = counts - left_counts
    right_n = n - left_n
    gl = 1.0 - ((left_counts / left_n[:, :, None]) ** 2).sum(axis=2)
    gr = 1.0 - ((right_counts / right_n[:, :, None]) ** 2).sum(axis=2)
    gains = node_gini - (left_n * gl + right_n * gr) / n
    gains[~(sv[1:] > sv[:-1])] = -np.inf  # so a feature without a cut never wins
    ks = np.argmax(gains, axis=0)
    best_gain = 0.0
    best = None
    for j, gain in enumerate(gains[ks, cols].tolist()):
        if gain > best_gain + 1e-12:
            best_gain = gain
            best = j
    if best is None:
        return None
    j, k = best, ks[best]
    threshold = 0.5 * (sv[k, j] + sv[k + 1, j])
    if not threshold < sv[k + 1, j]:
        threshold = sv[k, j]
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
