import pickle

import numpy as np
import pytest

from cardiomr.diagnosis import (
    DISEASE_LABELS,
    CvScore,
    Dataset,
    GaussianNB,
    MLPClassifier,
    Preprocessor,
    RandomForest,
    RbfSvm,
    SelectionError,
    StratificationError,
    TrainingError,
    cross_validate,
    load_model,
    predict_two_stage,
    save_model,
    select_classifiers,
    train_ensemble,
)
from cardiomr.diagnosis import forest, svm
from cardiomr.diagnosis.ensemble import _majority, stratified_folds
from cardiomr.diagnosis.mlp import _softmax
from cardiomr.features import FEATURE_NAMES


def blobs(rng, n_per_class=100, centers=((0, 0), (10, 10)), sigma=1.0):
    X = np.vstack([rng.normal(c, sigma, size=(n_per_class, 2)) for c in centers])
    y = np.array([f"C{i}" for i in range(len(centers)) for _ in range(n_per_class)])
    idx = rng.permutation(len(y))
    return X[idx], y[idx]


def xor_data(rng, n=400):
    X = rng.uniform(-1, 1, size=(n, 2))
    y = np.where(X[:, 0] * X[:, 1] > 0, "P", "N")
    return X, y


class TestGaussianNB:
    def test_separable_blobs_heldout(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng)
        clf = GaussianNB().fit(X[:150], y[:150])
        assert (clf.predict(X[150:]) == y[150:]).mean() >= 0.99

    def test_single_point_per_class_predicts_nearest_mean(self):
        X = np.array([[0.0, 0.0], [10.0, 10.0]])
        y = np.array(["A", "B"])
        clf = GaussianNB().fit(X, y)
        assert clf.predict(np.array([[1.0, 1.0]]))[0] == "A"
        assert clf.predict(np.array([[9.0, 9.0]]))[0] == "B"

    def test_identical_distributions_chance_level(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(600, 3))
        y = np.array(["A"] * 400 + ["B"] * 200)
        clf = GaussianNB().fit(X[:500], y[:500])
        acc = (clf.predict(X[500:]) == y[500:]).mean()
        majority = (y[500:] == "A").mean()
        assert abs(acc - majority) < 0.2

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="2 classes"):
            GaussianNB().fit(np.zeros((3, 2)), np.array(["A", "A", "A"]))


class TestRandomForest:
    def test_xor_train_accuracy(self):
        rng = np.random.default_rng(2)
        X, y = xor_data(rng)
        clf = RandomForest(n_trees=50, seed=0).fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.95

    def test_single_duplicated_sample(self):
        X = np.tile([[1.0, 2.0]], (5, 1))
        X = np.vstack([X, [[5.0, 5.0]]])
        y = np.array(["A"] * 5 + ["B"])
        clf = RandomForest(n_trees=20, seed=0).fit(X, y)
        assert clf.predict(np.array([[1.0, 2.0]]))[0] == "A"

    def test_informative_feature_outranks_noise(self):
        rng = np.random.default_rng(3)
        inf = rng.uniform(-1, 1, 400)
        X = np.c_[inf, rng.normal(size=400)]
        y = np.where(inf > 0, "P", "N")
        clf = RandomForest(n_trees=30, seed=1).fit(X, y)
        assert clf.feature_importances_[0] > clf.feature_importances_[1]
        assert clf.feature_importances_std_.shape == (2,)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(4)
        X, y = blobs(rng, n_per_class=40)
        a = RandomForest(n_trees=10, seed=7).fit(X, y).predict(X)
        b = RandomForest(n_trees=10, seed=7).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_trees", [0, -3])
    def test_needs_a_tree(self, n_trees):
        with pytest.raises(ValueError, match="n_trees"):
            RandomForest(n_trees=n_trees)

    def test_ensemble_refuses_no_trees_before_fitting(self, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the forest size was checked")

        monkeypatch.setattr(Preprocessor, "fit", no_fit)
        ds = _cohort_dataset(np.random.default_rng(0))
        with pytest.raises(ValueError, match="n_trees"):
            train_ensemble(ds, n_trees=0)


    @pytest.mark.parametrize("n_trees", [2, 4, 25])
    def test_vectorised_walk_matches_one_row_one_tree(self, n_trees):
        rng = np.random.default_rng(30 + n_trees)
        X = rng.normal(size=(120, 5))
        y = rng.choice(["A", "B", "C"], size=120)  # noise: deep trees
        clf = RandomForest(n_trees=n_trees, seed=n_trees).fit(X, y)
        Xq = rng.normal(size=(300, 5))
        Xq[rng.random(Xq.shape) < 0.15] = np.nan
        labels, tied = zip(*(_walk_one_row_one_tree(clf, row) for row in Xq))
        assert np.array_equal(clf.predict(Xq), labels)
        has_nan = np.isnan(Xq).any(axis=1)
        assert has_nan.any() and not has_nan.all()
        if n_trees < 25:
            assert any(tied)

    def test_walk_sends_nan_right(self):
        X = np.array([[0.0], [1.0]] * 10)
        y = np.array(["L", "R"] * 10)
        clf = RandomForest(n_trees=15, seed=0).fit(X, y)
        assert clf.predict(np.array([[np.nan], [0.0], [1.0]])).tolist() == ["R", "L", "R"]

    def test_fitted_forest_is_plain_arrays(self):
        X, y = blobs(np.random.default_rng(8), n_per_class=20)
        clf = RandomForest(n_trees=5, seed=0).fit(X, y)
        for name, value in vars(clf).items():
            assert isinstance(value, (np.ndarray, int, float, np.generic)), name
            assert getattr(value, "dtype", None) != object, name
        n_nodes = clf.feature_.shape
        assert clf.threshold_.shape == clf.right_.shape == clf.leaf_class_.shape == n_nodes
        assert clf.roots_.shape == (5,)

    def test_save_load_predict_with_1000_trees(self, tmp_path):
        rng = np.random.default_rng(24)
        ds = _cohort_dataset(rng, n_per_class=4)
        model = train_ensemble(ds, seed=0, n_trees=1000, cv_folds=2)
        save_model(model, tmp_path / "model.pkl")
        back = load_model(tmp_path / "model.pkl")
        assert back.stage1["RF"].roots_.shape == (1000,)
        rows = np.vstack([ds.X, rng.normal(6, 4, size=ds.X.shape)])
        for row in rows:
            assert predict_two_stage(back, row) == predict_two_stage(model, row)


def _walk_one_row_one_tree(clf, row):
    """The forest's label for one row, walking one tree at a time over the
    fitted arrays, and whether the top vote was tied."""
    leaves = []
    for node in clf.roots_:
        while clf.feature_[node] >= 0:
            left = row[clf.feature_[node]] <= clf.threshold_[node]
            node = node + 1 if left else clf.right_[node]
        leaves.append(clf.leaf_class_[node])
    votes = np.bincount(leaves, minlength=len(clf.classes_))
    return clf.classes_[np.argmax(votes)], (votes == votes.max()).sum() > 1


def reference_best_split(X, y, idx, counts, node_gini, max_features, n_classes, rng):
    """``forest._best_split`` one sampled feature at a time."""
    n = len(idx)
    features = rng.choice(X.shape[1], size=max_features, replace=False)
    best_gain = 0.0
    best = None
    onehot = np.zeros((n, n_classes))
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
            if not threshold < sv[distinct[k] + 1]:
                threshold = sv[distinct[k]]
            mask = vals <= threshold
            best = (int(f), float(threshold), best_gain, idx[mask], idx[~mask])
    return best


def _tied_data(rng, n, d, n_classes):
    """Rows drawn from a few values per feature. With two columns or more the
    last holds two adjacent floats, whose midpoint rounds onto the lower one,
    and with three or more another column is constant."""
    X = rng.integers(0, 4, size=(n, d)) * rng.choice([0.25, 1.0, 3.0], size=d)
    if d > 1:
        X[:, -1] = 1.0 + rng.integers(0, 2, size=n) * np.spacing(1.0)
    if d > 2:
        X[:, rng.integers(0, d - 1)] = 1.5
    return X, rng.integers(0, n_classes, size=n)


def _nan_inf_data(rng, n, d, n_classes):
    """``_tied_data`` with the class in column 0 but NaN in a third of its
    rows, +-inf among a few values in column 1, and only -inf, +inf and NaN
    in column 2."""
    X, y = _tied_data(rng, n, d, n_classes)
    X[:, 0] = np.where(rng.random(n) < 1 / 3, np.nan, y)
    X[:, 1] = rng.choice([-np.inf, -1.0, 0.0, 2.0, np.inf], size=n)
    X[:, 2] = rng.choice([-np.inf, np.inf, np.nan], size=n)
    return X, y


class TestBestSplitOracle:
    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    @pytest.mark.parametrize("m", ["one", "sqrt", "all"])
    def test_equals_per_feature_search(self, d, m):
        m = {"one": 1, "sqrt": max(1, int(round(np.sqrt(d)))), "all": d}[m]
        rng = np.random.default_rng(100 * d + m)
        X, y = _tied_data(rng, 40, d, 3)
        splits = 0
        for node in range(150):
            size = 2 if node % 5 == 0 else int(rng.integers(2, 41))
            idx = rng.integers(0, 40, size=size)  # a bootstrap holds repeats
            counts = np.bincount(y[idx], minlength=3)
            p = counts / size
            node_gini = 1.0 - float((p * p).sum())
            want = reference_best_split(X, y, idx, counts, node_gini, m, 3,
                                        np.random.default_rng(node))
            got = forest._best_split(X, y, idx, counts, node_gini, m, 3,
                                     np.random.default_rng(node))
            if want is None:
                assert got is None
                continue
            splits += 1
            assert got[:3] == want[:3]
            assert [type(v) for v in got[:3]] == [int, float, float]
            assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])
        assert splits > 50

    @pytest.mark.parametrize("upper", [np.nextafter(1.0 + 2.0**-52, 2.0), np.inf])
    def test_threshold_below_the_upper_value_leaves_no_child_empty(self, upper):
        """A midpoint that rounds up onto the upper value, or is inf, would
        send every row left; the lower value is the threshold instead."""
        lower = 1.0 + 2.0**-52 if upper < np.inf else 0.0
        X = np.array([[lower], [upper], [lower], [upper]])
        y = np.array([0, 1, 0, 1])
        f, threshold, gain, left, right = forest._best_split(
            X, y, np.arange(4), np.array([2, 2]), 0.5, 1, 2, np.random.default_rng(0))
        assert (f, threshold, gain) == (0, lower, 0.5)
        assert left.tolist() == [0, 2] and right.tolist() == [1, 3]

    def test_forest_equals_forest_of_per_feature_searches(self, monkeypatch):
        X, y = _tied_data(np.random.default_rng(12), 90, 9, 4)
        got = RandomForest(n_trees=40, seed=3).fit(X, y)
        monkeypatch.setattr(forest, "_best_split", reference_best_split)
        want = RandomForest(n_trees=40, seed=3).fit(X, y)
        for name in ("roots_", "feature_", "threshold_", "right_", "leaf_class_",
                     "feature_importances_", "feature_importances_std_"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("n_classes", [2, 5])
    @pytest.mark.parametrize("m", [1, 3, 6])
    def test_equals_per_feature_search_with_nan_and_inf(self, m, n_classes):
        rng = np.random.default_rng(10 * m + n_classes)
        X, y = _nan_inf_data(rng, 40, 6, n_classes)
        features = set()
        for node in range(150):
            size = 2 if node % 5 == 0 else int(rng.integers(2, 41))
            idx = rng.integers(0, 40, size=size)
            counts = np.bincount(y[idx], minlength=n_classes)
            p = counts / size
            node_gini = 1.0 - float((p * p).sum())
            with np.errstate(invalid="ignore"):  # inf - inf, in a diff or a midpoint
                want = reference_best_split(X, y, idx, counts, node_gini, m, n_classes,
                                            np.random.default_rng(node))
                got = forest._best_split(X, y, idx, counts, node_gini, m, n_classes,
                                         np.random.default_rng(node))
            if want is None:
                assert got is None
                continue
            features.add(got[0])
            assert repr(got[:3]) == repr(want[:3])  # a threshold may be inf or NaN
            assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])
        assert {0, 1, 2} <= features

    def test_five_class_forest_equals_forest_of_per_feature_searches(self, monkeypatch):
        X, y = _tied_data(np.random.default_rng(13), 90, 9, len(DISEASE_LABELS))
        X[::7, 0] = np.nan  # NaN rows go right of every cut
        labels = np.array(DISEASE_LABELS)[y]
        got = RandomForest(n_trees=40, seed=4).fit(X, labels)
        monkeypatch.setattr(forest, "_best_split", reference_best_split)
        want = RandomForest(n_trees=40, seed=4).fit(X, labels)
        assert len(got.classes_) == 5
        for name in ("roots_", "feature_", "threshold_", "right_", "leaf_class_",
                     "feature_importances_", "feature_importances_std_"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


class TestMLP:
    def test_xor(self):
        rng = np.random.default_rng(5)
        X, y = xor_data(rng)
        clf = MLPClassifier(seed=3).fit(X, y)
        assert (clf.predict(X) == y).mean() >= 0.99

    def test_separable_blobs_heldout(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng)
        clf = MLPClassifier(hidden=(32, 32), seed=0, max_epochs=800).fit(X[:150], y[:150])
        assert (clf.predict(X[150:]) == y[150:]).mean() >= 0.99

    def test_bitwise_reproducible_weights(self):
        rng = np.random.default_rng(7)
        X, y = blobs(rng, n_per_class=40)
        a = MLPClassifier(hidden=(16, 16), seed=11, max_epochs=300).fit(X, y)
        b = MLPClassifier(hidden=(16, 16), seed=11, max_epochs=300).fit(X, y)
        assert all(np.array_equal(wa, wb) for wa, wb in zip(a.W_, b.W_))
        assert all(np.array_equal(ba, bb) for ba, bb in zip(a.b_, b.b_))

    def test_adam_matches_per_layer_reference(self):
        rng = np.random.default_rng(9)
        X, y = blobs(rng, n_per_class=30, centers=((0, 0), (3, 3), (0, 4)), sigma=1.5)
        clf = MLPClassifier(hidden=(16, 8), seed=5, max_epochs=150, patience=1000).fit(X, y)
        W, b = _per_layer_adam(X, y, hidden=(16, 8), seed=5, epochs=150)
        assert all(np.array_equal(u, v) for u, v in zip(clf.W_ + clf.b_, W + b))

    def test_non_convergence_raises_training_error(self):
        X = np.array([[0.0], [0.0]])
        y = np.array(["A", "B"])  # identical inputs, different labels
        with pytest.raises(TrainingError) as err:
            MLPClassifier(hidden=(4,), seed=0, learning_rate=0.0,
                          max_epochs=50, patience=5).fit(X, y)
        assert err.value.history

    def test_stops_before_max_epochs_on_separable_blobs(self):
        X, y = blobs(np.random.default_rng(6))
        clf = MLPClassifier(seed=0).fit(X[:150], y[:150])
        assert clf.n_epochs_ < clf.max_epochs
        assert (clf.predict(X[150:]) == y[150:]).mean() >= 0.99

    def test_training_error_names_tol_and_patience(self):
        X = np.array([[0.0], [0.0]])
        y = np.array(["A", "B"])
        with pytest.raises(TrainingError, match="^loss failed to decrease by more than"
                           r" tol=0\.0001 within patience=7 epochs"):
            MLPClassifier(hidden=(4,), seed=0, patience=7).fit(X, y)


def _per_layer_adam(X, y, hidden, seed, epochs, lr=1e-3):
    """Best-loss weights of full-batch Adam with separate weight and bias
    moments, each layer stepped as soon as its gradient is taken."""
    ref = MLPClassifier(hidden=hidden, seed=seed)
    classes = np.unique(y)
    y_enc = np.searchsorted(classes, y)
    n = len(y)
    onehot = np.eye(len(classes))[y_enc]
    ref._init_weights((X.shape[1],) + hidden + (len(classes),), np.random.default_rng(seed))
    mW = [np.zeros_like(W) for W in ref.W_]
    vW = [np.zeros_like(W) for W in ref.W_]
    mb = [np.zeros_like(b) for b in ref.b_]
    vb = [np.zeros_like(b) for b in ref.b_]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_loss, best = np.inf, None
    for epoch in range(epochs):
        acts = ref._forward(X)
        probs = _softmax(acts[-1])
        loss = float(-np.log(np.maximum(probs[np.arange(n), y_enc], 1e-300)).mean())
        if loss < best_loss - 1e-12:
            best_loss = loss
            best = ([W.copy() for W in ref.W_], [b.copy() for b in ref.b_])
        delta = (probs - onehot) / n
        t = epoch + 1
        for i in reversed(range(len(ref.W_))):
            gW = acts[i].T @ delta
            gb = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ ref.W_[i].T) * (acts[i] > 0)
            mW[i] = beta1 * mW[i] + (1 - beta1) * gW
            vW[i] = beta2 * vW[i] + (1 - beta2) * gW**2
            mb[i] = beta1 * mb[i] + (1 - beta1) * gb
            vb[i] = beta2 * vb[i] + (1 - beta2) * gb**2
            ref.W_[i] -= lr * (mW[i] / (1 - beta1**t)) / (np.sqrt(vW[i] / (1 - beta2**t)) + eps)
            ref.b_[i] -= lr * (mb[i] / (1 - beta1**t)) / (np.sqrt(vb[i] / (1 - beta2**t)) + eps)
    return best


class TestSvm:
    def test_separable_blobs_heldout_and_kkt(self):
        rng = np.random.default_rng(8)
        X, y = blobs(rng)
        clf = RbfSvm().fit(X[:150], y[:150])
        assert (clf.predict(X[150:]) == y[150:]).mean() >= 0.99
        for pair in clf.pairs_.values():
            assert np.all(pair.alpha >= -1e-9)
            assert np.all(pair.alpha <= svm.C + 1e-9)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="2 classes"):
            RbfSvm().fit(np.zeros((4, 2)), np.array(["A"] * 4))

    def test_concentric_circles(self):
        rng = np.random.default_rng(9)
        n = 150
        r = np.concatenate([rng.uniform(0, 1, n), rng.uniform(2, 3, n)])
        a = rng.uniform(0, 2 * np.pi, 2 * n)
        X = np.c_[r * np.cos(a), r * np.sin(a)]
        y = np.array(["in"] * n + ["out"] * n)
        idx = rng.permutation(2 * n)
        clf = RbfSvm().fit(X[idx[:220]], y[idx[:220]])
        assert (clf.predict(X[idx[220:]]) == y[idx[220:]]).mean() >= 0.95

    def test_three_class_one_vs_one(self):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, centers=((0, 0), (8, 0), (0, 8)), n_per_class=60)
        clf = RbfSvm().fit(X[:140], y[:140])
        assert (clf.predict(X[140:]) == y[140:]).mean() >= 0.95

    def test_fitted_pairs_keep_no_generator(self):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, centers=((0, 0), (8, 0), (0, 8)), n_per_class=20)
        clf = RbfSvm().fit(X, y)
        assert len(clf.pairs_) == 3
        for pair in clf.pairs_.values():
            assert not any(isinstance(v, np.random.Generator) for v in vars(pair).values())


class TestCrossValidation:
    def test_perfectly_separable_scores_one(self):
        rng = np.random.default_rng(13)
        X, y = blobs(rng, n_per_class=50)
        ds = Dataset(X=np.c_[X, np.zeros((100, 18))],
                     y=np.where(y == "C0", "NOR", "DCM"))
        cv = cross_validate(ds, lambda: GaussianNB(), k=5, seed=0)
        assert cv.mean == 1.0 and cv.std == 0.0

    def test_folds_partition_every_sample_once(self):
        rng = np.random.default_rng(14)
        y = rng.choice(["NOR", "DCM", "HCM"], size=60)
        folds = stratified_folds(y, 5, seed=3)
        joined = np.sort(np.concatenate(folds))
        assert np.array_equal(joined, np.arange(60))

    def test_shuffled_five_class_labels_land_at_chance(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(200, 8))
        y = np.array(list(("NOR", "MINF", "DCM", "HCM", "ARV")) * 40)
        cv = cross_validate(Dataset(X=X, y=y, feature_names=tuple(f"f{i}" for i in range(8))),
                            lambda: GaussianNB(), k=5, seed=1)
        assert 0.1 <= cv.mean <= 0.3

    def test_stratification_error_when_class_too_small(self):
        y = np.array(["NOR"] * 10 + ["DCM"] * 3)
        with pytest.raises(StratificationError, match="DCM"):
            stratified_folds(y, 5, seed=0)

    def test_scaler_fit_on_training_folds_only(self):
        rng = np.random.default_rng(16)

        captured = []

        class Spy(GaussianNB):
            def fit(self, X, y):
                captured.append(X.mean(axis=0))
                return super().fit(X, y)

        X = rng.normal(size=(50, 3))
        X[25:] += 100.0  # validation-only shift would leak into the scaler
        y = np.array(["NOR", "DCM"] * 25)
        ds = Dataset(X=X, y=y, feature_names=("a", "b", "c"))
        cross_validate(ds, Spy, k=5, seed=2)
        # transformed training folds are centered: mean approx 0 each fold
        for m in captured:
            assert np.all(np.abs(m) < 1.0)


class TestSelection:
    def test_strict_threshold(self):
        scores = {"a": 0.97, "b": 0.96, "c": 0.96, "d": 0.95}
        assert set(select_classifiers(scores, 0.95)) == {"a", "b", "c"}

    def test_all_above_all_kept(self):
        scores = {"a": 0.99, "b": 0.97}
        assert set(select_classifiers(scores, 0.95)) == {"a", "b"}

    def test_published_style_scores(self):
        scores = {
            "LR": 0.94, "RF": 0.96, "GNB": 0.96, "XGB": 0.93,
            "SVM": 0.95, "MLP": 0.97, "K-NN": 0.91,
        }
        assert set(select_classifiers(scores, 0.95)) == {"RF", "GNB", "MLP"}

    def test_none_retained_raises_with_listing(self):
        with pytest.raises(SelectionError, match="a=0.500"):
            select_classifiers({"a": 0.5}, 0.95)

    def test_accepts_cvscore_values(self):
        scores = {"a": CvScore(mean=0.97, std=0.01, fold_accuracies=(0.97,))}
        assert select_classifiers(scores, 0.95) == ["a"]


def _cohort_dataset(rng, n_per_class=12):
    """Tiny five-class dataset shaped like the real feature records."""
    X = np.zeros((5 * n_per_class, len(FEATURE_NAMES)))
    labels = []
    for i, lab in enumerate(("NOR", "MINF", "DCM", "HCM", "ARV")):
        X[i * n_per_class:(i + 1) * n_per_class] = rng.normal(3 * i, 0.5,
                                                              (n_per_class, 20))
        labels += [lab] * n_per_class
    # make the ES wall features the MINF/DCM discriminator
    X[n_per_class:2 * n_per_class, 16:20] = rng.normal(9, 0.4, (n_per_class, 4))
    X[2 * n_per_class:3 * n_per_class, 16:20] = rng.normal(2, 0.4, (n_per_class, 4))
    return Dataset(X=X, y=np.array(labels))


class TestTwoStage:
    def test_majority_with_clear_winner(self):
        votes = {"SVM": "HCM", "MLP": "HCM", "GNB": "HCM", "RF": "NOR"}
        assert _majority(votes, {"SVM": 0.9, "MLP": 0.9, "GNB": 0.9, "RF": 0.99}) == "HCM"

    def test_tie_breaks_by_cv_accuracy(self):
        votes = {"SVM": "MINF", "MLP": "MINF", "GNB": "DCM", "RF": "DCM"}
        acc = {"SVM": 0.90, "MLP": 0.92, "GNB": 0.95, "RF": 0.91}
        assert _majority(votes, acc) == "DCM"
        acc2 = {"SVM": 0.90, "MLP": 0.99, "GNB": 0.95, "RF": 0.91}
        assert _majority(votes, acc2) == "MINF"

    def test_vote_permutation_invariant(self):
        votes = {"SVM": "NOR", "MLP": "HCM", "GNB": "HCM", "RF": "NOR"}
        acc = {"SVM": 0.9, "MLP": 0.8, "GNB": 0.7, "RF": 0.85}
        flipped = dict(reversed(list(votes.items())))
        assert _majority(votes, acc) == _majority(flipped, acc)

    def test_gating_and_audit_trail(self):
        rng = np.random.default_rng(17)
        ds = _cohort_dataset(rng)
        model = train_ensemble(ds, seed=0, n_trees=20, cv_folds=3)
        # a NOR-like record: stage 2 must not fire
        label, audit = predict_two_stage(model, ds.X[0])
        assert label == "NOR"
        assert audit["stage2_fired"] is False
        assert set(audit["votes"]) == {"SVM", "MLP", "GNB", "RF"}
        # a MINF-like record: stage 2 fires and outputs MINF or DCM
        label, audit = predict_two_stage(model, ds.X[13])
        assert audit["stage2_fired"] is True
        assert label in ("MINF", "DCM")
        assert audit["final"] == label

    def test_stage2_only_outputs_minf_or_dcm(self):
        rng = np.random.default_rng(18)
        ds = _cohort_dataset(rng)
        model = train_ensemble(ds, seed=1, n_trees=10, cv_folds=3)
        for row in ds.X[::7]:
            label, audit = predict_two_stage(model, row)
            if audit["stage2_fired"]:
                assert audit["stage2"] in ("MINF", "DCM")
            assert label in ("NOR", "MINF", "DCM", "HCM", "ARV")

    def test_selected_mode_votes_survivors_only(self):
        rng = np.random.default_rng(19)
        ds = _cohort_dataset(rng)
        model = train_ensemble(ds, seed=0, n_trees=10, cv_folds=3,
                               mode="selected", selection_threshold=0.0)
        assert set(model.voters()) == set(model.selected)

    def test_model_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(20)
        ds = _cohort_dataset(rng)
        model = train_ensemble(ds, seed=0, n_trees=10, cv_folds=3)
        path = tmp_path / "model.pkl"
        save_model(model, path)
        back = load_model(path)
        a, audit_a = predict_two_stage(model, ds.X[5])
        b, audit_b = predict_two_stage(back, ds.X[5])
        assert a == b and audit_a == audit_b

    def test_load_rejects_foreign_files(self, tmp_path):
        import pickle
        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"kind": "other"}))
        with pytest.raises(ValueError, match="not an ensemble"):
            load_model(path)


class TestModelFile:
    """load_model refuses, naming the file, anything this version did not write."""

    @pytest.mark.parametrize("content", [
        b"not a model\n",
        np.random.default_rng(3).bytes(512),
        b"",
    ], ids=["text", "random", "empty"])
    def test_unreadable_file(self, tmp_path, content):
        path = tmp_path / "model.pkl"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="model.pkl: not a cardiomr model file this version"):
            load_model(path)

    def test_schema_1(self, tmp_path):
        path = tmp_path / "model.pkl"
        path.write_bytes(pickle.dumps({"kind": "cardiomr-ensemble", "schema": 1, "model": None}))
        with pytest.raises(ValueError, match=r"model.pkl: model schema 1 unsupported \(expected 2\);"
                                             " retrain with train-clf"):
            load_model(path)

    def test_forest_of_tree_objects(self, tmp_path, monkeypatch):
        """A file whose forest holds ``_Tree`` objects, as forests did before
        they became flat arrays."""
        class _Tree:
            pass

        _Tree.__module__, _Tree.__qualname__ = forest.__name__, "_Tree"
        monkeypatch.setattr(forest, "_Tree", _Tree, raising=False)
        rf = RandomForest(n_trees=1)
        rf.trees_ = [_Tree()]
        path = tmp_path / "old.pkl"
        path.write_bytes(pickle.dumps({"kind": "cardiomr-ensemble", "schema": 1, "model": rf}))
        monkeypatch.undo()
        with pytest.raises(ValueError, match="old.pkl: not a cardiomr model file .*_Tree"):
            load_model(path)


class TestTrainingErrors:
    def test_expert_failure_names_the_expert(self):
        ds = _cohort_dataset(np.random.default_rng(25))
        ds.X[:, 16:20] = 1.0  # the expert's ES wall features carry nothing
        with pytest.raises(TrainingError, match="^expert MLP: loss failed to decrease"):
            train_ensemble(ds, seed=0, n_trees=5, cv_folds=3)

    def test_one_class_names_the_class(self):
        ds = Dataset(X=np.arange(12.0).reshape(6, 2), y=np.array(["HCM"] * 6))
        with pytest.raises(ValueError, match="need at least 2 classes to train, found only HCM"):
            train_ensemble(ds, n_trees=5)

    def test_no_records(self):
        with pytest.raises(ValueError, match="at least one feature record"):
            Dataset.from_records([], [])


class TestPreprocessor:
    def test_median_imputation_and_scaling(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
        prep = Preprocessor().fit(X)
        out = prep.transform(X)
        assert np.isfinite(out).all()
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_constant_feature_does_not_divide_by_zero(self):
        X = np.array([[2.0, 1.0], [2.0, 3.0]])
        out = Preprocessor().fit(X).transform(X)
        assert np.isfinite(out).all()

    def test_rf_prediction_stable_under_duplicated_feature(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(200, 3))
        y = np.where(X[:, 0] + 0.5 * X[:, 1] > 0, "P", "N")
        base = RandomForest(n_trees=40, seed=0).fit(X[:150], y[:150])
        dup = RandomForest(n_trees=40, seed=0).fit(
            np.c_[X[:150], X[:150, 0]], y[:150]
        )
        a = base.predict(X[150:])
        bselect = dup.predict(np.c_[X[150:], X[150:, 0]])
        assert (a != bselect).mean() < 0.02 + 0.1  # stochastic tolerance

    def test_gnb_argmax_invariant_to_uniform_prior_rescale(self):
        rng = np.random.default_rng(22)
        X, y = blobs(rng, n_per_class=30)
        clf = GaussianNB().fit(X, y)
        before = clf.predict(X)
        clf.priors_ = clf.priors_ * 3.5  # uniform monotonic rescale
        assert np.array_equal(clf.predict(X), before)
