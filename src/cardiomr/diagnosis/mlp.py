"""Minimal multi-layer perceptron with softmax output.

Two ReLU hidden layers by default, cross-entropy objective, full-batch
Adam updates on a fixed schedule. Given a seed, training is bitwise
reproducible on one BLAS thread count. An epoch counts as an improvement
only when its loss is more than ``TOL`` below the last recorded best; that
loss becomes the best and the weights of that epoch are kept. Training
stops once more than ``patience`` epochs have passed without an
improvement and restores the kept weights; it aborts with
:class:`TrainingError` when that first happens before any epoch has
improved on the initial loss. ``TOL`` and the default ``patience`` take
the values of scikit-learn's ``tol`` and ``n_iter_no_change``.
``n_epochs_`` counts the epochs run.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-4  # least loss drop that counts as an improvement


class TrainingError(RuntimeError):
    """Optimization failed to reduce the loss; carries diagnostics."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history or []


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class MLPClassifier:
    def __init__(
        self,
        hidden=(100, 100),
        seed: int = 0,
        learning_rate: float = 1e-3,
        max_epochs: int = 2000,
        patience: int = 10,
    ):
        self.hidden = tuple(hidden)
        self.seed = seed
        self.learning_rate = learning_rate
        self.max_epochs = max_epochs
        self.patience = patience

    def _init_weights(self, sizes, rng):
        self.W_ = []
        self.b_ = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.W_.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.b_.append(np.zeros(fan_out))

    def _forward(self, X):
        acts = [X]
        for i, (W, b) in enumerate(zip(self.W_, self.b_)):
            z = acts[-1] @ W + b
            acts.append(z if i == len(self.W_) - 1 else np.maximum(z, 0.0))
        return acts

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if len(self.classes_) < 2:
            raise ValueError("need at least 2 classes")
        y_enc = np.searchsorted(self.classes_, y)
        n, d = X.shape
        k = len(self.classes_)
        onehot = np.zeros((n, k))
        onehot[np.arange(n), y_enc] = 1.0

        rng = np.random.default_rng(self.seed)
        sizes = (d,) + self.hidden + (k,)
        self._init_weights(sizes, rng)

        # Adam state, one moment pair per array of W_ + b_
        params = self.W_ + self.b_
        layers = len(self.W_)
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        beta1, beta2, eps = 0.9, 0.999, 1e-8

        best_loss = np.inf
        best_epoch = -1
        best_weights = None
        history = []
        for epoch in range(self.max_epochs):
            acts = self._forward(X)
            probs = _softmax(acts[-1])
            loss = float(-np.log(np.maximum(probs[np.arange(n), y_enc], 1e-300)).mean())
            history.append(loss)
            if loss < best_loss - TOL:
                best_loss = loss
                best_epoch = epoch
                best_weights = ([W.copy() for W in self.W_], [b.copy() for b in self.b_])
            elif epoch - best_epoch > self.patience:
                if best_epoch <= 0:
                    raise TrainingError(
                        f"loss failed to decrease by more than tol={TOL:g}"
                        f" within patience={self.patience} epochs"
                        f" (initial {history[0]:.6f}, last {loss:.6f})",
                        history,
                    )
                break

            delta = (probs - onehot) / n
            grads = [None] * len(params)  # all from the weights before this step
            for i in reversed(range(layers)):
                grads[i] = acts[i].T @ delta
                grads[layers + i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ self.W_[i].T) * (acts[i] > 0)
            t = epoch + 1
            for j, g in enumerate(grads):
                m[j] = beta1 * m[j] + (1 - beta1) * g
                v[j] = beta2 * v[j] + (1 - beta2) * g**2
                mh = m[j] / (1 - beta1**t)
                vh = v[j] / (1 - beta2**t)
                params[j] -= self.learning_rate * mh / (np.sqrt(vh) + eps)

        self.n_epochs_ = len(history)
        if best_weights is not None:
            self.W_, self.b_ = best_weights
        return self

    def predict_proba(self, X):
        X = np.asarray(X, dtype=np.float64)
        return _softmax(self._forward(X)[-1])

    def predict(self, X):
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]
