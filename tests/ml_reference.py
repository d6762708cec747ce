"""Reference CART tree and forest: the per-feature, per-row loops.

The production learners in :mod:`repro.ml.tree` and :mod:`repro.ml.forest`
score every candidate feature of a split in one pass over 2-D arrays and
predict by walking all rows through all trees one depth level at a time.
These subclasses keep the straightforward shape those replaced — one
sort per candidate feature, one Python walk per row per tree, a vote loop
over the trees, validation inside every tree fit — so the parity tests
and ``benchmarks/bench_ml.py`` can assert that both produce bit-identical
models and probabilities.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_X, check_X_y
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier, _gini, _Node


class ReferenceTree(DecisionTreeClassifier):
    """A CART tree fitted feature by feature and applied row by row."""

    def _best_split_reference(
        self, X: np.ndarray, y: np.ndarray, features: np.ndarray
    ) -> tuple[int, float, float] | None:
        n = len(y)
        parent_impurity = _gini(float(y.sum()), float(n))
        best: tuple[int, float, float] | None = None
        min_leaf = self.min_samples_leaf
        for f in features:
            order = np.argsort(X[:, f], kind="mergesort")
            xs = X[order, f]
            pos_cum = np.cumsum(y[order])
            total_pos = float(pos_cum[-1])
            n_left = np.arange(1, n, dtype=float)  # split after position i
            valid = xs[1:] > xs[:-1]
            valid &= (n_left >= min_leaf) & (n - n_left >= min_leaf)
            if not valid.any():
                continue
            pos_left = pos_cum[:-1].astype(float)
            pos_right = total_pos - pos_left
            n_right = n - n_left
            with np.errstate(divide="ignore", invalid="ignore"):
                p_left = pos_left / n_left
                p_right = pos_right / n_right
                impurity = (
                    n_left * 2.0 * p_left * (1.0 - p_left)
                    + n_right * 2.0 * p_right * (1.0 - p_right)
                ) / n
            decrease = np.where(valid, parent_impurity - impurity, -np.inf)
            i = int(np.argmax(decrease))
            if decrease[i] > 1e-12 and (best is None or decrease[i] > best[2]):
                threshold = (xs[i] + xs[i + 1]) / 2.0
                if threshold >= xs[i + 1]:
                    threshold = xs[i]
                best = (int(f), float(threshold), float(decrease[i]))
        return best

    def _build_reference(
        self, X: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator
    ) -> _Node:
        n = len(y)
        n_pos = float(y.sum())
        node = _Node(
            n_samples=n,
            positive_fraction=n_pos / n,
            impurity=_gini(n_pos, n),
        )
        if (
            n < self.min_samples_split
            or n_pos in (0.0, float(n))
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return node
        k = self._n_candidate_features(X.shape[1])
        if k < X.shape[1]:
            features = rng.choice(X.shape[1], size=k, replace=False)
        else:
            features = np.arange(X.shape[1])
        split = self._best_split_reference(X, y, features)
        if split is None:
            return node
        feature, threshold, decrease = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build_reference(X[mask], y[mask], depth + 1, rng)
        node.right = self._build_reference(X[~mask], y[~mask], depth + 1, rng)
        self._importances[feature] += decrease * n
        return node

    def fit(self, X, y) -> "ReferenceTree":
        X, y = check_X_y(X, y)
        self._n_features = X.shape[1]
        self._importances = np.zeros(self._n_features)
        rng = np.random.default_rng(self.seed)
        self._root = self._build_reference(X, y, depth=0, rng=rng)
        total = self._importances.sum()
        if total > 0:
            self._importances /= total
        self._fitted = True
        return self

    def _leaf_for(self, x: np.ndarray) -> _Node:
        node = self._root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        return np.array([self._leaf_for(x).positive_fraction for x in X])


class ReferenceForest(RandomForestClassifier):
    """A forest of :class:`ReferenceTree`, each validating its own input,
    whose probabilities are summed by a loop over the trees."""

    def fit(self, X, y) -> "ReferenceForest":
        X, y = check_X_y(X, y)
        rng = np.random.default_rng(self.seed)
        self._trees = []
        n = len(y)
        for _ in range(self.n_trees):
            indices = rng.integers(0, n, size=n)
            tree = ReferenceTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit(X[indices], y[indices])
            self._trees.append(tree)
        self._fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        X = check_X(X)
        votes = np.zeros(len(X))
        for tree in self._trees:
            votes += tree.predict_proba(X)
        return votes / len(self._trees)
