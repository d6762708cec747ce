"""Random-forest classifier: bagged CART trees with feature sub-sampling.

The random forest is the case study's first model-selection winner and the
learner used for label debugging (leave-one-out cross-validation over the
labeled sample, Section 8).
"""

from __future__ import annotations

import numpy as np

from .base import Classifier, check_X, check_X_y
from .tree import DecisionTreeClassifier, _PackedTrees


class RandomForestClassifier(Classifier):
    """Average of bootstrap-trained CART trees.

    Parameters
    ----------
    n_trees:
        Ensemble size.
    max_depth, min_samples_split, min_samples_leaf:
        Passed to each tree.
    max_features:
        Features examined per split; default ``"sqrt"``.
    seed:
        Seeds both the bootstrap resampling and per-tree feature sampling.
    """

    def __init__(
        self,
        n_trees: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._trees: list[DecisionTreeClassifier] = []
        self._packed: _PackedTrees | None = None
        #: Memoised canonical encoding of the fitted forest, filled by
        #: :func:`repro.store.fingerprint.fingerprint_matcher`; dropped
        #: with ``_packed``.
        self._canonical: bytes | None = None

    def _reset(self) -> None:
        super()._reset()
        self._trees = []
        self._packed = None
        self._canonical = None

    def fit(self, X, y) -> "RandomForestClassifier":
        X, y = check_X_y(X, y)
        rng = np.random.default_rng(self.seed)
        self._trees = []
        n = len(y)
        for t in range(self.n_trees):
            indices = rng.integers(0, n, size=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree._fit_checked(X[indices], y[indices])
            self._trees.append(tree)
        self._packed = None
        self._canonical = None
        self._fitted = True
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        if self._packed is None:
            self._packed = _PackedTrees.of([tree._root for tree in self._trees])
        return self._packed.vote_sum(check_X(X)) / len(self._trees)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean of per-tree impurity-decrease importances."""
        self._require_fitted()
        total = np.zeros_like(self._trees[0].feature_importances_)
        for tree in self._trees:
            total += tree.feature_importances_
        return total / len(self._trees)
