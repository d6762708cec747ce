"""CART decision-tree classifier (gini impurity, binary splits).

The decision tree is the learner the case study ultimately ships (it won
model selection after case-handling features were added), and its structure
is what the matcher debugger explains — so the tree exposes its internals:
:meth:`DecisionTreeClassifier.decision_path` returns the tests a record
passes through, and :func:`export_rules` renders the tree as text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import Classifier, check_X, check_X_y


@dataclass
class _Node:
    """One tree node; leaves have ``feature is None``."""

    n_samples: int
    positive_fraction: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(n_pos: float, n_total: float) -> float:
    if n_total == 0:
        return 0.0
    p = n_pos / n_total
    return 2.0 * p * (1.0 - p)


@dataclass(frozen=True)
class _FitContext:
    """What every split of one fit shares."""

    rng: np.random.Generator
    #: ``0, 1, ..., k - 1`` for the k features examined per split
    positions: np.ndarray
    min_leaf: int
    #: the column ``1, 2, ..., n - 1``: left-child sizes at the root's n
    ramp: np.ndarray


#: Prediction walks at most this many (tree, row) cells at once.
_WALK_CELLS = 1 << 16


@dataclass(frozen=True)
class _PackedTrees:
    """Flat pre-order node arrays of one or more fitted trees.

    A leaf tests feature 0 and links to itself on both sides, so a walk
    can take the same step for every (tree, row) cell on every depth level.
    Models build their pack on first prediction, not when fitted or
    loaded: a model read back from the artifact store may never predict.
    The pack is never serialised.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def of(cls, roots: list[_Node]) -> "_PackedTrees":
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []

        def add(node: _Node, depth: int) -> int:
            i = len(value)
            feature.append(0)
            threshold.append(0.0)
            left.append(i)
            right.append(i)
            value.append(node.positive_fraction)
            if node.is_leaf:
                return depth
            feature[i] = node.feature
            threshold[i] = node.threshold
            left[i] = len(value)
            below = add(node.left, depth + 1)
            right[i] = len(value)
            return max(below, add(node.right, depth + 1))

        starts, depth = [], 0
        for root in roots:
            starts.append(len(value))
            depth = max(depth, add(root, 0))
        return cls(
            feature=np.array(feature, dtype=np.intp),
            threshold=np.array(threshold, dtype=float),
            left=np.array(left, dtype=np.intp),
            right=np.array(right, dtype=np.intp),
            value=np.array(value, dtype=float),
            roots=np.array(starts, dtype=np.intp),
            depth=depth,
        )

    def vote_sum(self, X: np.ndarray) -> np.ndarray:
        """Per row, the sum of its leaf values over the trees, in tree order.

        All rows walk all trees together, one depth level per step; the
        values are accumulated tree by tree (a cumulative sum, not a
        pairwise one), so the result is bit-identical to adding each
        tree's prediction in turn.
        """
        out = np.empty(len(X))
        step = max(1, _WALK_CELLS // len(self.roots))
        for start in range(0, len(X), step):
            block = X[start : start + step]
            rows = np.arange(len(block))
            node = np.repeat(self.roots[:, None], len(block), axis=1)
            for _ in range(self.depth):
                go_left = block[rows, self.feature[node]] <= self.threshold[node]
                node = np.where(go_left, self.left[node], self.right[node])
            out[start : start + step] = np.cumsum(self.value[node], axis=0)[-1]
        return out


class DecisionTreeClassifier(Classifier):
    """Binary CART tree.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` = unlimited).
    min_samples_split:
        A node with fewer samples becomes a leaf.
    min_samples_leaf:
        Splits producing a child smaller than this are rejected.
    max_features:
        Number of features examined per split: an int, ``"sqrt"``, or
        ``None`` for all features. Random forests pass ``"sqrt"``.
    seed:
        Seed for the feature sub-sampling (only used when *max_features*
        restricts the candidate set).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._n_features = 0
        self._importances: np.ndarray | None = None
        self._packed: _PackedTrees | None = None
        #: Memoised canonical encoding of the fitted tree, filled by
        #: :func:`repro.store.fingerprint.fingerprint_matcher`; dropped
        #: with ``_packed``.
        self._canonical: bytes | None = None

    def _reset(self) -> None:
        super()._reset()
        self._root = None
        self._n_features = 0
        self._importances = None
        self._packed = None
        self._canonical = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        n = int(self.max_features)
        if n < 1:
            raise ValueError(f"max_features must be >= 1, got {n}")
        return min(n, n_features)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, features: np.ndarray, fit: _FitContext
    ) -> tuple[int, float, float] | None:
        """Best (feature, threshold, impurity_decrease) or None if no split.

        Scores every candidate feature in one pass: the candidate columns
        are sorted together (stably), positive counts accumulate down each
        column, and every admissible split position is scored elementwise.
        Ties resolve as a feature-by-feature scan would: the first position
        within a feature, then the first feature in *features* order.
        """
        n = len(y)
        # a split after sorted position i leaves i + 1 rows on the left;
        # positions lo <= i < hi leave at least min_leaf rows on each side
        lo, hi = fit.min_leaf - 1, n - fit.min_leaf
        if lo >= hi or not len(features):
            return None
        columns = X[:, features]
        order = np.argsort(columns, axis=0, kind="stable")
        xs = columns[order, fit.positions]
        pos_cum = np.cumsum(y[order], axis=0)
        total_pos = float(pos_cum[-1, 0])
        parent_impurity = _gini(total_pos, float(n))
        pos_left = pos_cum[lo:hi].astype(float)
        n_left = fit.ramp[lo:hi]
        n_right = n - n_left
        p_left = pos_left / n_left
        p_right = (total_pos - pos_left) / n_right
        impurity = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        valid = xs[lo + 1 : hi + 1] > xs[lo:hi]
        decrease = np.where(valid, parent_impurity - impurity, -np.inf)
        per_feature = decrease.max(axis=0)
        j = int(per_feature.argmax())
        if not per_feature[j] > 1e-12:
            return None
        i = lo + int(decrease[:, j].argmax())
        lower, upper = xs[i, j], xs[i + 1, j]
        threshold = (lower + upper) / 2.0
        if threshold >= upper:  # midpoint rounded up to the upper value;
            threshold = lower  # fall back to "<= lower"
        return int(features[j]), float(threshold), float(per_feature[j])

    def _build(
        self, X: np.ndarray, y: np.ndarray, depth: int, fit: _FitContext
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
        k = len(fit.positions)
        if k < X.shape[1]:
            features = fit.rng.choice(X.shape[1], size=k, replace=False)
        else:
            features = fit.positions
        split = self._best_split(X, y, features, fit)
        if split is None:
            return node
        feature, threshold, decrease = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._build(X[mask], y[mask], depth + 1, fit)
        node.right = self._build(X[~mask], y[~mask], depth + 1, fit)
        self._importances[feature] += decrease * n
        return node

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X, y = check_X_y(X, y)
        return self._fit_checked(X, y)

    def _fit_checked(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        """Fit on a pair :func:`check_X_y` has already validated."""
        self._n_features = X.shape[1]
        self._importances = np.zeros(self._n_features)
        k = self._n_candidate_features(self._n_features)
        fit = _FitContext(
            rng=np.random.default_rng(self.seed),
            positions=np.arange(min(k, self._n_features)),
            min_leaf=max(self.min_samples_leaf, 1),
            ramp=np.arange(1, len(y), dtype=float)[:, None],
        )
        self._root = self._build(X, y, 0, fit)
        self._packed = None
        self._canonical = None
        total = self._importances.sum()
        if total > 0:
            self._importances /= total
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    # prediction & introspection
    # ------------------------------------------------------------------
    def predict_proba(self, X) -> np.ndarray:
        self._require_fitted()
        if self._packed is None:
            self._packed = _PackedTrees.of([self._root])
        return self._packed.vote_sum(check_X(X))

    @property
    def feature_importances_(self) -> np.ndarray:
        self._require_fitted()
        return self._importances.copy()

    def decision_path(self, x) -> list[tuple[int, float, bool]]:
        """The tests record *x* passes: (feature, threshold, went_left)."""
        self._require_fitted()
        x = np.asarray(x, dtype=float)
        path = []
        node = self._root
        while not node.is_leaf:
            went_left = bool(x[node.feature] <= node.threshold)
            path.append((node.feature, node.threshold, went_left))
            node = node.left if went_left else node.right
        return path

    def depth(self) -> int:
        """Depth of the fitted tree (a lone leaf has depth 0)."""
        self._require_fitted()

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)

    def leaves(self) -> Iterator[_Node]:
        """Iterate over the fitted tree's leaves (internal nodes excluded)."""
        self._require_fitted()

        def walk(node: _Node):
            if node.is_leaf:
                yield node
            else:
                yield from walk(node.left)
                yield from walk(node.right)

        yield from walk(self._root)


def export_rules(
    tree: DecisionTreeClassifier, feature_names: list[str] | None = None
) -> str:
    """Render a fitted tree as indented if/else text (debugger output)."""
    tree._require_fitted()

    def name(f: int) -> str:
        if feature_names is not None:
            return feature_names[f]
        return f"feature[{f}]"

    lines: list[str] = []

    def walk(node: _Node, indent: int) -> None:
        pad = "  " * indent
        if node.is_leaf:
            verdict = "MATCH" if node.positive_fraction >= 0.5 else "NON-MATCH"
            lines.append(
                f"{pad}-> {verdict} (p={node.positive_fraction:.2f}, n={node.n_samples})"
            )
            return
        lines.append(f"{pad}if {name(node.feature)} <= {node.threshold:.4f}:")
        walk(node.left, indent + 1)
        lines.append(f"{pad}else:  # {name(node.feature)} > {node.threshold:.4f}")
        walk(node.right, indent + 1)

    walk(tree._root, 0)
    return "\n".join(lines)
