"""Differential tests: the one-pass CART fit and the packed prediction walk
against the per-feature, per-row reference in ``tests/ml_reference.py``.

Models must be bit-identical: byte-equal serialised payloads (so store
fingerprints do not move), equal importances, and ``np.array_equal``
probabilities at one row and at many.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.ml.tree as tree_module
from repro.core.serialize import (
    deserialize_model,
    serialize_forest,
    serialize_model,
    serialize_tree,
)
from repro.ml import (
    DecisionTreeClassifier,
    RandomForestClassifier,
    leave_one_out_predictions,
)
from tests.ml_reference import ReferenceForest, ReferenceTree

#: values with exact ties, signed zeros and adjacent floats whose midpoint
#: rounds up to the upper value (the threshold then falls back to the lower)
TIE_VALUES = [-1.0, -0.0, 0.0, 0.1, 0.2, 0.5, 1e-300, 1.0000000000000002, 1.0000000000000004]


@st.composite
def training_sets(draw, max_rows=40):
    """(X, y) with tied, constant and rounded columns and 0/1 labels that
    may be single-class."""
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["normal", "rounded", "small_ints", "ties"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ties":
        X = draw(arrays(float, (n, d), elements=st.sampled_from(TIE_VALUES)))
    elif kind == "small_ints":
        X = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
        if kind == "rounded":
            X = np.round(X, 1)
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.25  # a constant column
    labels = draw(st.sampled_from(["mixed", "all_zero", "all_one"]))
    if labels == "mixed":
        y = (rng.random(n) < rng.random()).astype(int)
    else:
        y = np.full(n, int(labels == "all_one"))
    return X, y


tree_params = st.fixed_dictionaries(
    {
        "max_depth": st.one_of(st.none(), st.integers(1, 3)),
        "min_samples_leaf": st.integers(1, 4),
        "max_features": st.one_of(st.none(), st.just("sqrt"), st.integers(1, 6)),
        "seed": st.integers(0, 10_000),
    }
)


def _payload(model) -> str:
    return json.dumps(serialize_model(model), sort_keys=True)


def _probe_rows(X: np.ndarray, seed: int, n: int = 300) -> np.ndarray:
    """The training rows plus fresh rows around their value range."""
    rng = np.random.default_rng(seed)
    fresh = rng.normal(size=(n, X.shape[1])) * (np.abs(X).max() + 1.0)
    return np.vstack([X, fresh, np.round(fresh, 1)])


def _assert_same_predictions(model, reference, X: np.ndarray, seed: int) -> None:
    rows = _probe_rows(X, seed)
    for probe in (rows[:1], rows[-1:], rows):
        assert np.array_equal(model.predict_proba(probe), reference.predict_proba(probe))
    assert np.array_equal(model.predict(rows), reference.predict(rows))


@settings(max_examples=300, deadline=None)
@given(training_sets(), tree_params)
def test_tree_matches_reference(data, params):
    X, y = data
    tree = DecisionTreeClassifier(**params).fit(X, y)
    reference = ReferenceTree(**params).fit(X, y)
    assert json.dumps(serialize_tree(tree)) == json.dumps(serialize_tree(reference))
    assert np.array_equal(tree.feature_importances_, reference.feature_importances_)
    _assert_same_predictions(tree, reference, X, params["seed"])


@settings(max_examples=100, deadline=None)
@given(training_sets(), tree_params, st.integers(1, 8))
def test_forest_matches_reference(data, params, n_trees):
    X, y = data
    forest = RandomForestClassifier(n_trees=n_trees, **params).fit(X, y)
    reference = ReferenceForest(n_trees=n_trees, **params).fit(X, y)
    assert json.dumps(serialize_forest(forest)) == json.dumps(
        serialize_forest(reference)
    )
    assert np.array_equal(forest.feature_importances_, reference.feature_importances_)
    _assert_same_predictions(forest, reference, X, params["seed"])


@pytest.mark.parametrize("max_features", [None, "sqrt", 2])
def test_matrix_without_columns_fits_a_leaf(max_features):
    X, y = np.zeros((4, 0)), np.array([0, 1, 1, 0])
    tree = DecisionTreeClassifier(max_features=max_features).fit(X, y)
    reference = ReferenceTree(max_features=max_features).fit(X, y)
    assert _payload(tree) == _payload(reference)
    assert np.array_equal(tree.predict_proba(X), reference.predict_proba(X))


def _section8_matrix(n=60, d=12, seed=7):
    rng = np.random.default_rng(seed)
    X = np.round(rng.random((n, d)), 2)
    y = (X[:, 0] + X[:, 1] + 0.4 * rng.random(n) > 1.2).astype(int)
    return X, y


def test_forest_prediction_over_many_blocks_matches_reference():
    # more (tree, row) cells than one walk block holds
    X, y = _section8_matrix()
    forest = RandomForestClassifier(n_trees=9, min_samples_leaf=2, seed=3).fit(X, y)
    reference = ReferenceForest(n_trees=9, min_samples_leaf=2, seed=3).fit(X, y)
    rows = np.random.default_rng(0).random((tree_module._WALK_CELLS // 9 * 2 + 5, 12))
    assert np.array_equal(forest.predict_proba(rows), reference.predict_proba(rows))
    assert forest.predict_proba(rows[:0]).shape == (0,)


def _tree_and_forest():
    return pytest.mark.parametrize(
        "model",
        [
            DecisionTreeClassifier(min_samples_leaf=2, seed=4),
            RandomForestClassifier(n_trees=6, min_samples_leaf=2, seed=4),
        ],
        ids=["tree", "forest"],
    )


@_tree_and_forest()
def test_roundtrip_rebuilds_packed_arrays(model):
    X, y = _section8_matrix()
    model.fit(X, y)
    restored = deserialize_model(serialize_model(model))
    assert _payload(restored) == _payload(model)
    rows = _probe_rows(X, 1)
    assert np.array_equal(restored.predict_proba(rows), model.predict_proba(rows))
    assert restored._packed is not None


@_tree_and_forest()
def test_clone_is_unfitted_without_packed_arrays(model):
    X, y = _section8_matrix()
    model.fit(X, y).predict_proba(X)
    fresh = model.clone()
    assert not fresh.is_fitted
    assert fresh._packed is None
    assert getattr(fresh, "_trees", []) == []
    assert model._packed is not None  # the original keeps its arrays


@_tree_and_forest()
def test_refit_predicts_from_the_new_fit(model):
    X, y = _section8_matrix()
    model.fit(X, y).predict_proba(X)
    flipped = 1 - y
    model.fit(X, flipped)
    reference = deserialize_model(serialize_model(model))
    assert np.array_equal(model.predict_proba(X), reference.predict_proba(X))
    assert not np.array_equal(model.predict(X), y)


def test_forest_validates_its_input_once(monkeypatch):
    calls = []
    original = tree_module.check_X_y

    def counting(X, y):
        calls.append(1)
        return original(X, y)

    monkeypatch.setattr(tree_module, "check_X_y", counting)
    X, y = _section8_matrix()
    RandomForestClassifier(n_trees=5, seed=0).fit(X, y)
    assert calls == []  # member trees reuse the forest's checked arrays
    DecisionTreeClassifier().fit(X, y)
    assert calls == [1]


def test_leave_one_out_matches_reference():
    X, y = _section8_matrix(n=24, d=6, seed=11)
    got = leave_one_out_predictions(
        RandomForestClassifier(n_trees=10, min_samples_leaf=2, seed=0), X, y
    )
    want = leave_one_out_predictions(
        ReferenceForest(n_trees=10, min_samples_leaf=2, seed=0), X, y
    )
    assert np.array_equal(got, want)
