"""Workflow packaging: serialize a trained EM workflow to JSON and back.

Section 12's "next steps": the UMETRICS team wanted the matcher packaged
so it could move into the repository and run over other data slices — and
the paper immediately identifies the challenge: "the EM workflow is rather
complex. It has rules at multiple places and a machine learning-based
matcher. So we need to find out how to represent it effectively."

This module is that representation. A :class:`PackagedWorkflow` bundles

* the positive (sure-match) rules, by display name (``"M1"``), resolved
  through :func:`repro.rules.factory.positive_rule_named`;
* the blocking plan: one :func:`repro.blocking.factory.blocker_config`
  payload per blocker, read back by
  :func:`~repro.blocking.factory.create_blocker` (the plan configs' and
  store keys' encoding too; the factory's ``BlockingError`` becomes
  :class:`~repro.errors.WorkflowError` here);
* the generated feature set, by feature *name* (generated features are
  reconstructable from their names — attribute, measure, tokenizer, case
  flag);
* the trained matcher: decision trees / forests serialize their full node
  structure, plus the imputer's column means;
* the negative rules, as ``"default"`` for
  :func:`repro.rules.factory.create_negative_rules`.

Every callable travels by its name in one of two tables:
:data:`repro.text.tokenizers.TOKENIZERS` and
:data:`repro.text.normalize.CELL_FUNCTIONS`. Everything round-trips
through plain JSON-compatible dicts, so a workflow developed here can be
checked into the production repository and reloaded without pickling
arbitrary code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..blocking.factory import blocker_config, create_blocker
from ..errors import BlockingError, RuleError, WorkflowError
from ..features.feature import STRING_MEASURES, TOKEN_MEASURES, numeric_feature, string_feature, token_feature
from ..features.generate import FeatureSet
from ..matchers.ml_matcher import MLMatcher
from ..ml.forest import RandomForestClassifier
from ..ml.impute import MeanImputer
from ..ml.tree import DecisionTreeClassifier, _Node
from ..rules.factory import create_negative_rules, positive_rule_named
from ..text.tokenizers import TOKENIZERS
from .workflow import EMWorkflow


# ----------------------------------------------------------------------
# decision trees and forests
# ----------------------------------------------------------------------
def serialize_tree(tree: DecisionTreeClassifier) -> dict[str, Any]:
    """Serialize a fitted tree (hyper-parameters + node structure)."""
    tree._require_fitted()

    def node_to_dict(node: _Node) -> dict[str, Any]:
        out: dict[str, Any] = {
            "n": node.n_samples,
            "p": node.positive_fraction,
        }
        if not node.is_leaf:
            out["f"] = node.feature
            out["t"] = node.threshold
            out["l"] = node_to_dict(node.left)
            out["r"] = node_to_dict(node.right)
        return out

    return {
        "kind": "decision_tree",
        "params": {
            "max_depth": tree.max_depth,
            "min_samples_split": tree.min_samples_split,
            "min_samples_leaf": tree.min_samples_leaf,
            "max_features": tree.max_features,
            "seed": tree.seed,
        },
        "n_features": tree._n_features,
        "importances": list(map(float, tree._importances)),
        "root": node_to_dict(tree._root),
    }


def deserialize_tree(payload: dict[str, Any]) -> DecisionTreeClassifier:
    """Rebuild a fitted tree from :func:`serialize_tree` output."""
    if payload.get("kind") != "decision_tree":
        raise WorkflowError(f"expected a decision_tree payload, got {payload.get('kind')!r}")

    def dict_to_node(data: dict[str, Any]) -> _Node:
        node = _Node(n_samples=int(data["n"]), positive_fraction=float(data["p"]))
        if "f" in data:
            node.feature = int(data["f"])
            node.threshold = float(data["t"])
            node.left = dict_to_node(data["l"])
            node.right = dict_to_node(data["r"])
        return node

    tree = DecisionTreeClassifier(**payload["params"])
    tree._root = dict_to_node(payload["root"])
    tree._n_features = int(payload["n_features"])
    tree._importances = np.asarray(payload["importances"], dtype=float)
    tree._fitted = True
    return tree


def serialize_forest(forest: RandomForestClassifier) -> dict[str, Any]:
    """Serialize a fitted random forest (all member trees)."""
    forest._require_fitted()
    return {
        "kind": "random_forest",
        "params": {
            "n_trees": forest.n_trees,
            "max_depth": forest.max_depth,
            "min_samples_split": forest.min_samples_split,
            "min_samples_leaf": forest.min_samples_leaf,
            "max_features": forest.max_features,
            "seed": forest.seed,
        },
        "trees": [serialize_tree(t) for t in forest._trees],
    }


def deserialize_forest(payload: dict[str, Any]) -> RandomForestClassifier:
    """Rebuild a fitted forest from :func:`serialize_forest` output."""
    if payload.get("kind") != "random_forest":
        raise WorkflowError(f"expected a random_forest payload, got {payload.get('kind')!r}")
    forest = RandomForestClassifier(**payload["params"])
    forest._trees = [deserialize_tree(t) for t in payload["trees"]]
    forest._fitted = True
    return forest


def serialize_model(model) -> dict[str, Any]:
    """Serialize a supported classifier (tree or forest)."""
    if isinstance(model, DecisionTreeClassifier):
        return serialize_tree(model)
    if isinstance(model, RandomForestClassifier):
        return serialize_forest(model)
    raise WorkflowError(
        f"cannot package a {type(model).__name__}; only tree-based matchers "
        "serialize (retrain with a decision tree or random forest)"
    )


def deserialize_model(payload: dict[str, Any]):
    kind = payload.get("kind")
    if kind == "decision_tree":
        return deserialize_tree(payload)
    if kind == "random_forest":
        return deserialize_forest(payload)
    raise WorkflowError(f"unknown model kind {kind!r}")


# ----------------------------------------------------------------------
# feature sets (by name)
# ----------------------------------------------------------------------
def feature_from_name(name: str) -> Any:
    """Rebuild a generated feature from its canonical name.

    Names follow ``{l_attr}_{r_attr}_{measure}[_{tokenizer}][_ci]`` where
    l_attr == r_attr for generated features. Custom features cannot be
    rebuilt this way and are rejected.
    """
    casefold = name.endswith("_ci")
    stem = name[: -len("_ci")] if casefold else name
    # try token measures (with tokenizer suffix) first, then string, then numeric
    for measure in TOKEN_MEASURES:
        for tok_name in TOKENIZERS:
            suffix = f"_{measure}_{tok_name}"
            if stem.endswith(suffix):
                attrs = stem[: -len(suffix)]
                attr = attrs[: len(attrs) // 2]
                if attrs == f"{attr}_{attr}":
                    return token_feature(
                        attr, attr, measure, TOKENIZERS[tok_name], tok_name,
                        casefold=casefold,
                    )
    for measure in STRING_MEASURES:
        suffix = f"_{measure}"
        if stem.endswith(suffix):
            attrs = stem[: -len(suffix)]
            attr = attrs[: len(attrs) // 2]
            if attrs == f"{attr}_{attr}":
                return string_feature(attr, attr, measure, casefold=casefold)
    for measure in ("exact", "abs_diff", "rel_diff"):
        suffix = f"_{measure}"
        if not casefold and stem.endswith(suffix):
            attrs = stem[: -len(suffix)]
            attr = attrs[: len(attrs) // 2]
            if attrs == f"{attr}_{attr}":
                return numeric_feature(attr, attr, measure)
    raise WorkflowError(f"cannot rebuild feature from name {name!r}")


def feature_set_from_names(names: list[str]) -> FeatureSet:
    """Rebuild a whole generated feature set from its names."""
    feature_set = FeatureSet()
    for name in names:
        feature = feature_from_name(name)
        if feature.name != name:
            raise WorkflowError(
                f"feature name round-trip failed: {name!r} -> {feature.name!r}"
            )
        feature_set.add(feature)
    return feature_set


# ----------------------------------------------------------------------
# blockers: the factory's payload, under packaging's error type
# ----------------------------------------------------------------------
def serialize_blocker(blocker) -> dict[str, Any]:
    """The blocker's payload, :func:`repro.blocking.factory.blocker_config`."""
    try:
        return blocker_config(blocker)
    except BlockingError as exc:
        raise WorkflowError(str(exc)) from exc


def deserialize_blocker(payload: dict[str, Any]):
    """Rebuild a blocker from :func:`serialize_blocker` output."""
    try:
        blocker = create_blocker(payload)
        blocker_config(blocker)  # a package holds only kinds that package
    except BlockingError as exc:
        raise WorkflowError(str(exc)) from exc
    return blocker


# ----------------------------------------------------------------------
# the packaged workflow
# ----------------------------------------------------------------------
@dataclass
class PackagedWorkflow:
    """A deployable EM workflow: rules + blocking + features + matcher."""

    workflow: EMWorkflow
    matcher: MLMatcher
    feature_set: FeatureSet

    def to_dict(self) -> dict[str, Any]:
        if not self.matcher.is_fitted:
            raise WorkflowError("package a matcher only after training it")
        try:
            for rule in self.workflow.positive_rules:
                positive_rule_named(rule.name)
        except RuleError as exc:
            raise WorkflowError(f"cannot package: {exc}") from exc
        return {
            "format": "repro-packaged-workflow/1",
            "name": self.workflow.name,
            "positive_rules": [r.name for r in self.workflow.positive_rules],
            "blockers": [serialize_blocker(b) for b in self.workflow.blockers],
            "negative_rules": "default" if self.workflow.negative_rules else None,
            "features": list(self.feature_set.names),
            "matcher_name": self.matcher.name,
            "model": serialize_model(self.matcher.model),
            "imputer_means": list(map(float, self.matcher._imputer._means)),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "PackagedWorkflow":
        if payload.get("format") != "repro-packaged-workflow/1":
            raise WorkflowError(f"unknown package format {payload.get('format')!r}")
        try:
            positive_rules = [positive_rule_named(n) for n in payload["positive_rules"]]
            negative_rules = create_negative_rules(payload["negative_rules"] or [])
        except RuleError as exc:
            raise WorkflowError(str(exc)) from exc
        workflow = EMWorkflow(
            name=payload["name"],
            positive_rules=positive_rules,
            blockers=[deserialize_blocker(b) for b in payload["blockers"]],
            negative_rules=negative_rules,
        )
        feature_set = feature_set_from_names(payload["features"])
        matcher = MLMatcher(deserialize_model(payload["model"]), payload["matcher_name"])
        imputer = MeanImputer()
        imputer._means = np.asarray(payload["imputer_means"], dtype=float)
        matcher._imputer = imputer
        matcher._feature_names = list(payload["features"])
        return cls(workflow=workflow, matcher=matcher, feature_set=feature_set)

    # -- file I/O --------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PackagedWorkflow":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # -- running ----------------------------------------------------------
    def run(self, ltable, rtable, l_key: str, r_key: str):
        """Run the packaged workflow on a fresh data slice."""
        return self.workflow.run(
            ltable, rtable, l_key, r_key, self.matcher, self.feature_set
        )
