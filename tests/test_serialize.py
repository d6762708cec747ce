"""Tests for workflow packaging (serialization round-trips)."""

import numpy as np
import pytest

from repro.blocking import (
    AttrEquivalenceBlocker,
    BlockSizePolicy,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    ShardedOverlapBlocker,
    ShardedOverlapCoefficientBlocker,
    create_blocker,
    full_cross_product,
)
from repro.core import EMWorkflow, PackagedWorkflow, feature_from_name, feature_set_from_names
from repro.core.serialize import (
    deserialize_blocker,
    deserialize_model,
    serialize_blocker,
    serialize_model,
)
from repro.errors import BlockingError, WorkflowError
from repro.features import extract_feature_vectors, generate_features
from repro.matchers import MLMatcher
from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegression,
    RandomForestClassifier,
)
from repro.rules import default_negative_rules, m1_rule
from repro.table import Table
from repro.text import award_number_suffix, normalize_title


def fitted_tree(n=80, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 4))
    y = (X[:, 0] + 0.4 * X[:, 1] > 0.6).astype(int)
    return DecisionTreeClassifier(min_samples_leaf=2).fit(X, y), X, y


class TestModelSerialization:
    def test_tree_roundtrip_predictions(self):
        tree, X, _ = fitted_tree()
        clone = deserialize_model(serialize_model(tree))
        assert np.allclose(tree.predict_proba(X), clone.predict_proba(X))
        assert np.allclose(tree.feature_importances_, clone.feature_importances_)

    def test_tree_roundtrip_structure(self):
        tree, X, _ = fitted_tree()
        clone = deserialize_model(serialize_model(tree))
        assert clone.depth() == tree.depth()
        assert clone.decision_path(X[0]) == tree.decision_path(X[0])

    def test_forest_roundtrip(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(60, 3))
        y = (X[:, 0] > 0.5).astype(int)
        forest = RandomForestClassifier(n_trees=7, seed=2).fit(X, y)
        clone = deserialize_model(serialize_model(forest))
        assert np.allclose(forest.predict_proba(X), clone.predict_proba(X))

    def test_unsupported_model_rejected(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(20, 2))
        y = (X[:, 0] > 0.5).astype(int)
        model = LogisticRegression().fit(X, y)
        with pytest.raises(WorkflowError, match="tree"):
            serialize_model(model)

    def test_unknown_payload_rejected(self):
        with pytest.raises(WorkflowError):
            deserialize_model({"kind": "mystery"})

    def test_json_compatible(self):
        import json

        tree, _, _ = fitted_tree()
        text = json.dumps(serialize_model(tree))
        assert deserialize_model(json.loads(text)).is_fitted


class TestFeatureNames:
    @pytest.mark.parametrize(
        "name",
        [
            "AwardTitle_AwardTitle_jac_qgm_3",
            "AwardTitle_AwardTitle_cos_ws_ci",
            "AwardNumber_AwardNumber_lev_sim",
            "AwardNumber_AwardNumber_jw",
            "Amount_Amount_abs_diff",
            "FirstTransDate_FirstTransDate_exact_str",
            "AwardNumber_AwardNumber_exact_str_ci",
        ],
    )
    def test_roundtrip_known_names(self, name):
        feature = feature_from_name(name)
        assert feature.name == name

    def test_generated_set_roundtrips(self):
        left = Table({"t": ["a b c d e f"], "n": [1.0]})
        right = Table({"t": ["a b c"], "n": [2.0]})
        original = generate_features(left, right)
        rebuilt = feature_set_from_names(original.names)
        assert rebuilt.names == original.names
        for a, b in zip(original, rebuilt):
            for args in (("hello world", "hello world"), (2.5, 2.5), ("x", 3)):
                left_value, right_value = a(*args), b(*args)
                assert left_value == right_value or (
                    np.isnan(left_value) and np.isnan(right_value)
                )

    def test_unparseable_name_rejected(self):
        with pytest.raises(WorkflowError):
            feature_from_name("not_a_generated_feature_zzz")

    def test_asymmetric_name_rejected(self):
        with pytest.raises(WorkflowError):
            feature_from_name("Left_Right_jaro")


class TestBlockerSerialization:
    @pytest.mark.parametrize(
        "blocker",
        [
            AttrEquivalenceBlocker("AwardNumber", "AwardNumber",
                                   l_preprocess=award_number_suffix),
            OverlapBlocker("AwardTitle", "AwardTitle", threshold=3,
                           normalizer=normalize_title),
            OverlapCoefficientBlocker("AwardTitle", "AwardTitle", threshold=0.7,
                                      normalizer=normalize_title),
            OverlapBlocker("AwardTitle", "AwardTitle", threshold=1,
                           block_size_policy=BlockSizePolicy(max_block_size=5)),
            ShardedOverlapBlocker("AwardTitle", "AwardTitle", threshold=1,
                                  shards=4),
            ShardedOverlapCoefficientBlocker("AwardTitle", "AwardTitle",
                                             threshold=0.5, shards=2,
                                             block_size_policy=3),
            OverlapCoefficientBlocker("AwardTitle", "AwardTitle", threshold=0.5,
                                      block_size_policy=4),
            ShardedOverlapBlocker("AwardTitle", "AwardTitle", threshold=2,
                                  normalizer=normalize_title, shards=3,
                                  block_size_policy=6),
        ],
    )
    def test_roundtrip(self, blocker):
        clone = deserialize_blocker(serialize_blocker(blocker))
        assert type(clone) is type(blocker)
        left = Table({"id": [1], "AwardNumber": ["10.1 X"],
                      "AwardTitle": ["a b c"]}, name="L")
        right = Table({"id": [2], "AwardNumber": ["X"],
                       "AwardTitle": ["A B C"]}, name="R")
        assert (
            blocker.block_tables(left, right, "id", "id").pair_set()
            == clone.block_tables(left, right, "id", "id").pair_set()
        )

    def test_unregistered_preprocessor_rejected(self):
        blocker = AttrEquivalenceBlocker("a", "b", l_preprocess=str.lower)
        with pytest.raises(WorkflowError, match="preprocessor"):
            serialize_blocker(blocker)

    def test_uncapped_payload_omits_policy_key(self):
        """Uncapped blockers serialize byte-identically to pre-policy
        builds, so existing artifact-store fingerprints stay valid."""
        payload = serialize_blocker(OverlapBlocker("t", "t", threshold=2))
        assert "max_block_size" not in payload
        capped = serialize_blocker(
            OverlapBlocker("t", "t", threshold=2, block_size_policy=9)
        )
        assert capped["max_block_size"] == 9

    def test_sharded_roundtrip_keeps_shards(self):
        blocker = ShardedOverlapBlocker("t", "t", threshold=2, shards=5)
        clone = deserialize_blocker(serialize_blocker(blocker))
        assert type(clone) is ShardedOverlapBlocker
        assert clone.shards == 5

    @pytest.mark.parametrize("cap", [None, 7])
    def test_payloads_pinned(self, cap):
        """Every kind's payload, literally: store keys hash these dicts,
        so any change here would orphan stored artifacts."""
        capped = {} if cap is None else {"max_block_size": cap}
        cases = [
            (
                AttrEquivalenceBlocker("A", "B", l_preprocess=award_number_suffix,
                                       block_size_policy=cap),
                {"kind": "attr_equivalence", "l_attr": "A", "r_attr": "B",
                 "l_preprocess": "award_number_suffix", "r_preprocess": None},
            ),
            (
                OverlapBlocker("A", "B", threshold=3, normalizer=normalize_title,
                               block_size_policy=cap),
                {"kind": "overlap", "l_attr": "A", "r_attr": "B", "threshold": 3,
                 "normalizer": "normalize_title"},
            ),
            (
                OverlapCoefficientBlocker("A", "B", threshold=0.7,
                                          block_size_policy=cap),
                {"kind": "overlap_coefficient", "l_attr": "A", "r_attr": "B",
                 "threshold": 0.7, "normalizer": None},
            ),
            (
                ShardedOverlapBlocker("A", "B", threshold=2, shards=8,
                                      normalizer=normalize_title,
                                      block_size_policy=cap),
                {"kind": "sharded_overlap", "l_attr": "A", "r_attr": "B",
                 "threshold": 2, "normalizer": "normalize_title", "shards": 8},
            ),
            (
                ShardedOverlapCoefficientBlocker("A", "B", threshold=0.5,
                                                 shards=3, block_size_policy=cap),
                {"kind": "sharded_overlap_coefficient", "l_attr": "A",
                 "r_attr": "B", "threshold": 0.5, "normalizer": None,
                 "shards": 3},
            ),
        ]
        for blocker, expected in cases:
            payload = serialize_blocker(blocker)
            # key order too: fingerprints hash the payload as written
            assert list(payload.items()) == list({**expected, **capped}.items())
            assert serialize_blocker(deserialize_blocker(payload)) == payload


class TestRetiredBlockerKinds:
    """The MinHash-LSH and SimHash blockers are gone; stored configs that
    name them fail with typed errors naming the kind."""

    PAYLOADS = {
        "minhash_lsh": {"kind": "minhash_lsh", "l_attr": "t", "r_attr": "t",
                        "threshold": 0.4, "bands": 16, "rows": 4, "seed": 9,
                        "normalizer": None},
        "simhash": {"kind": "simhash", "l_attr": "t", "r_attr": "t",
                    "max_hamming": 8, "seed": 3, "normalizer": None},
    }

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_deserialize_blocker_raises_workflow_error(self, kind):
        with pytest.raises(WorkflowError, match=kind):
            deserialize_blocker(dict(self.PAYLOADS[kind]))

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_packaged_workflow_raises_workflow_error(self, kind):
        package, *_ = TestPackagedWorkflow().build_package()
        payload = package.to_dict()
        payload["blockers"] = [dict(self.PAYLOADS[kind])]
        with pytest.raises(WorkflowError, match=kind):
            PackagedWorkflow.from_dict(payload)

    @pytest.mark.parametrize("kind", sorted(PAYLOADS))
    def test_create_blocker_raises_blocking_error(self, kind):
        with pytest.raises(BlockingError, match=kind):
            create_blocker(dict(self.PAYLOADS[kind]))


class TestPackagedWorkflow:
    def build_package(self):
        left = Table(
            {
                "id": [1, 2, 3, 4],
                "AwardNumber": ["10.200 W1", "10.300 W2", "10.400 W3", "10.500 W4"],
                "AwardTitle": ["a b c d", "e f g h", "a b c x", "p q r s"],
            },
            name="L",
        )
        right = Table(
            {
                "id": [10, 20, 30],
                "AwardNumber": ["W1", None, None],
                "AwardTitle": ["a b c d", "e f g h", "far away words"],
            },
            name="R",
        )
        features = generate_features(left, right, exclude_attrs=["id"])
        cs = full_cross_product(left, right, "id", "id")
        pairs = [(1, 10), (2, 20), (4, 30), (3, 20)]
        matrix = extract_feature_vectors(cs, features, pairs=pairs)
        matcher = MLMatcher(DecisionTreeClassifier(), "DT").fit(matrix, [1, 1, 0, 0])
        workflow = EMWorkflow(
            name="demo",
            positive_rules=[m1_rule()],
            blockers=[OverlapBlocker("AwardTitle", "AwardTitle", threshold=3,
                                     normalizer=normalize_title)],
            negative_rules=default_negative_rules(),
        )
        return PackagedWorkflow(workflow, matcher, features), left, right

    def test_roundtrip_produces_same_matches(self, tmp_path):
        package, left, right = self.build_package()
        direct = package.run(left, right, "id", "id")
        path = package.save(tmp_path / "workflow.json")
        loaded = PackagedWorkflow.load(path)
        replayed = loaded.run(left, right, "id", "id")
        assert replayed.matches == direct.matches
        assert replayed.flipped == direct.flipped
        assert len(replayed.sure_matches) == len(direct.sure_matches)

    def test_unfitted_matcher_rejected(self):
        package, *_ = self.build_package()
        package.matcher = package.matcher.clone()
        with pytest.raises(WorkflowError, match="after training"):
            package.to_dict()

    def test_unknown_format_rejected(self):
        with pytest.raises(WorkflowError, match="format"):
            PackagedWorkflow.from_dict({"format": "v0"})

    def test_packaged_casestudy_workflow(self, case_study, tmp_path):
        """The real thing: package the case study's final workflow and
        replay it on its own data slice with identical results."""
        from repro.casestudy.blocking_plan import make_blockers
        from repro.casestudy.workflows import positive_rules, train_workflow_matcher

        matcher = train_workflow_matcher(
            case_study.blocking_v2.candidates, case_study.labeling.labels,
            case_study.matching.feature_set, case_study.matching.matcher,
        )
        workflow = EMWorkflow(
            name="figure10",
            positive_rules=positive_rules(),
            blockers=make_blockers(),
            negative_rules=default_negative_rules(),
        )
        package = PackagedWorkflow(workflow, matcher, case_study.matching.feature_set)
        path = package.save(tmp_path / "figure10.json")
        loaded = PackagedWorkflow.load(path)
        tables = case_study.projected_v2
        direct = package.run(tables.umetrics, tables.usda, "RecordId", "RecordId")
        replayed = loaded.run(tables.umetrics, tables.usda, "RecordId", "RecordId")
        assert set(replayed.matches) == set(direct.matches)
