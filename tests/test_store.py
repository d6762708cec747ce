"""Tests for the content-addressed artifact store (repro.store)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.blocking import AttrEquivalenceBlocker, CandidateSet, OverlapBlocker
from repro.core import EMWorkflow
from repro.errors import StoreError, UncacheableError
from repro.features import extract_feature_vectors, generate_features
from repro.features.vectors import FeatureMatrix
from repro.labeling import Label, LabeledPairs
from repro.matchers import MLMatcher
from repro.ml import DecisionTreeClassifier
from repro.rules import ExactNumberRule
from repro.runtime import EngineSession
from repro.runtime.instrument import Instrumentation
from repro.store import (
    CANDIDATES,
    FEATURE_MATRIX,
    LABELS,
    MATCHER,
    PAIR_LIST,
    ArtifactStore,
    fingerprint_value,
)
from repro.table import Table


def make_tables():
    left = Table(
        {
            "id": [1, 2, 3, 4],
            "num": ["A1", "B2", None, "D4"],
            "title": ["x y z w", "p q r s", "x y z w", "m n o p"],
        },
        name="L",
    )
    right = Table(
        {
            "id": [10, 20, 30],
            "num": ["A1", None, "D4"],
            "title": ["x y z w", "p q r s", "far away words"],
        },
        name="R",
    )
    return left, right


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


class TestCodecs:
    def test_candidate_set_round_trip(self, store):
        left, right = make_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)], name="C")
        payload, sidecar = CANDIDATES.encode(cs)
        assert sidecar is None
        back = CANDIDATES.decode(payload, sidecar, ltable=left, rtable=right)
        assert back.pairs == cs.pairs
        assert back.name == "C"
        assert back.ltable is left and back.rtable is right

    def test_candidate_set_needs_tables(self):
        left, right = make_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10)])
        payload, _ = CANDIDATES.encode(cs)
        with pytest.raises(StoreError, match="context"):
            CANDIDATES.decode(payload, None)

    def test_feature_matrix_round_trip_exact_floats(self):
        values = np.array([[0.1 + 0.2, float("nan")], [1.0 / 3.0, -0.0]])
        matrix = FeatureMatrix(
            pairs=[(1, 10), (2, 20)], feature_names=["a", "b"], values=values
        )
        payload, sidecar = FEATURE_MATRIX.encode(matrix)
        back = FEATURE_MATRIX.decode(payload, sidecar)
        assert back.pairs == matrix.pairs
        assert back.feature_names == matrix.feature_names
        # byte-exact, including NaN positions and the sign of -0.0
        assert np.array_equal(back.values, values, equal_nan=True)
        assert back.values.tobytes() == values.tobytes()

    def test_empty_feature_matrix(self):
        matrix = FeatureMatrix(pairs=[], feature_names=["a"], values=np.empty((0, 1)))
        payload, sidecar = FEATURE_MATRIX.encode(matrix)
        back = FEATURE_MATRIX.decode(payload, sidecar)
        assert back.values.shape == (0, 1)

    def test_labeled_pairs_round_trip(self):
        labels = LabeledPairs(
            [((1, 10), Label.YES), ((2, 20), Label.NO), ((3, 30), Label.UNSURE)]
        )
        payload, sidecar = LABELS.encode(labels)
        back = LABELS.decode(payload, sidecar)
        assert list(back.items()) == list(labels.items())

    def test_matcher_round_trip_predicts_identically(self):
        left, right = make_tables()
        features = generate_features(left, right, exclude_attrs=["id"])
        cs = CandidateSet(
            left, right, "id", "id", [(1, 10), (2, 20), (3, 30), (4, 10)]
        )
        matrix = extract_feature_vectors(cs, features)
        matcher = MLMatcher(DecisionTreeClassifier(), "DT").fit(matrix, [1, 1, 0, 0])
        payload, _ = MATCHER.encode(matcher)
        json.dumps(payload)  # must be JSON-serializable as-is
        back = MATCHER.decode(payload, None)
        assert back.name == matcher.name
        assert back.predict_matches(matrix) == matcher.predict_matches(matrix)

    def test_unfitted_matcher_rejected(self):
        with pytest.raises(StoreError, match="fitted"):
            MATCHER.encode(MLMatcher(DecisionTreeClassifier(), "DT"))


class TestMemoize:
    def test_miss_then_hit(self, store):
        calls = []
        parts = {"x": fingerprint_value(1)}

        def compute():
            calls.append(1)
            return [(1, 2)]

        first = store.memoize("pairs", "demo", parts, compute, PAIR_LIST)
        second = store.memoize("pairs", "demo", parts, compute, PAIR_LIST)
        assert first == second == [(1, 2)]
        assert calls == [1]  # second call decoded from disk
        assert store.stats().hits == 1 and store.stats().misses == 1

    def test_changed_inputs_recompute_with_reason(self, store):
        store.memoize("pairs", "demo", {"x": "aaa"}, lambda: [(1, 2)], PAIR_LIST)
        store.memoize("pairs", "demo", {"x": "bbb"}, lambda: [(3, 4)], PAIR_LIST)
        miss_events = [e for e in store.events if e.status == "miss"]
        assert "first computation" in miss_events[0].reason
        # within one session the second "demo" call compares against the
        # previous session's "demo#2" slot, which doesn't exist yet
        assert len(miss_events) == 2

    def test_cross_session_miss_reason_names_changed_input(self, tmp_path):
        root = tmp_path / "store"
        s1 = ArtifactStore(root)
        s1.memoize("pairs", "demo", {"x": "aaa", "y": "ccc"}, lambda: [], PAIR_LIST)
        s2 = ArtifactStore(root)
        s2.memoize("pairs", "demo", {"x": "bbb", "y": "ccc"}, lambda: [], PAIR_LIST)
        (event,) = [e for e in s2.events if e.status == "miss"]
        assert "inputs changed: x" in event.reason
        assert "y" not in event.reason.split(":")[1].split("(")[0].replace("x", "")

    def test_hit_across_store_instances(self, tmp_path):
        root = tmp_path / "store"
        parts = {"x": fingerprint_value("stable")}
        ArtifactStore(root).memoize("pairs", "p", parts, lambda: [(9, 9)], PAIR_LIST)
        warm = ArtifactStore(root)
        got = warm.memoize(
            "pairs", "p", parts, lambda: pytest.fail("should not recompute"), PAIR_LIST
        )
        assert got == [(9, 9)]
        assert warm.stats().hits == 1 and warm.stats().misses == 0

    def test_instrumentation_counters(self, store):
        instr = Instrumentation()
        parts = {"x": "k"}
        store.memoize("pairs", "p", parts, lambda: [], PAIR_LIST,
                      instrumentation=instr)
        store.memoize("pairs", "p", parts, lambda: [], PAIR_LIST,
                      instrumentation=instr)
        store.bypass("q", "unregistered callable", instrumentation=instr)
        counters = instr.root.counters
        assert counters["store_misses"] == 1
        assert counters["store_hits"] == 1
        assert counters["store_bypasses"] == 1

    def test_eviction_lru(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_entries=2)
        for i in range(3):
            store.memoize("pairs", f"p{i}", {"x": str(i)}, lambda: [], PAIR_LIST)
        assert store.stats().evictions == 1
        assert len(store) == 2
        # the first artifact (least recently used) is gone -> recomputing it misses
        fresh = ArtifactStore(tmp_path / "store", max_entries=2)
        fresh.memoize("pairs", "p0", {"x": "0"}, lambda: [], PAIR_LIST)
        (event,) = [e for e in fresh.events if e.status == "miss"]
        assert "evicted" in event.reason

    def test_bad_kind_rejected(self, store):
        with pytest.raises(StoreError, match="kind"):
            store.memoize("../escape", "p", {}, lambda: [], PAIR_LIST)

    def test_bad_max_entries_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            ArtifactStore(tmp_path / "s", max_entries=0)

    def test_explain_lists_events(self, store):
        store.memoize("pairs", "stage_a", {"x": "1"}, lambda: [], PAIR_LIST)
        store.memoize("pairs", "stage_a", {"x": "1"}, lambda: [], PAIR_LIST)
        store.bypass("stage_b", "no fingerprint for <lambda>")
        text = store.explain(title="patch replay")
        assert "patch replay" in text
        assert "MISS" in text and "HIT" in text and "BYPASS" in text
        assert "stage_a" in text and "stage_b" in text
        assert "1 hits / 1 misses / 1 bypasses" in text

    def test_clear_removes_artifacts(self, store):
        store.memoize("pairs", "p", {"x": "1"}, lambda: [(1, 2)], PAIR_LIST)
        store.clear()
        assert len(store) == 0
        fresh = ArtifactStore(store.root)
        fresh.memoize("pairs", "p", {"x": "1"}, lambda: [(1, 2)], PAIR_LIST)
        (event,) = [e for e in fresh.events if e.status == "miss"]
        assert "evicted" in event.reason


class TestStageWrappers:
    def workflow(self):
        return EMWorkflow(
            name="wf",
            positive_rules=[ExactNumberRule("M1", "num", "num")],
            blockers=[OverlapBlocker("title", "title", threshold=3)],
        )

    def trained(self, left, right, features):
        cs = CandidateSet(
            left, right, "id", "id", [(1, 10), (2, 20), (3, 30), (4, 10)]
        )
        matrix = extract_feature_vectors(cs, features)
        return MLMatcher(DecisionTreeClassifier(), "DT").fit(matrix, [1, 1, 0, 0])

    def test_workflow_with_store_matches_storeless(self, store):
        left, right = make_tables()
        features = generate_features(left, right, exclude_attrs=["id"])
        matcher = self.trained(left, right, features)
        wf = self.workflow()
        plain = wf.run(left, right, "id", "id", matcher, features)
        stored = wf.run(
            left, right, "id", "id", matcher, features,
            session=EngineSession(store=store),
        )
        assert stored.matches == plain.matches
        assert stored.predicted_matches == plain.predicted_matches
        assert stored.blocked.pairs == plain.blocked.pairs
        assert store.stats().misses > 0 and store.stats().hits == 0

    def test_second_run_all_hits(self, tmp_path):
        left, right = make_tables()
        features = generate_features(left, right, exclude_attrs=["id"])
        matcher = self.trained(left, right, features)
        wf = self.workflow()
        cold_store = ArtifactStore(tmp_path / "store")
        cold = wf.run(
            left, right, "id", "id", matcher, features,
            session=EngineSession(store=cold_store),
        )
        warm_store = ArtifactStore(tmp_path / "store")
        warm = wf.run(
            left, right, "id", "id", matcher, features,
            session=EngineSession(store=warm_store),
        )
        assert warm.matches == cold.matches
        assert warm_store.stats().misses == 0
        assert warm_store.stats().hits == cold_store.stats().misses

    def test_cell_edit_invalidates_blocking(self, tmp_path):
        left, right = make_tables()
        wf = EMWorkflow(
            name="wf", blockers=[OverlapBlocker("title", "title", threshold=3)]
        )
        s1 = ArtifactStore(tmp_path / "store")
        wf.build_candidates(left, right, "id", "id", session=EngineSession(store=s1))
        edited = Table(
            {**{c: left[c] for c in left.columns},
             "title": ["x y z w", "p q r s", "x y z w", "m n o CHANGED"]},
            name="L",
        )
        s2 = ArtifactStore(tmp_path / "store")
        wf.build_candidates(edited, right, "id", "id", session=EngineSession(store=s2))
        assert s2.stats().misses >= 1
        miss = [e for e in s2.events if e.status == "miss"][0]
        assert "ltable" in miss.reason

    def test_unregistered_callable_bypasses(self, store):
        left, right = make_tables()
        blocker = AttrEquivalenceBlocker(
            "num", "num", l_preprocess=lambda v: str(v).lower()
        )
        plain = blocker.block_tables(left, right, "id", "id")
        cached = blocker.block_tables(
            left, right, "id", "id", session=EngineSession(store=store)
        )
        assert cached.pairs == plain.pairs
        assert store.stats().bypasses == 1 and store.stats().misses == 0
        (event,) = store.events
        assert event.status == "bypass"

    def test_uncacheable_error_is_store_error(self):
        assert issubclass(UncacheableError, StoreError)
