"""Tests for the content-addressed artifact store (repro.store)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import AttrEquivalenceBlocker, CandidateSet, OverlapBlocker
from repro.core import EMWorkflow
from repro.core.serialize import serialize_model
from repro.errors import StoreError, UncacheableError
from repro.features import extract_feature_vectors, generate_features
from repro.features.vectors import FeatureMatrix
from repro.labeling import Label, LabeledPairs
from repro.matchers import MLMatcher
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.ml.impute import MeanImputer
from repro.rules import ExactNumberRule
from repro.runtime import EngineSession
from repro.runtime.instrument import Instrumentation
from repro.store import (
    CANDIDATES,
    FEATURE_MATRIX,
    LABELS,
    MATCHER,
    PAIR_LIST,
    CODE_SALT,
    ArtifactStore,
    fingerprint_blocker,
    fingerprint_matcher,
    fingerprint_matrix,
    fingerprint_positive_rules,
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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(allow_subnormal=True), min_size=d, max_size=d),
                max_size=8,
            ).map(lambda rows: (d, rows))
        )
    )
    def test_feature_matrix_decode_is_bit_exact(self, shaped):
        width, rows = shaped
        values = np.array(rows, dtype=float).reshape(len(rows), width)
        matrix = FeatureMatrix(
            pairs=[(i, i) for i in range(len(rows))],
            feature_names=[f"f{j}" for j in range(width)],
            values=values,
        )
        payload, sidecar = FEATURE_MATRIX.encode(matrix)
        back = FEATURE_MATRIX.decode(payload, sidecar).values
        expected = np.array(
            [float(repr(float(v))) for v in values.flat], dtype=float
        ).reshape(values.shape)
        assert back.shape == values.shape
        assert back.tobytes() == expected.tobytes()

    def test_feature_matrix_decode_special_values(self):
        values = np.array(
            [[float("nan"), float("inf"), -float("inf")], [-0.0, 5e-324, 2.2250738585072014e-308]]
        )
        matrix = FeatureMatrix(pairs=[(1, 1), (2, 2)], feature_names=["a", "b", "c"], values=values)
        back = FEATURE_MATRIX.decode(*FEATURE_MATRIX.encode(matrix)).values
        assert back.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "sidecar",
        [
            "1.0,2.0\n3.0",  # ragged rows
            "1.0,2.0\n3.0,oops",  # a cell that is not a float
            "1.0,2.0\n3.0,",  # an empty cell
            "1.0,2.0,3.0\n4.0,5.0,6.0",  # more features than names
            "1.0,2.0",  # fewer rows than pairs
            "1.0,2.0#3.0\n3.0,4.0",  # no comment syntax
        ],
    )
    def test_malformed_feature_matrix_sidecar_raises(self, sidecar):
        payload = {"pairs": [[1, 1], [2, 2]], "feature_names": ["a", "b"]}
        with pytest.raises(ValueError):
            FEATURE_MATRIX.decode(payload, sidecar)

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


# ----------------------------------------------------------------------
# memoised and carried fingerprints
# ----------------------------------------------------------------------
def scratch_matrix_fingerprint(matrix) -> str:
    """``fingerprint_matrix`` without a carried fingerprint: walk it all."""
    return fingerprint_value(
        {
            "pairs": [list(p) for p in matrix.pairs],
            "features": list(matrix.feature_names),
            "values": matrix.values,
        }
    )


def scratch_matcher_fingerprint(matcher) -> str:
    """``fingerprint_matcher`` without the model memo: serialise it all."""
    return fingerprint_value(
        {
            "name": matcher.name,
            "model": serialize_model(matcher.model),
            "imputer_means": [float(v) for v in matcher._imputer._means],
            "features": list(matcher._feature_names or []),
        }
    )


def scratch_pairs_fingerprint(pairs) -> str:
    """``fingerprint_pairs`` through the generic walk."""
    return fingerprint_value([list(p) for p in pairs])


def scratch_positions_fingerprint(l_ids, r_ids, l_pos, r_pos) -> str:
    """``fingerprint_positions`` through one tuple per pair and the generic walk."""
    return scratch_pairs_fingerprint(
        [(l_ids[i], r_ids[j]) for i, j in zip(l_pos, r_pos)]
    )


def small_matrix(seed: int, n: int = 40) -> FeatureMatrix:
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        pairs=[(i, f"r{i}") for i in range(n)],
        feature_names=["a", "b", "c"],
        values=rng.uniform(size=(n, 3)),
    )


class TestStoreKeysPinned:
    """The Section-7 plan's component keys, literally. Every stored
    blocking and sure-match artifact is keyed by these, so a change in
    how blockers or rule extractors are named orphans the store."""

    def test_section7_component_keys(self):
        from repro.casestudy.blocking_plan import make_blockers
        from repro.casestudy.workflows import positive_rules

        assert CODE_SALT == "repro-store/5"
        assert [fingerprint_blocker(b) for b in make_blockers()] == [
            "c5d991b133653db6d807167e2e353841c847d03cbf72977a61f651f218d92c87",
            "7217dcaadfd04eb849a0a0377c95e477b9f9c71ba5524ff07847bbf7c65de594",
            "0d3341b96e8230fdbb0fc0be2cdcbebae1c14fc349de570d8812de3cbc5f376b",
        ]
        assert fingerprint_positive_rules(positive_rules()) == (
            "637f2d2af972fbe130e7b7852be59b48758b6c000d439bc47d82dc71ee706680"
        )


MODELS = [
    lambda: DecisionTreeClassifier(min_samples_leaf=2),
    lambda: RandomForestClassifier(n_trees=3, seed=4),
]


class TestMatcherFingerprintMemo:
    @pytest.mark.parametrize("make_model", MODELS)
    def test_memo_matches_scratch(self, make_model):
        matrix = small_matrix(0)
        matcher = MLMatcher(make_model(), "M").fit(
            matrix, (matrix.values[:, 0] > 0.5).astype(int)
        )
        first = fingerprint_matcher(matcher)
        assert matcher.model._canonical is not None
        assert fingerprint_matcher(matcher) == first
        assert first == scratch_matcher_fingerprint(matcher)

    @pytest.mark.parametrize("make_model", MODELS)
    def test_refit_gets_new_fingerprint(self, make_model):
        matrix = small_matrix(0)
        matcher = MLMatcher(make_model(), "M")
        matcher.fit(matrix, (matrix.values[:, 0] > 0.5).astype(int))
        before = fingerprint_matcher(matcher)
        matcher.fit(matrix, (matrix.values[:, 1] > 0.5).astype(int))
        after = fingerprint_matcher(matcher)
        assert after != before
        assert after == scratch_matcher_fingerprint(matcher)

    @pytest.mark.parametrize("make_model", MODELS)
    def test_clone_carries_no_memo(self, make_model):
        matrix = small_matrix(0)
        matcher = MLMatcher(make_model(), "M").fit(
            matrix, (matrix.values[:, 0] > 0.5).astype(int)
        )
        fingerprint_matcher(matcher)
        assert matcher.model._canonical is not None
        assert matcher.clone().model._canonical is None
        assert matcher.model.clone()._canonical is None

    @pytest.mark.parametrize("make_model", MODELS)
    def test_decoded_matcher_fingerprints_like_original(self, make_model):
        matrix = small_matrix(0)
        matcher = MLMatcher(make_model(), "M").fit(
            matrix, (matrix.values[:, 0] > 0.5).astype(int)
        )
        original = fingerprint_matcher(matcher)
        back = MATCHER.decode(*MATCHER.encode(matcher))
        assert back.model._canonical is None
        assert fingerprint_matcher(back) == original

    def test_swapped_imputer_is_never_stale(self):
        matrix = small_matrix(0)
        matcher = MLMatcher(DecisionTreeClassifier(), "M").fit(
            matrix, (matrix.values[:, 0] > 0.5).astype(int)
        )
        before = fingerprint_matcher(matcher)
        imputer = MeanImputer()
        imputer._means = matcher._imputer._means + 1.0
        matcher._imputer = imputer
        assert fingerprint_matcher(matcher) != before
        assert fingerprint_matcher(matcher) == scratch_matcher_fingerprint(matcher)


class TestMatrixFingerprintCarry:
    def test_codec_carries_fingerprint_both_ways(self):
        matrix = small_matrix(1)
        expected = scratch_matrix_fingerprint(matrix)
        payload, sidecar = FEATURE_MATRIX.encode(matrix)
        assert payload["fingerprint"] == expected
        assert matrix._fingerprint == expected
        back = FEATURE_MATRIX.decode(payload, sidecar)
        assert back._fingerprint == expected
        assert fingerprint_matrix(back) == expected

    def test_payload_without_fingerprint_still_decodes(self):
        matrix = small_matrix(2)
        payload, sidecar = FEATURE_MATRIX.encode(matrix)
        del payload["fingerprint"]
        back = FEATURE_MATRIX.decode(payload, sidecar)
        assert back._fingerprint is None
        assert fingerprint_matrix(back) == scratch_matrix_fingerprint(matrix)

    def test_derived_matrices_start_without_fingerprint(self):
        matrix = small_matrix(3)
        FEATURE_MATRIX.encode(matrix)
        subset = matrix.select_rows([0, 2])
        assert subset._fingerprint is None
        assert fingerprint_matrix(subset) == scratch_matrix_fingerprint(subset)


def _capture_store_ops(monkeypatch) -> list:
    """Record every cacheable operator a session sends to its store."""
    ops = []
    original = EngineSession._stage_result

    def spy(self, op):
        if self.store is not None and op.cache_kind is not None:
            ops.append(op)
        return original(self, op)

    monkeypatch.setattr(EngineSession, "_stage_result", spy)
    return ops


def test_figure10_replay_keys_equal_scratch_keys(case_study, tmp_path, monkeypatch):
    """Each stage of a warm Figure-10 replay looks up the key that the
    memo-free, carry-free fingerprints give."""
    from repro.casestudy import run_combined_workflow, train_workflow_matcher
    from repro.store import stages

    matcher = train_workflow_matcher(
        case_study.blocking_v2.candidates, case_study.labeling.labels,
        case_study.matching.feature_set, case_study.matching.matcher,
    )
    args = (case_study.projected_v2, case_study.projected_extra,
            case_study.labeling.labels, case_study.matching.feature_set, matcher)
    store = ArtifactStore(tmp_path / "store")
    with EngineSession(store=store) as session:
        cold = run_combined_workflow(*args, with_negative_rules=True, session=session)
    ops = _capture_store_ops(monkeypatch)
    n_cold = len(store.events)
    with EngineSession(store=store) as session:
        warm = run_combined_workflow(*args, with_negative_rules=True, session=session)
    assert warm.matches == cold.matches
    replay = store.events[n_cold:]
    assert len(replay) == len(ops) == n_cold
    assert {e.status for e in replay} == {"hit"}
    predicts = [op for op in ops if isinstance(op, stages.PredictStage)]
    assert predicts and all(op.matrix._fingerprint is not None for op in predicts)
    assert matcher.model._canonical is not None

    monkeypatch.setattr(stages, "fingerprint_matrix", scratch_matrix_fingerprint)
    monkeypatch.setattr(stages, "fingerprint_matcher", scratch_matcher_fingerprint)
    monkeypatch.setattr(stages, "fingerprint_pairs", scratch_pairs_fingerprint)
    monkeypatch.setattr(stages, "fingerprint_positions", scratch_positions_fingerprint)
    for op, event in zip(ops, replay):
        assert event.label.startswith(op.label())
        assert store.digest(op.fingerprint()) == event.digest, event.label


# ----------------------------------------------------------------------
# the write policy: hits defer, flush() writes once and ends the run
# ----------------------------------------------------------------------
def _count_state_writes(monkeypatch) -> dict:
    writes = {"manifest.json": 0, "index.json": 0}
    original = os.replace

    def spy(src, dst, *args, **kwargs):
        name = os.path.basename(os.fspath(dst))
        if name in writes:
            writes[name] += 1
        return original(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "replace", spy)
    return writes


class TestWritePolicy:
    def test_warm_hits_write_state_once_per_session(self, tmp_path, monkeypatch):
        root = tmp_path / "store"
        labels = [f"stage{i}" for i in range(6)]
        with EngineSession(store=ArtifactStore(root)) as session:
            for label in labels:
                session.store.memoize(
                    "pairs", label, {"x": label}, lambda: [(1, 2)], PAIR_LIST
                )
        writes = _count_state_writes(monkeypatch)
        store = ArtifactStore(root)
        with EngineSession(store=store) as session:
            for _ in range(3):  # N = 18 warm hits in one session
                for label in labels:
                    store.memoize(
                        "pairs", label, {"x": label},
                        lambda: pytest.fail("warm hit recomputed"), PAIR_LIST,
                    )
            assert store.stats().hits == 18
            assert writes == {"manifest.json": 0, "index.json": 0}
        assert writes == {"manifest.json": 1, "index.json": 1}
        # the deferred state reached disk: the LRU order survives a reopen
        index = json.loads((root / "index.json").read_text())
        assert index["seq"] == 6 + 18

    def test_misses_write_at_once_and_atomically(self, store, monkeypatch):
        writes = _count_state_writes(monkeypatch)
        store.memoize("pairs", "p", {"x": "1"}, lambda: [(1, 2)], PAIR_LIST)
        assert writes == {"manifest.json": 1, "index.json": 1}
        store.flush()  # nothing deferred: no second write
        assert writes == {"manifest.json": 1, "index.json": 1}
        assert not list(store.root.glob(".*.tmp"))
        # the replacement keeps the permissions a plain write would give
        plain = store.root / "plain.txt"
        plain.write_text("x")
        for name in ("manifest.json", "index.json"):
            assert (store.root / name).stat().st_mode == plain.stat().st_mode

    def test_flush_restarts_label_sequence(self, store):
        for _ in range(2):
            store.memoize("pairs", "demo", {"x": "1"}, lambda: [], PAIR_LIST)
        store.flush()
        store.memoize("pairs", "demo", {"x": "1"}, lambda: [], PAIR_LIST)
        assert [e.label for e in store.events] == ["demo", "demo#2", "demo"]

    def test_sessions_in_a_row_reuse_labels(self, tmp_path):
        left, right = make_tables()
        features = generate_features(left, right, exclude_attrs=["id"])
        matcher = TestStageWrappers().trained(left, right, features)
        wf = TestStageWrappers().workflow()
        store = ArtifactStore(tmp_path / "store")
        runs = []
        for _ in range(3):
            seen = len(store.events)
            with EngineSession(store=store) as session:
                wf.run(left, right, "id", "id", matcher, features, session=session)
            runs.append([e.label for e in store.events[seen:]])
        assert runs[0] == runs[1] == runs[2]
        manifest = json.loads((store.root / "manifest.json").read_text())
        assert set(manifest) == set(runs[0])
