"""MatchService tests: serving semantics, faults, metrics, statefulness.

Covers the serving loop of :mod:`repro.serving`: bootstrap equivalence
with the batch workflow, patch/delete bookkeeping (retired pairs),
``match()`` ranking and lineage, typed configuration errors, the
mid-patch fault regression (a raising matcher must leave the posting
indexes uncommitted, the session pool alive and the trace well-formed —
mirroring ``tests/test_session.py``), a hypothesis stateful machine
driving the service end to end against a rebuilt-from-scratch reference,
and what a long-lived service's token cache retains.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.blocking import (
    AttrEquivalenceBlocker,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    RuleBasedBlocker,
)
from repro.casestudy.workflows import train_workflow_matcher
from repro.core import EMWorkflow
from repro.errors import IncrementalBlockingError, ServingError
from repro.matchers import MLMatcher
from repro.ml import DecisionTreeClassifier
from repro.obs.trace import load_trace
from repro.plan import figure10_spec
from repro.runtime import TokenCache
from repro.runtime.context import EngineSession, current_session
from repro.serving import MatchService
from repro.table import Table

from .helpers_serving import rows_table, serving_world

SERVE_COLUMNS = ("id", "num", "t")


def empty_left() -> Table:
    return Table({"id": [], "num": [], "t": []}, name="L0")


def build_service(ltable=None, *, matcher=None, blockers=None, session=None):
    left, right, features, trained, positive, negative, default_blockers = (
        serving_world()
    )
    return MatchService(
        left if ltable is None else ltable, right, "id", "id",
        matcher=trained if matcher is None else matcher,
        feature_set=features,
        blockers=default_blockers if blockers is None else blockers,
        positive_rules=positive, negative_rules=negative,
        session=session,
    )


class TestConstruction:
    def test_unfitted_matcher_rejected(self):
        unfitted = MLMatcher(DecisionTreeClassifier(), "DT")
        with pytest.raises(ServingError, match="trained matcher"):
            build_service(matcher=unfitted)

    def test_empty_recipe_rejected(self):
        left, right, features, matcher, *_ = serving_world()
        with pytest.raises(ServingError, match="no blockers"):
            MatchService(
                left, right, "id", "id",
                matcher=matcher, feature_set=features, blockers=[],
            )

    def test_non_incremental_blocker_rejected(self):
        # the typed blocking error propagates — never a silent full re-block
        with pytest.raises(IncrementalBlockingError, match="does not support"):
            build_service(blockers=[RuleBasedBlocker(lambda l, r: True)])

    def test_upsert_missing_key_rejected(self):
        service = build_service(empty_left())
        with pytest.raises(ServingError, match="missing the key column"):
            service.apply_patch(upserts=[{"num": "A1", "t": "x"}])

    def test_match_missing_key_rejected(self):
        service = build_service(empty_left())
        with pytest.raises(ServingError, match="missing the key column"):
            service.match({"num": "A1", "t": "x"})


class TestPatchSemantics:
    def test_bootstrap_patch_equals_batch_workflow(self):
        left, right, features, matcher, positive, negative, blockers = (
            serving_world()
        )
        workflow = EMWorkflow(
            name="serve", positive_rules=positive, blockers=blockers,
            negative_rules=negative,
        )
        reference = workflow.run(left, right, "id", "id", matcher, features)
        service = build_service(empty_left())
        result = service.apply_patch(upserts=left)
        assert result.upserted == tuple(left["id"])
        assert result.sure_matches == tuple(reference.sure_matches.pairs)
        assert result.candidates == tuple(reference.blocked.pairs)
        assert result.to_predict == tuple(reference.to_predict.pairs)
        assert result.predicted_matches == reference.predicted_matches
        assert result.flipped == reference.flipped
        assert result.matches == reference.matches
        assert set(service.current_matches()) == set(reference.matches)

    def test_delete_retires_matches(self):
        service = build_service()
        before = set(service.current_matches())
        assert (1, 10) in before  # the eq-rule sure match
        result = service.apply_patch(deletes=[1])
        assert result.deleted == (1,)
        assert result.matches == ()
        assert (1, 10) in result.retired
        assert set(service.current_matches()) == before - set(result.retired)
        assert 1 not in service.live_ids()

    def test_replacement_retires_old_pairs(self):
        service = build_service()
        replaced = {"id": 1, "num": None, "t": "far away words"}
        result = service.apply_patch(upserts=[replaced])
        assert result.deleted == ()
        assert (1, 10) in result.retired  # the old row's sure match
        assert (1, 10) not in service.current_matches()
        # converged: equal to a fresh service over the mutated table
        mutated = [
            replaced if lid == 1 else service._rows[lid]
            for lid in service.live_ids()
        ]
        fresh = build_service(rows_table(mutated, columns=SERVE_COLUMNS))
        assert set(service.current_matches()) == set(fresh.current_matches())
        assert service.blocking_state() == fresh.blocking_state()

    def test_negative_rule_flip_recorded(self):
        service = build_service()
        row = {"id": 9, "num": "WIS00001", "t": "a b c d"}
        result = service.apply_patch(upserts=[row])
        assert ((9, 50), "wis") in result.flipped
        assert (9, 50) in result.predicted_matches
        assert (9, 50) not in result.matches
        assert ((9, 50), "wis") in service.current_flips()


class TestMatch:
    def test_ranks_sure_first_with_lineage(self):
        service = build_service()
        response = service.match({"id": 9, "num": "A1", "t": "x y z w"})
        assert response.record_id == 9
        top = response.candidates[0]
        assert top.pair == (9, 10)
        assert top.sure_rule == "eq" and top.score is None and top.is_match
        scored = [c for c in response.candidates if c.sure_rule is None]
        assert scored, "blocking must contribute non-sure candidates"
        for candidate in scored:
            assert candidate.blockers and candidate.score is not None
        assert (9, 10) in response.matches
        assert service.match(
            {"id": 9, "num": "A1", "t": "x y z w"}, top_k=1
        ).candidates == (top,)

    def test_match_is_read_only_and_deterministic(self):
        service = build_service()
        before = service.blocking_state()
        row = {"id": 9, "num": "WIS00001", "t": "a b c d"}
        first = service.match(row)
        second = service.match(row)
        assert service.blocking_state() == before
        assert 9 not in service.live_ids()
        key = lambda c: (c.pair, c.score, c.sure_rule, c.blockers,
                         c.flipped_by, c.is_match)
        assert list(map(key, first.candidates)) == list(
            map(key, second.candidates)
        )
        flipped = next(c for c in first.candidates if c.pair == (9, 50))
        assert flipped.flipped_by == "wis" and not flipped.is_match

    def test_match_scores_candidates_in_one_model_pass(self, monkeypatch):
        service = build_service()
        model = service.matcher.model
        calls = []
        original = model.predict_proba

        def counting(X):
            calls.append(len(X))
            return original(X)

        monkeypatch.setattr(model, "predict_proba", counting)
        response = service.match({"id": 9, "num": "WIS00001", "t": "a b c d"})
        scored = [c for c in response.candidates if c.sure_rule is None]
        assert calls == [len(scored)]
        for candidate in scored:
            predicted = candidate.score >= 0.5
            assert candidate.is_match == (predicted and candidate.flipped_by is None)


class TestMetrics:
    def test_serving_metrics_recorded(self):
        service = build_service()
        service.match({"id": 9, "num": None, "t": "x y z w"})
        metrics = service.metrics
        assert metrics.counter("serve:patch_calls").value == 1  # bootstrap
        assert metrics.counter("serve:patch_upserts").value == 4
        assert metrics.counter("serve:match_calls").value == 1
        for name in ("serve:match_seconds", "serve:patch_seconds"):
            snapshot = metrics.histogram(name).snapshot()
            assert snapshot["count"] >= 1
            assert snapshot["p50"] is not None and snapshot["p95"] is not None

    def test_session_registry_is_shared(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with EngineSession(metrics=registry) as session:
            service = build_service(session=session)
            assert service.metrics is registry
        assert registry.counter("serve:patch_calls").value == 1


class _BoomMatcher:
    """Wraps a trained matcher; raises on predict while armed."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.armed = False

    @property
    def is_fitted(self):
        return self._inner.is_fitted

    def predict_matches(self, matrix):
        if self.armed:
            raise RuntimeError("matcher exploded")
        return self._inner.predict_matches(matrix)

    def predict_proba(self, matrix):
        return self._inner.predict_proba(matrix)


def test_raising_patch_leaves_service_uncorrupted(tmp_path):
    """Satellite regression: a matcher raising mid-patch must leave the
    posting indexes uncommitted, the session open and the trace
    well-formed — and the next call must serve correct results."""
    left, right, features, matcher, positive, negative, blockers = (
        serving_world()
    )
    boom = _BoomMatcher(matcher)
    trace_path = tmp_path / "trace.jsonl"
    session = EngineSession(trace_path=trace_path)
    probe = {"id": 9, "num": None, "t": "x y z q"}
    with session:
        service = MatchService(
            left, right, "id", "id",
            matcher=boom, feature_set=features, blockers=blockers,
            positive_rules=positive, negative_rules=negative, session=session,
        )
        before_ids = service.live_ids()
        before_matches = service.current_matches()
        before_state = service.blocking_state()
        boom.armed = True
        with pytest.raises(RuntimeError, match="matcher exploded"):
            service.apply_patch(upserts=[probe])
        boom.armed = False
        # nothing committed: indexes and bookkeeping as before the call
        assert service.live_ids() == before_ids
        assert service.current_matches() == before_matches
        assert service.blocking_state() == before_state
        # the fault did not unwind the session: it is still the ambient one
        assert current_session() is session
        # the next calls serve correct results on the uncorrupted state
        retry = service.apply_patch(upserts=[probe])
        fresh = build_service(
            rows_table(left.to_rows() + [probe], columns=SERVE_COLUMNS)
        )
        assert set(service.current_matches()) == set(fresh.current_matches())
        assert service.blocking_state() == fresh.blocking_state()
        assert retry.upserted == (9,)
        assert service.match(probe).record_id == 9
    root = load_trace(trace_path)  # writer closed; partial events parse
    assert root.find("predict") is not None


SERVE_ROWS = st.builds(
    lambda i, n, t: {"id": i, "num": n, "t": t},
    st.integers(min_value=1, max_value=8),
    st.one_of(st.none(), st.sampled_from(["A1", "B2", "WIS00001"])),
    st.sampled_from(
        ["x y z w", "p q r s", "x y z q", "m n o p", "a b c d", ""]
    ),
)
SERVE_BATCHES = st.lists(SERVE_ROWS, max_size=3, unique_by=lambda r: r["id"])


class ServiceConvergence(RuleBasedStateMachine):
    """Drive a MatchService end to end: after every step it must equal a
    fresh service rebuilt from scratch over the live rows."""

    def __init__(self):
        super().__init__()
        self.service = build_service(empty_left())
        self.model: dict[int, dict] = {}

    @rule(batch=SERVE_BATCHES)
    def upsert(self, batch):
        result = self.service.apply_patch(upserts=batch)
        assert result.upserted == tuple(row["id"] for row in batch)
        for row in batch:
            self.model.pop(row["id"], None)
            self.model[row["id"]] = row

    @rule(ids=st.lists(st.integers(min_value=1, max_value=8), max_size=3,
                       unique=True))
    def delete(self, ids):
        result = self.service.apply_patch(deletes=ids)
        assert set(result.deleted) == set(ids) & set(self.model)
        for lid in ids:
            self.model.pop(lid, None)

    @rule(row=SERVE_ROWS)
    def probe(self, row):
        key = lambda c: (c.pair, c.score, c.sure_rule, c.blockers,
                         c.flipped_by, c.is_match)
        first = self.service.match(row)
        second = self.service.match(row)
        assert list(map(key, first.candidates)) == list(
            map(key, second.candidates)
        )

    @invariant()
    def equals_fresh_service(self):
        fresh = build_service(
            rows_table(list(self.model.values()), columns=SERVE_COLUMNS)
        )
        assert self.service.live_ids() == tuple(self.model)
        assert set(self.service.current_matches()) == set(
            fresh.current_matches()
        )
        assert set(self.service.current_flips()) == set(fresh.current_flips())
        assert self.service.blocking_state() == fresh.blocking_state()


ServiceConvergence.TestCase.settings = settings(
    max_examples=10, stateful_step_count=8, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestServiceConvergence = ServiceConvergence.TestCase


def _wide_blockers():
    """Every incremental blocker over the serving world's columns."""
    return [
        AttrEquivalenceBlocker("num", "num"),
        OverlapBlocker("t", "t", threshold=2),
        OverlapCoefficientBlocker("t", "t", threshold=0.6),
    ]


class TestReadPathAgainstWritePath:
    """``match()`` is checked against the patch path, and its per-request
    cost against the right table's size."""

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(row=SERVE_ROWS, wide=st.booleans())
    def test_match_verdicts_equal_a_one_record_patch(self, row, wide):
        blockers = _wide_blockers if wide else (lambda: None)
        response = build_service(blockers=blockers()).match(row)
        patch = build_service(blockers=blockers()).apply_patch(upserts=[row])
        assert len(set(response.matches)) == len(response.matches)
        assert set(response.matches) == set(patch.matches)
        assert {c.pair for c in response.candidates} == set(patch.candidates)

    def test_match_does_no_right_table_work(self, monkeypatch):
        import sys

        from repro.blocking import candidate_set
        from repro.rules import positive
        from repro.table import catalog

        service = build_service(blockers=_wide_blockers())
        rtable_keys = service.rtable[service.r_key]
        validated, keyed, indexed = [], [], []

        def spy_validate(table, column):
            validated.append(table is service.rtable)
            return original_validate(table, column)

        def spy_row_index(keys):
            keyed.append(keys is rtable_keys)
            return original_row_index(keys)

        def spy_right_index(rule, rtable, r_key):
            indexed.append(rule.name)
            return original_right_index(rule, rtable, r_key)

        original_validate = catalog.validate_key
        original_row_index = candidate_set.row_index
        original_right_index = positive.ExactNumberRule.right_index
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            if getattr(module, "validate_key", None) is original_validate:
                monkeypatch.setattr(module, "validate_key", spy_validate)
            if getattr(module, "row_index", None) is original_row_index:
                monkeypatch.setattr(module, "row_index", spy_row_index)
        monkeypatch.setattr(positive.ExactNumberRule, "right_index", spy_right_index)

        probes = [
            {"id": 9, "num": "A1", "t": "x y z w"},
            {"id": 9, "num": "WIS00001", "t": "a b c d"},
            {"id": 7, "num": None, "t": "p q r s"},
            {"id": 1, "num": "A1", "t": ""},
        ]
        for probe in probes:
            assert service.match(probe).candidates
        assert validated and not any(validated)
        assert keyed and not any(keyed)
        assert indexed == []


def test_token_sharing_map_holds_only_live_tables_columns(case_study):
    """A bootstrapped service and a pass of ``match()`` reads leave the
    token cache's equal-column map holding only columns of live tables:
    the bootstrap tables and every one-row probe table release theirs."""
    run = case_study
    tables, extra = run.projected_v2, run.projected_extra
    with EngineSession(token_cache=TokenCache()) as session:
        matcher = train_workflow_matcher(
            run.blocking_v2.candidates, run.labeling.labels,
            run.matching.feature_set, run.matching.matcher, session=session,
        )
        service = MatchService.from_plan(
            figure10_spec(), tables.umetrics, tables.usda,
            tables.l_key, tables.r_key, matcher=matcher,
            feature_set=run.matching.feature_set, session=session,
        )
        cache = session.token_cache

        def shared_columns():
            gc.collect()
            columns = [ref() for ref in cache._shared.values()]
            assert None not in columns
            held = {
                id(column)
                for per_table in cache._tables.values()
                for column in per_table.values()
            }
            assert {id(column) for column in columns} == held
            return len(columns)

        bootstrapped = shared_columns()
        misses = cache.misses
        for i in range(len(extra.umetrics)):
            service.match(extra.umetrics.row(i))
        assert cache.misses > misses  # the probes did tokenize
        assert shared_columns() == bootstrapped
