"""EngineSession lifecycle, scoping and resolution tests."""

from __future__ import annotations

import importlib.util
import multiprocessing
import threading
from pathlib import Path

import pytest

from repro.casestudy import run_combined_workflow, train_workflow_matcher
from repro.errors import UncacheableError
from repro.obs.trace import load_trace
from repro.runtime.context import (
    EngineSession,
    StageOperator,
    current_session,
    resolve_session,
)


class _BoomStage(StageOperator):
    trace_name = "boom"

    def label(self) -> str:
        return "boom"

    def compute(self, session):
        raise RuntimeError("stage exploded")


def _probe_child_session(value):
    """Runs inside a forked worker: the inherited session must not expose
    the parent's pool handle."""
    session = current_session()
    pool_is_hidden = session is None or session.worker_pool is None
    return (value, pool_is_hidden)


def test_raising_stage_closes_pool_and_flushes_trace(tmp_path):
    """Satellite regression: a mid-run exception must tear down the
    session-owned worker pool and leave a readable JSONL trace."""
    trace_path = tmp_path / "trace.jsonl"
    session = EngineSession(workers=2, trace_path=trace_path)
    with pytest.raises(RuntimeError, match="stage exploded"):
        with session:
            pool = session.worker_pool
            assert pool is not None and pool.active
            # Start the worker processes so there is something to leak.
            assert session.map_chunks(_probe_child_session, [(1,), (2,)])
            session.run_stage(_BoomStage())
    assert session.worker_pool is None  # owned pool released, none recreated
    assert pool._executor is None  # processes actually shut down
    root = load_trace(trace_path)  # writer closed; partial events parse
    assert root.find("boom") is not None


def test_close_is_idempotent(tmp_path):
    session = EngineSession(workers=2, trace_path=tmp_path / "t.jsonl")
    session.worker_pool
    session.close()
    session.close()
    assert session.worker_pool is None


def test_trace_path_and_instrumentation_are_exclusive(tmp_path):
    from repro.runtime.instrument import Instrumentation

    with pytest.raises(ValueError):
        EngineSession(
            trace_path=tmp_path / "t.jsonl", instrumentation=Instrumentation()
        )


def test_current_session_is_thread_local():
    seen: dict[str, object] = {}

    def worker():
        seen["before"] = current_session()
        with EngineSession(workers=1) as inner:
            seen["inside"] = current_session() is inner
        seen["after"] = current_session()

    with EngineSession(workers=1) as outer:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert current_session() is outer
    assert seen["before"] is None  # the outer session never leaked across
    assert seen["inside"] is True
    assert seen["after"] is None


def test_nested_sessions_override_and_restore():
    assert current_session() is None
    with EngineSession(workers=1) as outer:
        assert current_session() is outer
        with EngineSession(workers=1) as inner:
            assert current_session() is inner
        assert current_session() is outer
    assert current_session() is None


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_fork_children_never_see_the_parent_pool():
    """A forked worker inherits the ambient session object; its PID guard
    must hide the parent's pool handle (no nested pools in children)."""
    with EngineSession(workers=2) as session:
        results = session.map_chunks(_probe_child_session, [(1,), (2,), (3,)])
    assert sorted(v for v, _ in results) == [1, 2, 3]
    assert all(hidden for _, hidden in results)


def test_resolve_session_explicit_then_ambient_then_default():
    explicit = EngineSession(workers=3)
    with EngineSession(workers=2, provenance=True) as ambient:
        assert resolve_session(None) is ambient
        assert resolve_session(explicit) is explicit  # explicit wins
    default = resolve_session(None)
    assert default is not ambient and default.workers == 1
    assert default.store is None and default.instrumentation is None
    assert default.worker_pool is None


def test_run_stage_counters_and_uncacheable_bypass(tmp_path):
    from repro.store import ArtifactStore

    class Stage(StageOperator):
        cache_kind = "pairs"
        codec = object()  # never reached: fingerprint always raises

        def label(self):
            return "unfingerprintable"

        def fingerprint(self):
            raise UncacheableError("no stable fingerprint")

        def compute(self, session):
            return [1, 2, 3]

        def counters(self, result):
            return {"pairs_out": len(result)}

    store = ArtifactStore(tmp_path / "store")
    from repro.obs.trace import TracingInstrumentation

    with EngineSession(store=store, instrumentation=TracingInstrumentation()) as s:
        assert s.run_stage(Stage()) == [1, 2, 3]
    assert store.bypasses == 1 and store.misses == 0


def test_session_figure10_parity_with_legacy_kwargs(case_study):
    """The Figure-10 run driven by one ambient EngineSession must be
    bit-identical to the run-owned-session path (the `case_study` fixture)."""
    legacy = case_study.final_workflow
    blocking, labeling, matching = (
        case_study.blocking_v2, case_study.labeling, case_study.matching,
    )
    with EngineSession(workers=2):
        matcher = train_workflow_matcher(
            blocking.candidates, labeling.labels,
            matching.feature_set, matching.matcher,
        )
        outcome = run_combined_workflow(
            case_study.projected_v2, case_study.projected_extra,
            labeling.labels, matching.feature_set, matcher,
            with_negative_rules=True,
        )
    assert tuple(outcome.matches) == tuple(legacy.matches)
    for ours, theirs in ((outcome.original, legacy.original),
                         (outcome.extra, legacy.extra)):
        assert ours.predicted_matches == theirs.predicted_matches
        assert ours.flipped == theirs.flipped
        assert set(ours.sure_matches.pairs) == set(theirs.sure_matches.pairs)


def _load_plumbing_lint():
    path = Path(__file__).resolve().parent.parent / "tools" / "lint_session_plumbing.py"
    spec = importlib.util.spec_from_file_location("lint_session_plumbing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_session_plumbing_lint_is_clean(capsys):
    assert _load_plumbing_lint().main([]) == 0, capsys.readouterr().out


def test_session_plumbing_lint_flags_store_keyword(tmp_path, capsys):
    module = tmp_path / "src" / "repro" / "stage.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        "def run(tables, store=None):\n"
        "    return block(tables, store=store)\n",
        encoding="utf-8",
    )
    assert _load_plumbing_lint().main(["--src", str(tmp_path / "src")]) == 1
    out = capsys.readouterr().out
    assert "repro/stage.py:1: def run(... store= ...)" in out
    assert "repro/stage.py:2: call to block() threads store=" in out
