"""EngineSession lifecycle, scoping and resolution tests."""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path

import pytest

from repro.casestudy import run_combined_workflow, train_workflow_matcher
from repro.errors import ReproError, UncacheableError, WorkflowError
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


def test_raising_stage_flushes_trace_and_store(tmp_path):
    """A mid-run exception must close the session: the JSONL trace is
    readable and the store has written its deferred state."""
    from repro.store import ArtifactStore

    trace_path = tmp_path / "trace.jsonl"
    store = ArtifactStore(tmp_path / "store")
    session = EngineSession(trace_path=trace_path, store=store)
    flushed = []
    store.flush = lambda: flushed.append(True)
    with pytest.raises(RuntimeError, match="stage exploded"):
        with session:
            session.run_stage(_BoomStage())
    assert current_session() is None
    assert flushed == [True]
    root = load_trace(trace_path)  # writer closed; partial events parse
    assert root.find("boom") is not None


def test_close_is_idempotent(tmp_path):
    from repro.store import ArtifactStore

    store = ArtifactStore(tmp_path / "store")
    flushed = []
    store.flush = lambda: flushed.append(True)
    session = EngineSession(trace_path=tmp_path / "t.jsonl", store=store)
    session.close()
    session.close()
    assert flushed == [True]  # the store is flushed once


@pytest.mark.parametrize("workers", [None, 1])
def test_serial_workers_values_are_accepted(workers):
    with EngineSession(workers=workers) as session:
        assert current_session() is session


@pytest.mark.parametrize("workers", [0, 2, 8])
def test_other_workers_values_raise(workers):
    """Parallel execution was removed: asking for it is a typed error,
    never a silent serial run."""
    with pytest.raises(WorkflowError, match="parallel execution was removed"):
        EngineSession(workers=workers)
    assert issubclass(WorkflowError, ReproError)


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


def test_resolve_session_explicit_then_ambient_then_default():
    explicit = EngineSession(seed=3)
    with EngineSession(provenance=True) as ambient:
        assert resolve_session(None) is ambient
        assert resolve_session(explicit) is explicit  # explicit wins
    default = resolve_session(None)
    assert default is not ambient and default.provenance is False
    assert default.store is None and default.instrumentation is None


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
    with EngineSession():
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
