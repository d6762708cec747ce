"""Section 10 as an *incremental* re-execution: the artifact store in action.

The scenario the store exists for: the Figure-9 workflow has already run
(cold, store-enabled), and the team then patches the match definition by
adding the negative rules (Figure 10). Blocking, feature extraction and
prediction all have unchanged input fingerprints — only the cheap
post-prediction rule filtering differs — so the warm replay must reuse
every stored artifact (zero misses) and still produce final matches
byte-identical to a from-scratch Figure-10 run.

Reports cold vs warm wall-clock and the hit/miss ledger to
``benchmarks/out/store_incremental.txt``.
"""

from __future__ import annotations

import time

from repro.casestudy.workflows import run_combined_workflow, train_workflow_matcher
from repro.runtime import EngineSession
from repro.store import ArtifactStore


def test_store_incremental_patch_replay(benchmark, run, tmp_path, emit_report):
    matcher = train_workflow_matcher(
        run.blocking_v2.candidates, run.labeling.labels,
        run.matching.feature_set, run.matching.matcher,
    )
    common = (run.projected_v2, run.projected_extra, run.labeling.labels,
              run.matching.feature_set, matcher)

    # storeless Figure-10 reference: the byte-identity baseline
    reference = run_combined_workflow(*common, with_negative_rules=True)

    # cold run: Figure 9 with an empty store (every stage computes + stores)
    root = tmp_path / "store"
    cold_store = ArtifactStore(root)
    with EngineSession(store=cold_store) as cold_session:
        started = time.perf_counter()
        cold = run_combined_workflow(*common, with_negative_rules=False,
                                     session=cold_session)
        cold_seconds = time.perf_counter() - started

    # warm replay: Figure 10 (the Section-10 patch) over the same store
    # root — driven by an ambient EngineSession instead of an explicit
    # session=, so this bench also asserts the two resolution paths
    # produce byte-identical artifacts and reuse decisions
    warm_store = ArtifactStore(root)
    started = time.perf_counter()
    with EngineSession(store=warm_store):
        warm = benchmark.pedantic(
            run_combined_workflow,
            args=common,
            kwargs={"with_negative_rules": True},
            rounds=1,
            iterations=1,
        )
    warm_seconds = time.perf_counter() - started

    cold_stats = cold_store.stats()
    warm_stats = warm_store.stats()
    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    lines = [
        "Section 10 — incremental patch replay through the artifact store",
        "----------------------------------------------------------------",
        f"cold run  (Figure 9, empty store):  {cold_seconds:8.3f} s   "
        f"[{cold_stats}]",
        f"warm run  (Figure 10 patch):        {warm_seconds:8.3f} s   "
        f"[{warm_stats}]",
        f"speedup: {speedup:.1f}x",
        "",
        warm_store.explain(title="warm-replay reuse ledger"),
    ]
    emit_report(
        "store_incremental", "\n".join(lines),
        data={
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "cold_hits": cold_stats.hits, "cold_misses": cold_stats.misses,
            "warm_hits": warm_stats.hits, "warm_misses": warm_stats.misses,
        },
    )

    # the patch replay reuses EVERY artifact: blocking, sure-match rules,
    # feature extraction and prediction all have unchanged fingerprints
    assert warm_stats.misses == 0, warm_store.explain()
    assert warm_stats.bypasses == 0, warm_store.explain()
    assert warm_stats.hits == cold_stats.hits + cold_stats.misses, (
        "warm replay must request exactly the stages the cold run did"
    )
    reused_kinds = {e.kind for e in warm_store.events if e.status == "hit"}
    assert "candidates" in reused_kinds and "feature_matrix" in reused_kinds

    # byte-identical outputs, against both the cold run's Figure-9 parts
    # and the storeless Figure-10 reference
    assert warm.matches == reference.matches
    assert warm.original.predicted_matches == cold.original.predicted_matches
    assert warm.original.blocked.pairs == cold.original.blocked.pairs
    assert warm.extra.blocked.pairs == cold.extra.blocked.pairs
    assert warm_seconds < cold_seconds, (
        "replaying from the store should beat recomputation"
    )
