"""Section 10 as an *online* re-execution: the serving delta path in action.

The alternative to replaying the whole Figure-10 workflow when the late
Section-10 records arrive (``bench_store_incremental``) is to keep a
:class:`~repro.serving.MatchService` alive and push the new rows through
``apply_patch`` — only the delta candidate pairs are blocked, extracted
and predicted. This bench races the two warm paths over the same
late-record batch: a warm-store full rerun vs the incremental patch, and
asserts the delta path wins while producing the exact Figure-10 delta
(``reference.extra.matches``) and total match set.

Each arm runs in its own explicit session with its own token cache. With
the process-wide default cache, the rerun used to find the late tables'
token columns (and Jaro-Winkler scores) already cached by the storeless
reference run, while the delta arm tokenised the patched table cold. Now
both arms have seen the v2 tables (the store warm-up, the service
bootstrap) and neither has seen the late records: the ``match()`` probes
run on a second service with a session of its own, since a probe's
extraction leaves the Jaro-Winkler scores of its token pairs in its
session's table, the very pairs the patch would then read back. The
report gives the patch's table hits and misses.

Also records the interactive ``match()`` latency: every late record is
probed once, and p50/p95 are exact nearest-rank
quantiles of the ``perf_counter`` samples (the serving histogram's
buckets are too coarse to tell 1.5 ms from 4.5 ms). Reports land in
``benchmarks/out/serving.{txt,json}``.
"""

from __future__ import annotations

import math
import time

from repro.casestudy.workflows import (
    run_combined_workflow,
    train_workflow_matcher,
)
from repro.obs.metrics import MetricsRegistry
from repro.plan import figure10_spec, figure10_workflow
from repro.runtime import EngineSession, TokenCache
from repro.serving import MatchService
from repro.store import ArtifactStore


def nearest_rank(samples: list[float], q: float) -> float:
    """The exact q-quantile of *samples* (nearest-rank)."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def test_serving_delta_beats_warm_rerun(benchmark, run, tmp_path, emit_report):
    matcher = train_workflow_matcher(
        run.blocking_v2.candidates, run.labeling.labels,
        run.matching.feature_set, run.matching.matcher,
    )
    tables, extra = run.projected_v2, run.projected_extra
    common = (tables, extra, run.labeling.labels,
              run.matching.feature_set, matcher)

    # storeless Figure-10 reference: the correctness baseline, in a
    # session of its own so neither timed arm reuses its caches
    with EngineSession(token_cache=TokenCache()) as session:
        reference = run_combined_workflow(
            *common, with_negative_rules=True, session=session
        )

    # the competing warm path: before the late records arrive the team
    # has run Figure 10 over the v2 tables, so the store holds every
    # original-slice artifact — the rerun reuses those but must compute
    # the extra slice from scratch
    store = ArtifactStore(tmp_path / "store")
    workflow = figure10_workflow()
    rerun_cache = TokenCache()
    with EngineSession(store=store, token_cache=rerun_cache):
        workflow.run(tables.umetrics, tables.usda, tables.l_key,
                     tables.r_key, matcher, run.matching.feature_set)
    rerun_table = rerun_cache.jw_scores
    hits, misses = rerun_table.hits, rerun_table.misses
    with EngineSession(store=store, token_cache=rerun_cache) as rerun_session:
        started = time.perf_counter()
        rerun = run_combined_workflow(*common, with_negative_rules=True,
                                      session=rerun_session)
        rerun_seconds = time.perf_counter() - started
    rerun_jw = (rerun_table.hits - hits, rerun_table.misses - misses)

    # the serving path: bootstrap over the v2 tables (untimed — that is
    # the long-lived service's start-up cost), then patch in the late
    # Section-10 records
    def bootstrap(session):
        return MatchService.from_plan(
            figure10_spec(),
            tables.umetrics, tables.usda, tables.l_key, tables.r_key,
            matcher=matcher, feature_set=run.matching.feature_set,
            session=session,
        )

    metrics = MetricsRegistry()
    with EngineSession(metrics=metrics, token_cache=TokenCache()) as session:
        service = bootstrap(session)
        table = session.token_cache.jw_scores
        hits, misses = table.hits, table.misses
        started = time.perf_counter()
        delta = benchmark.pedantic(
            service.apply_patch,
            kwargs={"upserts": extra.umetrics},
            rounds=1,
            iterations=1,
        )
        delta_seconds = time.perf_counter() - started
        patch_jw = (table.hits - hits, table.misses - misses)

    # interactive probes of every late record, on a service of their own
    with EngineSession(token_cache=TokenCache()) as session:
        prober = bootstrap(session)
        match_seconds = []
        for record in extra.umetrics.rows():
            started = time.perf_counter()
            prober.match(record)
            match_seconds.append(time.perf_counter() - started)

    match_p50 = nearest_rank(match_seconds, 0.50)
    match_p95 = nearest_rank(match_seconds, 0.95)
    patch_latency = metrics.histogram("serve:patch_seconds").snapshot()
    speedup = delta_seconds and rerun_seconds / delta_seconds
    lines = [
        "Section 10 — late-arriving records through the serving delta path",
        "-----------------------------------------------------------------",
        f"warm-store full rerun:   {rerun_seconds:8.3f} s   [{store.stats()}]",
        f"apply_patch delta:       {delta_seconds:8.3f} s   "
        f"({len(delta.candidates)} delta pairs, {len(delta.matches)} matches)",
        "Jaro-Winkler table hits / misses: "
        f"rerun {rerun_jw[0]} / {rerun_jw[1]}, patch {patch_jw[0]} / {patch_jw[1]}",
        f"speedup: {speedup:.1f}x",
        "",
        f"match() latency over {len(match_seconds)} probes: "
        f"p50={match_p50 * 1e3:.2f} ms  p95={match_p95 * 1e3:.2f} ms",
    ]
    emit_report(
        "serving", "\n".join(lines),
        data={
            "rerun_seconds": rerun_seconds,
            "delta_seconds": delta_seconds,
            "speedup": speedup,
            "delta_pairs": len(delta.candidates),
            "delta_matches": len(delta.matches),
            "match_p50_seconds": match_p50,
            "match_p95_seconds": match_p95,
            "patch_p50_seconds": patch_latency["p50"],
            "rerun_jw_hits": rerun_jw[0],
            "rerun_jw_misses": rerun_jw[1],
            "patch_jw_hits": patch_jw[0],
            "patch_jw_misses": patch_jw[1],
            "probes": len(match_seconds),
        },
    )

    # the delta is the exact Figure-10 delta, and the accumulated state
    # the exact Figure-10 total — not merely a faster approximation
    assert tuple(delta.matches) == tuple(reference.extra.matches)
    assert set(service.current_matches()) == set(reference.matches)
    assert rerun.matches == reference.matches
    assert delta_seconds < rerun_seconds, (
        "the delta path must beat even a fully warm-store rerun"
    )
