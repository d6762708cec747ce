"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``casestudy``   run the end-to-end case study and print each stage's summary
``serve``       run the case study as an online service: build a
                :class:`~repro.serving.MatchService`, probe late records via
                ``match()``, and with ``--patch`` replay the Section-10
                late-arriving records through the delta path (verified
                against the batch rerun)
``release``     generate the synthetic data bundle as CSV files
``profile``     profile the raw tables (the Section-4 exploration report)
``trace``       inspect telemetry: ``trace summary`` (hotspots + flamegraph
                from a JSONL trace), ``trace top`` (span self-time ranking,
                ``--folded`` flamegraph stacks),
                ``trace diff`` (two run manifests)
``bench``       ``bench history`` — summarize the cross-run benchmark
                trend log (``benchmarks/history.jsonl``)

Common options: ``--seed N`` (default 45), ``--small`` (a ~5x downsized
scenario that runs in well under a minute), ``--out DIR`` (for release).
``casestudy`` additionally takes ``--trace PATH`` (write a JSONL trace),
``--manifest PATH`` (write a RunManifest JSON, implies provenance
collection), ``--store DIR`` (content-addressed artifact
store; a re-run reuses every unchanged stage), ``--resources`` (sample per-stage
CPU/RSS/GC deltas into the trace) and ``--plan CONFIG_JSON`` (a pipeline
spec, inline JSON or ``@file`` — see :mod:`repro.plan`). ``serve`` takes
``--metrics-port N``
(expose Prometheus ``/metrics`` + ``/healthz`` over HTTP, with ``proc:*``
gauges from a background resource sampler) and ``--linger-seconds X``
(keep the endpoint up after the run — scrape smoke tests). All of these
configure one :class:`~repro.runtime.context.EngineSession` that carries
the whole run.
"""

from __future__ import annotations

import argparse
import sys

from .casestudy import CaseStudyRun
from .datasets import ScenarioConfig, generate_scenario
from .runtime.context import EngineSession
from .datasets.release import save_scenario
from .evaluation import evaluate_matches
from .table import format_profile, profile_table


def _config(args: argparse.Namespace) -> ScenarioConfig:
    if args.small:
        return ScenarioConfig(
            seed=args.seed,
            n_umetrics_rows=280, n_usda_rows=400, n_extra_rows=100,
            n_federal=40, n_state=65, n_forest=20, n_extra_matched=12,
            n_sibling_families=18, n_generic_umetrics=5, n_generic_usda=6,
            n_multistate_usda=12, aux_scale=0.002,
        )
    return ScenarioConfig(seed=args.seed)


def _load_json_arg(raw: str):
    """An inline-JSON or ``@file`` CLI payload, parsed."""
    import json

    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(raw)


def _parse_plan_spec(raw: str):
    """``--plan`` payload -> :class:`repro.plan.PipelineSpec`.

    Accepts an inline JSON spec or ``@path/to/spec.json``.
    """
    from .plan import PipelineSpec

    return PipelineSpec.from_dict(_load_json_arg(raw))


def _plan_from_args(args: argparse.Namespace):
    """The ``--plan`` spec, or ``None`` for the built-in Figure-10 plan."""
    plan_json = getattr(args, "plan", None)
    return _parse_plan_spec(plan_json) if plan_json is not None else None


def _cmd_casestudy(args: argparse.Namespace) -> int:
    trace_path = getattr(args, "trace", None)
    manifest_path = getattr(args, "manifest", None)
    store_dir = getattr(args, "store", None)
    plan = _plan_from_args(args)
    config = _config(args)
    instrumentation = None
    if trace_path is None and manifest_path is not None:
        from .obs import TracingInstrumentation

        instrumentation = TracingInstrumentation()
    store = None
    if store_dir is not None:
        from .store import ArtifactStore

        store = ArtifactStore(store_dir)
    session = EngineSession(
        store=store,
        trace_path=trace_path,
        instrumentation=instrumentation,
        provenance=manifest_path is not None,
        seed=config.seed,
        resources=getattr(args, "resources", False),
    )
    with session, CaseStudyRun(
        config=config, session=session, plan=plan
    ) as run:
        return _run_casestudy(run, trace_path, manifest_path)


def _run_casestudy(
    run: CaseStudyRun, trace_path: str | None, manifest_path: str | None
) -> int:
    print("== Section 7, blocking ==")
    print(run.blocking.summary())
    print("\n== Section 8, labeling ==")
    print(run.labeling.summary())
    print("\n== Section 9, matching ==")
    print(run.matching.final_selection.table())
    print(run.matching.summary())
    print("\n== Section 10, patched workflow ==")
    print(run.updated_workflow.summary())
    print("\n== Sections 11-12, accuracy ==")
    print(run.accuracy.table())
    print("\n== Figure 10, final workflow ==")
    print(run.final_workflow.summary())
    truth = run.combined_truth
    print("\nexact accuracy vs ground truth:")
    for name, matches in (
        ("IRIS", run.iris_matches),
        ("learning", run.updated_workflow.matches),
        ("learning+rules", run.final_workflow.matches),
    ):
        print(f"  {name:<15} {evaluate_matches(matches, truth)}")
    if manifest_path is not None:
        from .obs import RunManifest

        run.monitoring  # one §12 monitoring round, recorded in the manifest
        manifest = RunManifest.from_case_study(run)
        manifest.write(manifest_path)
        print(f"\nwrote run manifest to {manifest_path}")
    if trace_path is not None:
        print(f"wrote trace to {trace_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .casestudy.workflows import train_workflow_matcher
    from .obs.metrics import MetricsRegistry
    from .plan import figure10_spec
    from .serving import MatchService

    config = _config(args)
    metrics = MetricsRegistry()
    session = EngineSession(metrics=metrics, seed=config.seed)
    with session, CaseStudyRun(config=config, session=session) as run:
        tables, extra = run.projected_v2, run.projected_extra
        feature_set = run.matching.feature_set
        matcher = train_workflow_matcher(
            run.blocking_v2.candidates, run.labeling.labels,
            feature_set, run.matching.matcher, session=session,
        )
        plan = _plan_from_args(args) or figure10_spec()
        service = MatchService.from_plan(
            plan, tables.umetrics, tables.usda, tables.l_key, tables.r_key,
            matcher=matcher, feature_set=feature_set, session=session,
        )
        initial = len(service.current_matches())
        print(f"serving {len(service)} records, {initial} initial matches")
        probes = min(args.probes, len(extra.umetrics))
        probe_matches = 0
        for i in range(probes):
            probe_matches += len(service.match(extra.umetrics.row(i)).matches)
        print(f"probed {probes} late records: {probe_matches} matches")
        counts = {
            "records": len(service),
            "initial_matches": initial,
            "probes": probes,
            "probe_matches": probe_matches,
        }
        status = 0
        if args.patch:
            result = service.apply_patch(upserts=extra.umetrics)
            reference = run.final_workflow
            delta_ok = tuple(result.matches) == tuple(reference.extra.matches)
            total_ok = set(service.current_matches()) == set(reference.matches)
            counts.update(
                patch_upserts=len(result.upserted),
                patch_sure=len(result.sure_matches),
                patch_candidates=len(result.candidates),
                patch_to_predict=len(result.to_predict),
                patch_predicted=len(result.predicted_matches),
                patch_flipped=len(result.flipped),
                patch_matches=len(result.matches),
                patch_retired=len(result.retired),
                total_matches=len(service.current_matches()),
                delta_equals_rerun=bool(delta_ok and total_ok),
            )
            verdict = "OK" if delta_ok and total_ok else "MISMATCH"
            print(
                f"patched {len(result.upserted)} late records through the "
                f"delta path: {len(result.matches)} delta matches, "
                f"{counts['total_matches']} total; delta == rerun: {verdict}"
            )
            if not (delta_ok and total_ok):
                status = 1
        print()
        print(metrics.render("serving metrics"))
        if args.metrics_port is not None:
            # Started after the probe/patch work so the first scrape
            # already sees populated serve:* histograms; the resource
            # monitor adds live proc:* gauges next to them.
            from .obs.export import MetricsServer

            service.start_resource_monitor(interval=0.5)
            server = MetricsServer(
                service.metrics_text, port=args.metrics_port
            ).start()
            print(f"\nmetrics endpoint: {server.url}/metrics "
                  f"(health: {server.url}/healthz)")
            try:
                if args.linger_seconds > 0:
                    import time as _time

                    _time.sleep(args.linger_seconds)
            except KeyboardInterrupt:
                pass
            finally:
                server.stop()
                service.stop_resource_monitor()
        if args.json is not None:
            histograms = {
                name: metrics.histograms[name].snapshot()
                for name in ("serve:match_seconds", "serve:patch_seconds")
                if name in metrics.histograms
            }
            from .obs.manifest import git_sha

            import time as _time

            payload = {
                "schema": "repro/serve-report/1",
                "timestamp": _time.time(),
                "git_sha": git_sha(),
                "counts": counts,
                "latency": histograms,
            }
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nwrote serve report to {args.json}")
        return status


def _cmd_release(args: argparse.Namespace) -> int:
    scenario = generate_scenario(_config(args))
    directory = save_scenario(scenario, args.out)
    print(f"wrote release bundle to {directory}/")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    scenario = generate_scenario(_config(args))
    for table in (
        scenario.award_agg, scenario.usda, scenario.employees,
        scenario.org_units, scenario.object_codes, scenario.sub_awards,
        scenario.vendors,
    ):
        print(format_profile(profile_table(table)))
        print()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.cli import cmd_trace_diff, cmd_trace_summary, cmd_trace_top

    if args.trace_command == "summary":
        return cmd_trace_summary(args.trace, top=args.top)
    if args.trace_command == "top":
        return cmd_trace_top(args.trace, top=args.top, folded=args.folded)
    return cmd_trace_diff(args.old, args.new, strict_counts=args.strict_counts)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs.cli import cmd_bench_history

    return cmd_bench_history(
        args.history, benchmark=args.benchmark, metric=args.metric,
        limit=args.limit,
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    # Mirrored on each subparser so `repro casestudy --small` works too;
    # SUPPRESS keeps an omitted flag from clobbering the top-level value.
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true",
                        default=argparse.SUPPRESS,
                        help="use a ~5x downsized scenario")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="UMETRICS entity-matching case study"
    )
    parser.add_argument("--seed", type=int, default=45)
    parser.add_argument("--small", action="store_true",
                        help="use a ~5x downsized scenario")
    sub = parser.add_subparsers(dest="command", required=True)
    casestudy = sub.add_parser("casestudy", help="run the end-to-end case study")
    _add_common(casestudy)
    casestudy.add_argument("--trace", metavar="PATH",
                           help="write a JSONL stage trace to PATH")
    casestudy.add_argument("--manifest", metavar="PATH",
                           help="write a RunManifest JSON to PATH "
                                "(implies provenance collection)")
    casestudy.add_argument("--store", metavar="DIR",
                           help="artifact-store directory; re-runs reuse "
                                "every unchanged stage")
    casestudy.add_argument("--plan", metavar="CONFIG_JSON",
                           help="drive the Figure-10 workflow from a pipeline "
                                "spec: an inline PipelineSpec JSON document "
                                "or @path/to/spec.json (see "
                                "examples/figure10.json)")
    casestudy.add_argument("--resources", action="store_true",
                           help="sample per-stage CPU/RSS/GC deltas "
                                "(recorded as resource trace events)")
    serve = sub.add_parser(
        "serve", help="online serving: delta patches + per-record match()"
    )
    _add_common(serve)
    serve.add_argument("--plan", metavar="CONFIG_JSON",
                       help="bootstrap the MatchService recipe from a "
                            "pipeline spec (inline JSON or @file; default: "
                            "the built-in Figure-10 plan)")
    serve.add_argument("--patch", action="store_true",
                       help="replay the Section-10 late records through the "
                            "delta path and verify against the batch rerun")
    serve.add_argument("--probes", type=int, default=5,
                       help="late records to probe through match()")
    serve.add_argument("--json", metavar="PATH",
                       help="write a counts + latency report JSON to PATH")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="expose Prometheus /metrics + /healthz on PORT "
                            "(0 = OS-assigned) after the run completes")
    serve.add_argument("--linger-seconds", type=float, default=60.0,
                       metavar="X",
                       help="keep the metrics endpoint up for X seconds "
                            "(with --metrics-port; default 60)")
    release = sub.add_parser("release", help="export the data bundle as CSVs")
    _add_common(release)
    release.add_argument("--out", default="umetrics_release")
    profile = sub.add_parser("profile", help="profile the raw tables")
    _add_common(profile)
    trace = sub.add_parser("trace", help="inspect traces and run manifests")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summary = trace_sub.add_parser(
        "summary", help="hotspot table + flamegraph from a JSONL trace"
    )
    summary.add_argument("trace", help="path to a JSONL trace file")
    summary.add_argument("--top", type=int, default=15,
                         help="rows in the hotspot table")
    top = trace_sub.add_parser(
        "top", help="span self-time ranking"
    )
    top.add_argument("trace", help="path to a JSONL trace file")
    top.add_argument("--top", type=int, default=15,
                     help="rows in the span ranking")
    top.add_argument("--folded", action="store_true",
                     help="emit folded stacks for flamegraph tools instead")
    diff = trace_sub.add_parser(
        "diff", help="compare two run manifests stage by stage"
    )
    diff.add_argument("old", help="baseline manifest JSON")
    diff.add_argument("new", help="candidate manifest JSON")
    diff.add_argument("--strict-counts", action="store_true",
                      help="exit nonzero when headline counts differ")
    bench = sub.add_parser("bench", help="benchmark trend tooling")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    history = bench_sub.add_parser(
        "history", help="summarize the cross-run benchmark trend log"
    )
    history.add_argument("--history", default="benchmarks/history.jsonl",
                         help="trend log path "
                              "(default: benchmarks/history.jsonl)")
    history.add_argument("--benchmark", default=None,
                         help="show only this benchmark's records")
    history.add_argument("--metric", default=None,
                         help="show only these data metrics per record "
                              "(comma-separated names)")
    history.add_argument("--limit", type=int, default=20,
                         help="records to show, newest last (default 20)")
    args = parser.parse_args(argv)
    handlers = {
        "casestudy": _cmd_casestudy,
        "serve": _cmd_serve,
        "release": _cmd_release,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "bench": _cmd_bench,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
