"""The observability layer: traces, metrics, provenance, manifests, CLI."""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs import (
    LATENCY_BUCKETS,
    Counter,
    Histogram,
    ListSink,
    MatchProvenance,
    MetricsRegistry,
    RunManifest,
    TraceWriter,
    TracingInstrumentation,
    benchmark_result,
    collect_metrics,
    diff_manifests,
    load_trace,
    observe_stage_tree,
    require_provenance,
    stage_timings,
    trace_to_stats,
)
from repro.obs.cli import hotspots, render_flamegraph, render_hotspots
from repro.runtime import Instrumentation, StageStats, merge_siblings


def build_tree(instr: Instrumentation) -> None:
    """A nested stage tree with counters and repeated siblings."""
    with instr.stage("blocking"):
        for _ in range(3):
            with instr.stage("probe"):
                instr.count("pairs_out", 10)
        instr.count("candidates", 30)
    with instr.stage("matching"):
        with instr.stage("predict"):
            pass
    instr.count("root_level", 2)


# ----------------------------------------------------------------------
# traces
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def test_reconstruction_is_exact(self):
        sink = ListSink()
        instr = TracingInstrumentation(writer=sink)
        build_tree(instr)
        # dataclass equality: names, seconds, counters, children
        assert trace_to_stats(sink.events) == instr.root

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        with TraceWriter(path) as writer:
            instr = TracingInstrumentation(name="run", writer=writer)
            build_tree(instr)
        assert load_trace(path) == instr.root
        # every line is a self-contained JSON object
        lines = path.read_text().splitlines()
        assert all(json.loads(line)["event"] for line in lines)
        assert json.loads(lines[0])["event"] == "trace"

    def test_tracing_tree_matches_plain_instrumentation_shape(self):
        plain, traced = Instrumentation(), TracingInstrumentation(writer=ListSink())
        for instr in (plain, traced):
            with instr.stage("a"):
                instr.count("n", 1)
        assert [c.name for c in traced.root.children] == ["a"]
        assert traced.root.children[0].counters == plain.root.children[0].counters

    def test_missing_end_events_tolerated(self):
        sink = ListSink()
        instr = TracingInstrumentation(writer=sink)
        with instr.stage("outer"):
            pass
        # drop the end event: the span keeps seconds=0.0 but stays in the tree
        truncated = [e for e in sink.events if e["event"] != "end"]
        root = trace_to_stats(truncated)
        assert root.find("outer").seconds == 0.0

    def test_header_errors(self):
        with pytest.raises(ObsError, match="empty trace"):
            trace_to_stats([])
        with pytest.raises(ObsError, match="start with a header"):
            trace_to_stats([{"event": "end", "span": 1, "seconds": 0.1}])
        header = {"event": "trace", "version": 1, "name": "t", "ts": 0.0}
        with pytest.raises(ObsError, match="more than one header"):
            trace_to_stats([header, header])
        with pytest.raises(ObsError, match="unknown trace event"):
            trace_to_stats([header, {"event": "bogus"}])

    def test_legacy_chunk_events_are_skipped(self, tmp_path):
        # Traces written while a worker pool existed carry version-2
        # ``chunk`` events; they load, and contribute nothing.
        path = tmp_path / "v2.jsonl"
        events = [
            {"event": "trace", "version": 2, "name": "run", "ts": 0.0},
            {"event": "start", "span": 1, "parent": 0, "name": "extract", "ts": 0.0},
            {"event": "chunk", "span": 1, "worker": 4242, "items": 50,
             "seconds": 0.25, "cpu_seconds": 0.2, "peak_rss_bytes": 1024,
             "cache_hits": 3, "cache_misses": 1},
            {"event": "counter", "span": 1, "name": "pairs", "value": 50},
            {"event": "end", "span": 1, "ts": 0.5, "seconds": 0.5},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in events))
        root = load_trace(path)
        extract = root.find("extract")
        assert extract.seconds == 0.5
        assert extract.counters == {"pairs": 50}
        assert extract.children == [] and root.counters == {}

    def test_read_trace_rejects_junk(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "trace", "version": 1}\nnot json\n')
        with pytest.raises(ObsError, match="bad.jsonl:2"):
            load_trace(path)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestHistogram:
    def test_empty_quantiles_are_none(self):
        h = Histogram("t")
        assert h.quantile(0.0) is None
        assert h.quantile(0.5) is None
        assert h.quantile(1.0) is None
        assert h.mean is None

    def test_edge_quantiles_are_exact(self):
        h = Histogram("t", buckets=(1.0, 10.0, 100.0))
        for v in (0.2, 3.0, 7.0, 42.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.2
        assert h.quantile(1.0) == 42.0

    def test_single_value(self):
        h = Histogram("t", buckets=(1.0, 10.0))
        h.observe(5.0)
        assert h.quantile(0.0) == h.quantile(1.0) == 5.0
        assert h.min <= h.quantile(0.5) <= h.max

    def test_interior_quantiles_stay_in_range(self):
        h = Histogram("t", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 2.0, 5.0, 20.0, 90.0, 250.0):  # incl. overflow
            h.observe(v)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            assert h.min <= h.quantile(q) <= h.max
        assert h.quantile(0.5) <= h.quantile(0.95)

    def test_overflow_bucket(self):
        h = Histogram("t", buckets=(1.0,))
        h.observe(999.0)
        assert h.bucket_counts == [0, 1]
        assert h.quantile(1.0) == 999.0

    def test_out_of_range_q_raises(self):
        h = Histogram("t")
        with pytest.raises(ObsError, match="quantile"):
            h.quantile(-0.1)
        with pytest.raises(ObsError, match="quantile"):
            h.quantile(1.5)

    def test_invalid_buckets_raise(self):
        with pytest.raises(ObsError, match="at least one"):
            Histogram("t", buckets=())
        with pytest.raises(ObsError, match="strictly increase"):
            Histogram("t", buckets=(1.0, 1.0, 2.0))

    def test_latency_buckets_bound_the_quantile_error(self):
        # Geometric bounds at ratio <= 1.25 keep every interpolated
        # quantile within 25% of the exact nearest-rank quantile, for
        # latencies anywhere from 10 us to 300 s.
        bounds = LATENCY_BUCKETS
        assert bounds[0] == pytest.approx(1e-5) and bounds[-1] >= 300.0
        assert max(b / a for a, b in zip(bounds, bounds[1:])) <= 1.25
        rng = random.Random(7)
        samples = {
            "log-uniform": [
                10 ** rng.uniform(-5, math.log10(300)) for _ in range(5000)
            ],
            "match-like": [rng.lognormvariate(math.log(1.2e-3), 0.3)
                           for _ in range(2000)],
            "bimodal": [rng.choice((2e-4, 3.0)) * rng.uniform(1, 1.1)
                        for _ in range(999)],
            "few": [4e-3, 1.1e-3, 0.9e-3],
        }
        for label, values in samples.items():
            h = Histogram("t", bounds)
            for v in values:
                h.observe(v)
            ordered = sorted(values)
            for q in (0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99):
                exact = ordered[math.ceil(q * len(ordered)) - 1]
                error = abs(h.quantile(q) - exact) / exact
                assert error <= 0.25, (label, q, exact, h.quantile(q))

    def test_snapshot_shape(self):
        h = Histogram("t", buckets=(1.0, 10.0))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["count"] == 1 and snap["sum"] == 0.5
        assert snap["p50"] == snap["p95"] == 0.5

    def test_snapshot_writes_only_filled_buckets(self):
        h = Histogram("t", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 50.0, 500.0):
            h.observe(value)
        snap = h.snapshot()
        # upper bounds of the non-empty buckets; None is the overflow
        assert snap["buckets"] == [1.0, 100.0, None]
        assert snap["counts"] == [2, 1, 1]
        assert Histogram("e").snapshot()["buckets"] == []

    def test_dense_manifest_snapshots_still_load(self):
        # manifests written before sparse snapshots list every bound and
        # one more count (the overflow); they load and diff unchanged
        path = Path(__file__).resolve().parent.parent / (
            "benchmarks/baselines/manifest_small.json"
        )
        manifest = RunManifest.load(path)
        for snap in manifest.metrics["histograms"].values():
            assert len(snap["counts"]) == len(snap["buckets"]) + 1
        assert diff_manifests(manifest, manifest).counts_match


class TestMetricsRegistry:
    def test_counter_rejects_decrease(self):
        c = Counter("n")
        with pytest.raises(ObsError, match="cannot decrease"):
            c.inc(-1)

    def test_histogram_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        assert registry.histogram("h") is registry.histogram("h")
        with pytest.raises(ObsError, match="different buckets"):
            registry.histogram("h", buckets=(5.0,))

    def test_size_counters_feed_size_histogram(self):
        registry = MetricsRegistry()
        registry.observe_counter("candidates", 250)
        registry.observe_counter("not_a_size", 7)
        assert registry.histograms["candidate_set_size"].count == 1
        assert registry.counters["candidates"].value == 250
        assert registry.counters["not_a_size"].value == 7

    def test_observe_stage_tree_excludes_root(self):
        instr = Instrumentation()
        build_tree(instr)
        registry = MetricsRegistry()
        observe_stage_tree(registry, instr.root)
        # 6 stages: blocking, 3x probe, matching, predict — root not counted
        assert registry.histograms["stage_seconds"].count == 6
        assert registry.counters["root_level"].value == 2

    def test_live_feed_equals_post_hoc(self):
        live = MetricsRegistry()
        instr = TracingInstrumentation(writer=None, metrics=live)
        with instr.stage("a"):
            instr.count("candidates", 10)
        post = MetricsRegistry()
        observe_stage_tree(post, instr.root)
        assert live.histograms["stage_seconds"].count == 1
        assert post.histograms["stage_seconds"].count == 1
        assert (
            live.counters["candidates"].value == post.counters["candidates"].value
        )

    def test_collect_metrics_snapshot_is_json_ready(self):
        instr = Instrumentation()
        build_tree(instr)
        registry = collect_metrics(instrumentation=instr)
        json.dumps(registry.snapshot())  # must not raise
        assert registry.render()  # non-empty text dump


# ----------------------------------------------------------------------
# instrumentation satellites: find-self, xN sibling aggregation
# ----------------------------------------------------------------------
class TestInstrumentationSatellites:
    def test_find_matches_the_node_itself(self):
        stats = StageStats("alpha")
        assert stats.find("alpha") is stats
        instr = Instrumentation("total")
        assert instr.find("total") is instr.root

    def test_merge_siblings_aggregates(self):
        instr = Instrumentation()
        build_tree(instr)
        blocking = instr.find("blocking")
        merged = merge_siblings(blocking.children)
        assert len(merged) == 1
        probe, occurrences = merged[0]
        assert occurrences == 3
        assert probe.counters["pairs_out"] == 30
        assert probe.seconds == pytest.approx(
            sum(c.seconds for c in blocking.children)
        )

    def test_report_renders_repeated_siblings_once(self):
        instr = Instrumentation()
        build_tree(instr)
        text = str(instr.report())
        assert text.count("probe") == 1
        assert "probe x3" in text
        assert "matching" in text and "x1" not in text


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def provenance_outcome(case_study):
    """The Figure-10 combined workflow re-run with lineage collection."""
    from repro.casestudy.workflows import (
        run_combined_workflow,
        train_workflow_matcher,
    )

    run = case_study
    matcher = train_workflow_matcher(
        run.blocking_v2.candidates, run.labeling.labels,
        run.matching.feature_set, run.matching.matcher,
    )
    return run_combined_workflow(
        run.projected_v2, run.projected_extra,
        run.labeling.labels, run.matching.feature_set, matcher,
        with_negative_rules=True, provenance=True,
    )


class TestProvenance:
    def test_invariant_every_final_match_has_one_terminal(self, provenance_outcome):
        for result in (provenance_outcome.original, provenance_outcome.extra):
            provenance = result.provenance
            assert provenance is not None
            assert provenance.validate() == []
            for pair in result.matches:
                lineage = provenance.explain_pair(*pair)
                assert lineage.final
                assert lineage.terminal in ("positive_rule", "matcher")
                if lineage.terminal == "matcher":
                    assert lineage.score >= lineage.threshold
                    assert lineage.positive_rule is None
                else:
                    assert lineage.positive_rule

    def test_every_flipped_pair_names_its_rule(self, provenance_outcome):
        flipped = list(provenance_outcome.original.flipped) + list(
            provenance_outcome.extra.flipped
        )
        assert flipped, "the small Figure-10 run flips at least one pair"
        for pair, rule_name in flipped:
            lineage = provenance_outcome.original.explain_pair(*pair)
            assert lineage.negative_rule == rule_name
            assert not lineage.final
            assert "FLIPPED" in lineage.describe()

    def test_explain_pair_outputs(self, provenance_outcome):
        result = provenance_outcome.original
        pair = result.matches[0]
        lineage = result.explain_pair(*pair)
        assert lineage.pair == tuple(pair)
        assert lineage.in_candidates
        assert "MATCH" in lineage.describe()
        json.dumps(lineage.as_dict())
        # an unseen pair explains as not-in-candidates
        ghost = result.explain_pair("no-such-left", "no-such-right")
        assert not ghost.in_candidates and ghost.terminal is None

    def test_combined_outcome_routes_to_the_owning_slice(self, provenance_outcome):
        extra_only = [
            p for p in provenance_outcome.extra.matches
            if not provenance_outcome.original.provenance.knows(p)
        ]
        if extra_only:  # the extra slice saw pairs the original never did
            lineage = provenance_outcome.explain_pair(*extra_only[0])
            assert lineage.final

    def test_storeless_run_has_no_provenance_by_default(self, case_study):
        result = case_study.final_workflow.original
        assert result.provenance is None
        with pytest.raises(ObsError, match="provenance=True"):
            result.explain_pair("a", "b")
        with pytest.raises(ObsError):
            require_provenance(None)

    def test_validate_flags_a_broken_lineage(self):
        provenance = MatchProvenance("broken")
        # final match that neither a rule nor the matcher produced
        provenance.record_outcome(predicted=[], flipped=[], final=[("a", "b")])
        problems = provenance.validate()
        assert len(problems) == 1 and "exactly one" in problems[0]


# ----------------------------------------------------------------------
# monitoring export
# ----------------------------------------------------------------------
class TestMonitoringExport:
    def test_export_history_shape(self, provenance_outcome, case_study):
        from repro.casestudy.sampling import make_oracles
        from repro.evaluation.monitor import AccuracyMonitor

        truth = case_study.projected_v2.truth | case_study.projected_extra.truth
        authority, _, _ = make_oracles(truth, case_study.config.seed)
        monitor = AccuracyMonitor(seed=case_study.config.seed)
        monitor.check_batch(
            "final_workflow",
            provenance_outcome.consolidated_candidates,
            list(provenance_outcome.matches),
            authority,
        )
        exported = monitor.export_history()
        assert len(exported) == 1
        record = exported[0]
        assert record["batch"] == "final_workflow"
        assert 0.0 <= record["precision"]["low"] <= record["precision"]["high"] <= 1.0
        assert record["sample_size"] > 0
        assert isinstance(record["flagged"], bool)
        assert json.loads(monitor.history_json()) == exported


# ----------------------------------------------------------------------
# manifests
# ----------------------------------------------------------------------
def _manifest(**overrides) -> RunManifest:
    base = dict(
        name="test",
        seed=45,
        counts={"final_matches": 201, "candidates": 303},
        stages={
            "blocking": {"seconds": 1.5, "occurrences": 2,
                         "counters": {"pairs_out": 600}},
        },
    )
    base.update(overrides)
    return RunManifest(**base)


class TestManifest:
    def test_write_load_round_trip(self, tmp_path):
        manifest = _manifest()
        path = manifest.write(tmp_path / "sub" / "manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.counts == manifest.counts
        assert loaded.stages == manifest.stages
        assert loaded.seed == 45 and loaded.schema_version == 1

    def test_load_rejects_non_manifests(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2]")
        with pytest.raises(ObsError):
            RunManifest.load(path)
        path.write_text('{"no_name": true}')
        with pytest.raises(ObsError, match="missing 'name'"):
            RunManifest.load(path)

    def test_stage_timings_flattens_and_aggregates(self):
        instr = Instrumentation()
        build_tree(instr)
        flat = stage_timings(instr.root)
        assert flat["blocking/probe"]["occurrences"] == 3
        assert flat["blocking/probe"]["counters"]["pairs_out"] == 30
        assert "total" not in flat  # root omitted
        assert set(flat) == {
            "blocking", "blocking/probe", "matching", "matching/predict",
        }

    def test_diff_equal_manifests(self):
        diff = diff_manifests(_manifest(), _manifest())
        assert diff.counts_match
        assert "COUNTS MATCH" in diff.render()

    def test_diff_reports_count_and_timing_drift(self):
        new = _manifest(
            counts={"final_matches": 199, "candidates": 303},
            stages={"blocking": {"seconds": 3.0, "occurrences": 2,
                                 "counters": {"pairs_out": 500}}},
        )
        diff = diff_manifests(_manifest(), new)
        assert not diff.counts_match
        text = diff.render()
        assert "!! final_matches" in text and "201 -> 199" in text
        assert "2.00x" in text  # timing ratio is report-only
        assert "blocking[pairs_out]: 600 -> 500" in text
        assert "COUNTS DIFFER" in text

    def test_benchmark_result_shape(self):
        from repro.casestudy.report import ReportRow

        import numpy as np

        payload = benchmark_result(
            "bench_x",
            rows=[ReportRow("count", 10, np.int64(10))],
            data={"seconds": 1.25},
        )
        json.dumps(payload)
        assert payload["benchmark"] == "bench_x"
        assert payload["rows"][0]["measured"] == 10
        assert payload["data"]["seconds"] == 1.25
        assert payload["code_salt"] and payload["platform"]["python"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as writer:
            build_tree(TracingInstrumentation(writer=writer))
        return path

    def test_hotspots_self_vs_total(self):
        instr = Instrumentation()
        build_tree(instr)
        entries = {e["name"]: e for e in hotspots(instr.root)}
        blocking = entries["blocking"]
        assert blocking["calls"] == 1
        assert blocking["self"] <= blocking["total"]
        assert entries["probe"]["calls"] == 3

    def test_render_helpers(self):
        instr = Instrumentation("run")
        build_tree(instr)
        table = render_hotspots(instr.root, top=2)
        assert "hotspots for 'run'" in table and "more stage name" in table
        flame = render_flamegraph(instr.root)
        assert "probe x3" in flame and flame.count("#") > 0

    def test_trace_summary_command(self, trace_file, capsys):
        from repro.__main__ import main

        assert main(["trace", "summary", str(trace_file), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "hotspots" in out and "probe" in out

    def test_trace_diff_command(self, tmp_path, capsys):
        from repro.__main__ import main

        old = _manifest().write(tmp_path / "old.json")
        new = _manifest(counts={"final_matches": 1, "candidates": 303}).write(
            tmp_path / "new.json"
        )
        assert main(["trace", "diff", str(old), str(old)]) == 0
        assert main(["trace", "diff", str(old), str(new)]) == 0  # report-only
        assert (
            main(["trace", "diff", str(old), str(new), "--strict-counts"]) == 1
        )
        assert "COUNTS DIFFER" in capsys.readouterr().out

    def test_subcommand_level_common_flags(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["trace"])  # sub-command required
        # --small after the sub-command parses (regression: SUPPRESS defaults)
        import argparse

        from repro.__main__ import _config

        namespace = argparse.Namespace(seed=7, small=True)
        assert _config(namespace).seed == 7


class TestManifestSmallBaseline:
    def test_storeless_run_matches_counts_and_token_gauges(
        self, tmp_path, monkeypatch, capsys
    ):
        """``casestudy --small --seed 45 --manifest`` in a fresh process
        reproduces the committed baseline: its headline counts (what
        ``trace diff --strict-counts`` compares) and its token-cache gauges,
        which that diff does not compare."""
        from repro.__main__ import main
        from repro.runtime import TokenCache, context

        # a fresh process's default cache: no other test's tokenisation
        fresh = TokenCache()
        monkeypatch.setattr(context, "get_default_cache", lambda: fresh)
        path = tmp_path / "manifest.json"
        args = ["casestudy", "--small", "--seed", "45", "--manifest", str(path)]
        assert main(args) == 0
        capsys.readouterr()
        baseline = RunManifest.load(
            Path(__file__).resolve().parent.parent
            / "benchmarks/baselines/manifest_small.json"
        )
        run = RunManifest.load(path)
        assert diff_manifests(baseline, run).counts_match
        names = ("token_cache_hits", "token_cache_misses")
        gauges = run.metrics["gauges"]
        assert {n: gauges[n] for n in names} == {
            n: baseline.metrics["gauges"][n] for n in names
        }
