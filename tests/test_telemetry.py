"""Deep-telemetry tests: resources, worker chunk extras, exposition, trends.

Covers the telemetry layer end to end:

* :mod:`repro.obs.resources` — sampler snapshots/deltas, merge rules,
  the background :class:`ResourceMonitor` gauges;
* per-stage ``resource`` trace events and worker-side chunk extras
  round-tripping exactly through :func:`trace_to_stats`;
* the :func:`read_trace` ``strict=False`` regression (truncated trailing
  line from a killed writer);
* Prometheus exposition correctness — cumulative bucket counts and edge
  quantiles reproducible from the rendered text, including live
  ``serve:*`` metrics from a running :class:`MatchService` — and the
  :class:`MetricsServer` endpoint;
* the benchmark-trend gate: sidecar ``timestamp``/``git_sha`` fields,
  history append/read, and ``tools/check_bench_trend.py`` passing on good
  numbers and failing on an injected synthetic regression;
* the ``trace top`` / ``bench history`` CLI surfaces.
"""

from __future__ import annotations

import importlib.util
import json
import re
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs.export import MetricsServer, prometheus_name, render_prometheus
from repro.obs.manifest import (
    BENCH_SCHEMA_VERSION,
    append_history,
    benchmark_result,
    load_benchmark_result,
    read_history,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.resources import (
    ResourceMonitor,
    ResourceSampler,
    merge_resources,
)
from repro.obs.trace import (
    ListSink,
    TraceWriter,
    TracingInstrumentation,
    load_trace,
    read_trace,
    trace_to_stats,
)
from repro.obs.cli import folded_stacks, render_top
from repro.runtime.context import EngineSession
from repro.runtime.instrument import Instrumentation, StageStats

from .helpers_serving import serving_world

REPO = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# resource sampling
# ----------------------------------------------------------------------
class TestResourceSampler:
    def test_snapshot_readings(self):
        snap = ResourceSampler().snapshot()
        assert snap.cpu_user >= 0.0 and snap.cpu_sys >= 0.0
        assert snap.gc_collections >= 0
        # On Linux (where CI runs) both RSS readings must be real.
        if snap.rss_bytes is not None:
            assert snap.rss_bytes > 0
        if snap.peak_rss_bytes is not None:
            assert snap.peak_rss_bytes > 0

    def test_stage_delta_fields(self):
        sampler = ResourceSampler()
        before = sampler.snapshot()
        sum(i * i for i in range(50_000))  # burn some CPU
        delta = sampler.stage_delta(before, sampler.snapshot())
        assert delta["cpu_user"] >= 0.0
        assert delta["cpu_sys"] >= 0.0
        assert "gc_collections" in delta
        if before.rss_bytes is not None:
            assert "rss_delta_bytes" in delta
        if before.peak_rss_bytes is not None:
            assert delta["peak_rss_bytes"] >= before.peak_rss_bytes

    def test_merge_resources_rules(self):
        merged = merge_resources(None, {"cpu_user": 1.0, "peak_rss_bytes": 100})
        merged = merge_resources(merged, {"cpu_user": 2.0, "peak_rss_bytes": 50})
        assert merged["cpu_user"] == 3.0  # additive
        assert merged["peak_rss_bytes"] == 100  # high-water mark

    def test_stage_stats_add_resources_matches_merge(self):
        stats = StageStats("s")
        stats.add_resources({"cpu_user": 1.0, "peak_rss_bytes": 100})
        stats.add_resources({"cpu_user": 2.0, "peak_rss_bytes": 50})
        assert stats.resources == {"cpu_user": 3.0, "peak_rss_bytes": 100}

    def test_monitor_feeds_gauges(self):
        registry = MetricsRegistry()
        monitor = ResourceMonitor(registry, interval=30.0)
        with monitor:  # samples once immediately on start
            assert monitor.running
            assert registry.gauges["proc:cpu_user_seconds"].value >= 0.0
            assert registry.gauges["proc:gc_collections"].value >= 0
            assert registry.counters["proc:samples"].value == 1
        assert not monitor.running
        monitor.stop()  # idempotent

    def test_monitor_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="positive"):
            ResourceMonitor(MetricsRegistry(), interval=0)


class TestStageResourceEvents:
    def test_attached_probe_records_every_stage(self):
        instr = Instrumentation()
        instr.attach_resources(ResourceSampler())
        with instr.stage("outer"):
            with instr.stage("inner"):
                sum(range(10_000))
        outer = instr.find("outer")
        inner = instr.find("inner")
        assert outer.resources is not None and inner.resources is not None
        assert outer.resources["cpu_user"] >= inner.resources["cpu_user"]

    def test_no_probe_means_no_resources(self):
        instr = Instrumentation()
        with instr.stage("only"):
            pass
        assert instr.find("only").resources is None

    def test_resource_events_round_trip(self):
        sink = ListSink()
        instr = TracingInstrumentation(writer=sink)
        instr.attach_resources(ResourceSampler())
        with instr.stage("a"):
            with instr.stage("b"):
                sum(range(5_000))
        kinds = [e["event"] for e in sink.events]
        assert kinds.count("resource") == 2
        rebuilt = trace_to_stats(sink.events)
        assert rebuilt == instr.root  # dataclass equality, resources included

    def test_session_resources_flag(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with EngineSession(trace_path=trace, resources=True) as session:
            with session.instrumentation.stage("work"):
                pass
        events = read_trace(trace)
        assert any(e["event"] == "resource" for e in events)
        assert load_trace(trace).find("work").resources is not None

    def test_session_default_has_no_probe(self):
        with EngineSession() as session:
            assert session.instrumentation is None  # telemetry-free default


# ----------------------------------------------------------------------
# trace top
# ----------------------------------------------------------------------
class TestTraceTop:
    def test_render_top_ranks_span_paths_by_self_time(self):
        root = StageStats("total")
        a = root.child("a")
        a.seconds = 0.5
        a.child("b").seconds = 0.4
        root.child("c").seconds = 0.2
        lines = render_top(root).splitlines()
        assert lines[0].startswith("top spans for 'total'")
        ranked = [line.split()[0] for line in lines[2:]]
        assert ranked == ["a/b", "c", "a"]  # self: 0.4, 0.2, 0.1
        assert "worker" not in render_top(root)

    def test_folded_stacks_format(self):
        root = StageStats("total")
        a = root.child("a")
        a.seconds = 0.5
        b = a.child("b")
        b.seconds = 0.2
        lines = folded_stacks(root).splitlines()
        assert "total;a 300000" in lines  # self = 0.5 - 0.2
        assert "total;a;b 200000" in lines
        for line in lines:
            assert re.fullmatch(r"[^ ]+ \d+", line)


# ----------------------------------------------------------------------
# read_trace strict mode
# ----------------------------------------------------------------------
class TestTruncatedTrace:
    def _truncated_trace(self, tmp_path) -> Path:
        path = tmp_path / "killed.jsonl"
        with TraceWriter(path) as writer:
            instr = TracingInstrumentation(writer=writer)
            with instr.stage("done"):
                pass
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"event":"start","span":2,"par')  # killed mid-write
        return path

    def test_strict_still_raises(self, tmp_path):
        path = self._truncated_trace(tmp_path)
        with pytest.raises(ObsError, match="not valid JSON"):
            read_trace(path)

    def test_non_strict_reads_intact_prefix(self, tmp_path):
        path = self._truncated_trace(tmp_path)
        with pytest.warns(UserWarning, match="truncated write"):
            events = read_trace(path, strict=False)
        assert [e["event"] for e in events] == ["trace", "start", "end"]
        with pytest.warns(UserWarning):
            root = load_trace(path, strict=False)
        assert root.find("done") is not None

    def test_non_strict_skips_non_event_lines(self, tmp_path):
        path = tmp_path / "noise.jsonl"
        path.write_text(
            '{"event":"trace","version":2,"name":"t","ts":0}\n[1,2]\n',
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="non-event"):
            assert len(read_trace(path, strict=False)) == 1


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
def parse_exposition(text: str) -> dict[str, float]:
    """``{sample-name-with-labels: value}`` from exposition text."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


class TestPrometheusRenderer:
    def test_name_sanitization(self):
        assert prometheus_name("serve:match_seconds") == "serve:match_seconds"
        assert prometheus_name("bad name-x.y") == "bad_name_x_y"
        assert prometheus_name("9lives") == "_9lives"

    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        registry.gauge("proc:rss_bytes").set(1024)
        registry.gauge("unset")  # no value: must be skipped
        samples = parse_exposition(render_prometheus(registry))
        assert samples["requests_total"] == 3
        assert samples["proc:rss_bytes"] == 1024
        assert not any(name.startswith("unset") for name in samples)

    def test_histogram_cumulative_buckets_round_trip(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        observations = [0.05, 0.05, 0.5, 2.0, 2.0, 2.0, 50.0]
        for value in observations:
            hist.observe(value)
        samples = parse_exposition(render_prometheus(registry))
        # Cumulative `le` counts must match a recount of the raw data.
        assert samples['lat_bucket{le="0.1"}'] == 2
        assert samples['lat_bucket{le="1"}'] == 3
        assert samples['lat_bucket{le="10"}'] == 6
        assert samples['lat_bucket{le="+Inf"}'] == len(observations)
        assert samples["lat_count"] == len(observations)
        assert samples["lat_sum"] == pytest.approx(sum(observations))
        # Edge quantiles are exact min/max and consistent with the text.
        assert hist.quantile(0.0) == min(observations)
        assert hist.quantile(1.0) == max(observations)
        assert samples["lat_sum"] / samples["lat_count"] == pytest.approx(hist.mean)

    def test_bucket_boundary_is_inclusive(self):
        registry = MetricsRegistry()
        registry.histogram("edge", buckets=(1.0, 2.0)).observe(1.0)
        samples = parse_exposition(render_prometheus(registry))
        assert samples['edge_bucket{le="1"}'] == 1  # le means <=

    def test_live_match_service_metrics(self):
        left, right, features, trained, positive, negative, blockers = (
            serving_world()
        )
        from repro.serving import MatchService

        service = MatchService(
            left, right, "id", "id", matcher=trained, feature_set=features,
            blockers=blockers, positive_rules=positive,
            negative_rules=negative,
        )
        for i in range(3):
            service.match(left.row(i))
        text = service.metrics_text()
        samples = parse_exposition(text)
        assert samples["serve:match_calls_total"] == 3
        assert samples["serve:match_seconds_count"] == 3
        assert samples['serve:match_seconds_bucket{le="+Inf"}'] == 3
        assert samples["serve:patch_calls_total"] == 1  # bootstrap patch
        hist = service.metrics.histograms["serve:match_seconds"]
        assert samples["serve:match_seconds_sum"] == pytest.approx(hist.total)
        # cumulative monotonicity across every rendered bucket
        bucket_values = [
            value for name, value in samples.items()
            if name.startswith('serve:match_seconds_bucket')
        ]
        assert bucket_values == sorted(bucket_values)

    def test_metrics_server_endpoint(self):
        registry = MetricsRegistry()
        registry.counter("pings").inc(2)
        with MetricsServer(registry) as server:
            assert server.port > 0
            with urllib.request.urlopen(f"{server.url}/healthz") as resp:
                assert json.loads(resp.read()) == {"ok": True}
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode()
            assert "pings_total 2" in body
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{server.url}/nope")
        assert not server.running

    def test_metrics_server_with_resource_monitor(self):
        registry = MetricsRegistry()
        with ResourceMonitor(registry, interval=30.0), MetricsServer(
            registry
        ) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as resp:
                body = resp.read().decode()
        assert "proc:cpu_user_seconds" in body


# ----------------------------------------------------------------------
# benchmark sidecars, history and the trend gate
# ----------------------------------------------------------------------
class TestBenchSidecars:
    def test_sidecar_carries_run_provenance(self):
        payload = benchmark_result("x", data={"speedup": 2.0})
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["timestamp"] > 0
        assert "git_sha" in payload  # None outside a checkout is fine

    def test_loader_accepts_both_schema_versions(self, tmp_path):
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps(benchmark_result("b")), encoding="utf-8")
        assert load_benchmark_result(v2)["benchmark"] == "b"
        v1 = tmp_path / "v1.json"
        v1.write_text(
            json.dumps({"schema_version": 1, "benchmark": "old", "data": {}}),
            encoding="utf-8",
        )
        assert load_benchmark_result(v1)["benchmark"] == "old"
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"schema_version": 99, "benchmark": "new"}),
            encoding="utf-8",
        )
        with pytest.raises(ObsError, match="schema_version"):
            load_benchmark_result(bad)

    def test_history_append_and_read(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(benchmark_result("a", data={"v": 1}), path)
        append_history(benchmark_result("a", data={"v": 2}), path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"benchmark": "a", "data"')  # killed mid-append
        records = read_history(path)
        assert [r["data"]["v"] for r in records] == [1, 2]
        assert read_history(tmp_path / "missing.jsonl") == []


def _load_trend_tool():
    spec = importlib.util.spec_from_file_location(
        "check_bench_trend", REPO / "tools" / "check_bench_trend.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchTrendGate:
    TREND = {
        "schema": "repro/bench-trend/1",
        "benchmarks": {
            "kernels": {
                "metrics": {
                    "speedup": {"min": 1.0},
                    "matches": {"equals": 55},
                    "seconds": {"max": 10.0},
                    "ratio": {"value": 2.0, "tolerance": 0.25},
                }
            }
        },
    }

    def _record(self, **data):
        return {"kernels": {"benchmark": "kernels", "data": data}}

    def test_good_record_passes(self):
        tool = _load_trend_tool()
        violations, _ = tool.check(
            self.TREND,
            self._record(speedup=1.5, matches=55, seconds=3.0, ratio=2.3),
        )
        assert violations == []

    def test_injected_regression_fails(self):
        tool = _load_trend_tool()
        violations, lines = tool.check(
            self.TREND,
            self._record(speedup=0.8, matches=54, seconds=30.0, ratio=3.0),
        )
        assert len(violations) == 4
        assert any("0.8 < min 1" in v for v in violations)
        assert any("54 != required 55" in v for v in violations)
        assert any("30 > max 10" in v for v in violations)
        assert any("outside 2 ±25%" in v for v in violations)
        assert any(line.startswith("FAIL") for line in lines)

    def test_missing_metric_and_benchmark(self):
        tool = _load_trend_tool()
        violations, _ = tool.check(self.TREND, self._record(speedup=1.5))
        assert any("missing" in v for v in violations)
        violations, lines = tool.check(self.TREND, {})
        assert violations == []  # skipped by default...
        assert any(line.startswith("skip") for line in lines)
        violations, _ = tool.check(self.TREND, {}, require_all=True)
        assert violations  # ...but fatal with --require-all

    def test_cli_exit_codes(self, tmp_path):
        tool = _load_trend_tool()
        trend = tmp_path / "trend.json"
        trend.write_text(json.dumps(self.TREND), encoding="utf-8")
        history = tmp_path / "history.jsonl"
        good = benchmark_result("kernels", data={
            "speedup": 1.5, "matches": 55, "seconds": 1.0, "ratio": 2.0,
        })
        append_history(good, history)
        args = ["--trend", str(trend), "--history", str(history),
                "--out-dir", str(tmp_path / "none")]
        assert tool.main(args) == 0
        bad = benchmark_result("kernels", data={
            "speedup": 0.5, "matches": 55, "seconds": 1.0, "ratio": 2.0,
        })
        append_history(bad, history)  # newest record wins
        assert tool.main(args) == 1

    def test_committed_trend_spec_loads(self):
        tool = _load_trend_tool()
        spec = tool.load_trend()
        assert "kernels" in spec["benchmarks"]
        for gate in spec["benchmarks"].values():
            for band in gate["metrics"].values():
                assert set(band) <= {"min", "max", "equals", "value", "tolerance"}
