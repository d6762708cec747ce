"""Counters, gauges and fixed-bucket histograms for pipeline telemetry.

A :class:`MetricsRegistry` is the aggregation point the trace/manifest
layer snapshots: stage latencies land in latency histograms, the
standard pair counters (``pairs_out``/``candidates``/...) land in a
candidate-set-size histogram, and the tokenization cache and artifact
store contribute their hit/miss accounting as gauges. Everything is plain data — :meth:`MetricsRegistry.snapshot`
returns JSON-ready dicts for the run manifest.

Feeding happens one of two ways (not both, or stages count twice):

* live, by passing a registry to
  :class:`~repro.obs.trace.TracingInstrumentation`;
* post-hoc, via :func:`collect_metrics` /
  :func:`observe_stage_tree` over a finished stage tree.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..errors import ObsError
from ..runtime.instrument import StageStats

#: Ratio between consecutive latency bucket bounds. Inside one bucket the
#: interpolated quantile and the exact one differ by less than this ratio
#: minus one (20%), for any value between the first and last bound.
LATENCY_RATIO = 1.2
#: Wall-clock buckets (seconds): geometric from 10 µs to about 333 s, so
#: sub-millisecond ``match()`` calls and multi-minute blocking passes
#: resolve alike.
LATENCY_BUCKETS: tuple[float, ...] = tuple(
    1e-5 * LATENCY_RATIO**i for i in range(96)
)
#: Log-ish buckets for candidate-set / pair-list sizes.
SIZE_BUCKETS: tuple[float, ...] = (
    1, 3, 10, 30, 100, 300, 1_000, 3_000, 10_000, 100_000, 1_000_000
)
#: Counter names whose values are candidate-set sizes (fed to the
#: ``candidate_set_size`` histogram).
SIZE_COUNTERS = frozenset({"pairs", "pairs_out", "candidates", "sure_pairs"})


@dataclass
class Counter:
    """A monotonically increasing total."""

    name: str
    value: float = 0.0

    def inc(self, value: float = 1) -> None:
        if value < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (got {value})")
        self.value += value

    def snapshot(self) -> float:
        return self.value


@dataclass
class Gauge:
    """A last-value-wins measurement."""

    name: str
    value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float | None:
        return self.value


class Histogram:
    """A fixed-bucket histogram with quantile estimation.

    Parameters
    ----------
    name:
        Metric name.
    buckets:
        Strictly increasing upper bounds; an observation lands in the
        first bucket whose bound is ``>= value``, values above the last
        bound land in an implicit overflow bucket. Bounds are fixed at
        construction — merging and diffing snapshots needs stable edges.
    """

    def __init__(self, name: str, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObsError(f"histogram {name!r} needs at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ObsError(
                f"histogram {name!r} bucket bounds must strictly increase: {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Estimated q-quantile via linear interpolation within buckets.

        Exact at the edges: ``quantile(0)`` is the observed minimum,
        ``quantile(1)`` the observed maximum; ``None`` when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ObsError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        cumulative = 0.0
        for i, bucket_count in enumerate(self.bucket_counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                low = self.buckets[i - 1] if i > 0 else self.min
                high = self.buckets[i] if i < len(self.buckets) else self.max
                low = max(low, self.min)
                high = min(high, self.max)
                fraction = (target - cumulative) / bucket_count
                return low + fraction * (high - low)
            cumulative += bucket_count
        return self.max  # pragma: no cover - float-rounding fallback

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state with only the non-empty buckets: ``buckets``
        holds their upper bounds (``None`` for the overflow bucket) and
        ``counts`` their counts. A histogram over :data:`LATENCY_BUCKETS`
        thus writes a few entries instead of 97 mostly-zero ones; older
        dense snapshots (every bound, one more count for the overflow)
        carry the same information and load unchanged."""
        filled = [i for i, n in enumerate(self.bucket_counts) if n]
        bounds = self.buckets
        return {
            "buckets": [bounds[i] if i < len(bounds) else None for i in filled],
            "counts": [self.bucket_counts[i] for i in filled],
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
        }


@dataclass
class MetricsRegistry:
    """Name-keyed counters, gauges and histograms, created on first use."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:
        existing = self.histograms.get(name)
        if existing is not None:
            if buckets is not None and tuple(float(b) for b in buckets) != existing.buckets:
                raise ObsError(
                    f"histogram {name!r} already registered with different buckets"
                )
            return existing
        histogram = Histogram(name, buckets if buckets is not None else LATENCY_BUCKETS)
        self.histograms[name] = histogram
        return histogram

    # -- pipeline-shaped observation helpers ---------------------------
    def observe_stage(self, name: str, seconds: float) -> None:
        """One finished stage: global + per-stage latency histograms."""
        self.histogram("stage_seconds", LATENCY_BUCKETS).observe(seconds)
        self.histogram(f"stage:{name}:seconds", LATENCY_BUCKETS).observe(seconds)

    def observe_counter(self, name: str, value: float) -> None:
        """One domain counter increment; size-like counters also feed the
        candidate-set-size distribution."""
        self.counter(name).inc(max(value, 0))
        if name in SIZE_COUNTERS:
            self.histogram("candidate_set_size", SIZE_BUCKETS).observe(value)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready state, sorted by metric name."""
        return {
            "counters": {n: c.snapshot() for n, c in sorted(self.counters.items())},
            "gauges": {n: g.snapshot() for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.snapshot() for n, h in sorted(self.histograms.items())
            },
        }

    def render(self, title: str = "") -> str:
        """A compact text dump (benchmarks, CLI)."""
        lines = []
        if title:
            lines.append(title)
            lines.append("-" * len(title))
        for name, counter in sorted(self.counters.items()):
            lines.append(f"counter   {name:<32} {counter.value:g}")
        for name, gauge in sorted(self.gauges.items()):
            value = "-" if gauge.value is None else f"{gauge.value:g}"
            lines.append(f"gauge     {name:<32} {value}")
        for name, histogram in sorted(self.histograms.items()):
            if not histogram.count:
                continue
            lines.append(
                f"histogram {name:<32} n={histogram.count} "
                f"mean={histogram.mean:.4g} p50={histogram.quantile(0.5):.4g} "
                f"p95={histogram.quantile(0.95):.4g} max={histogram.max:.4g}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# post-hoc feeders
# ----------------------------------------------------------------------
def observe_stage_tree(registry: MetricsRegistry, root: StageStats) -> None:
    """Feed a finished stage tree (root excluded — it is never timed)."""
    def walk(stats: StageStats, is_root: bool) -> None:
        if not is_root:
            registry.observe_stage(stats.name, stats.seconds)
        for name, value in stats.counters.items():
            registry.observe_counter(name, value)
        for child in stats.children:
            walk(child, False)

    walk(root, True)


def observe_cache(registry: MetricsRegistry, cache) -> None:
    """Record a :class:`~repro.runtime.cache.TokenCache`'s accounting."""
    stats = cache.stats()
    registry.gauge("token_cache_hits").set(stats.hits)
    registry.gauge("token_cache_misses").set(stats.misses)


def observe_store(registry: MetricsRegistry, store) -> None:
    """Record an :class:`~repro.store.store.ArtifactStore`'s accounting."""
    stats = store.stats()
    registry.gauge("store_hits").set(stats.hits)
    registry.gauge("store_misses").set(stats.misses)
    registry.gauge("store_bypasses").set(stats.bypasses)
    registry.gauge("store_evictions").set(stats.evictions)
    registry.gauge("store_artifacts").set(len(store))


def collect_metrics(
    instrumentation=None,
    cache=None,
    store=None,
    registry: MetricsRegistry | None = None,
) -> MetricsRegistry:
    """Build (or extend) a registry from finished pipeline components.

    Pass the components that exist: a (non-tracing) instrumentation whose
    tree should be folded in, the token cache, the artifact store. When
    the instrumentation already live-fed this registry, omit it here.
    """
    registry = registry if registry is not None else MetricsRegistry()
    if instrumentation is not None:
        observe_stage_tree(registry, instrumentation.root)
    if cache is not None:
        observe_cache(registry, cache)
    if store is not None:
        observe_store(registry, store)
    return registry
