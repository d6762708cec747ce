"""JSONL trace emission and parsing, layered on the stage instrumentation.

The paper's team spent days waiting on blocking and feature-extraction
runs with no record of where the time went; PR 1's
:class:`~repro.runtime.instrument.Instrumentation` keeps an in-process
stage tree, but the tree dies with the process. A
:class:`TracingInstrumentation` streams the same events — span start/end
with wall-clock timestamps, counters, resource deltas — to a JSONL
file as they happen, so a run that crashes (or is still running) leaves an
inspectable artifact, and :func:`load_trace` reconstructs the exact
:class:`~repro.runtime.instrument.StageStats` tree from the file.

Trace format (one JSON object per line):

``{"event": "trace", "version": 1, "name": ..., "ts": ...}``
    header; ``name`` is the root stage name, ``ts`` a wall-clock epoch.
``{"event": "start", "span": i, "parent": p, "name": ..., "ts": ...}``
    a stage opened; spans are numbered in open order, the implicit root
    is span ``0``.
``{"event": "end", "span": i, "ts": ..., "seconds": s}``
    the stage closed; ``seconds`` is the monotonic-clock duration (what
    the in-process tree records — wall timestamps are informational).
``{"event": "counter", "span": i, "name": ..., "value": v}``
    one :meth:`~repro.runtime.instrument.Instrumentation.count` call.
``{"event": "chunk", ...}``
    a worker-pool chunk record, written by versions that had a process
    pool. Nothing emits it any more; readers skip it, so older traces
    keep loading.
``{"event": "resource", "span": i, "cpu_user": ..., "cpu_sys": ..., ...}``
    per-stage resource delta (version 2; emitted after the span's
    ``end`` when a :class:`~repro.obs.resources.ResourceSampler` is
    attached). Keys mirror
    :meth:`~repro.obs.resources.ResourceSampler.stage_delta`.
"""

from __future__ import annotations

import json
import time
import warnings
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..errors import ObsError
from ..runtime.instrument import Instrumentation, StageStats

TRACE_VERSION = 2


class TraceWriter:
    """Append-only JSONL event sink backed by a file.

    Lines are flushed per event so a killed run still leaves a readable
    prefix (every event is self-contained; the parser tolerates missing
    ``end`` events for spans that were open at the time of death).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")

    def emit(self, event: dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ListSink:
    """In-memory event sink (tests, ad-hoc inspection)."""

    def __init__(self) -> None:
        self.events: list[dict[str, Any]] = []

    def emit(self, event: dict[str, Any]) -> None:
        self.events.append(event)


class TracingInstrumentation(Instrumentation):
    """An :class:`~repro.runtime.instrument.Instrumentation` that streams
    every stage event to a trace sink and, optionally, a metrics registry.

    Parameters
    ----------
    name:
        Root stage name (also recorded in the trace header).
    writer:
        Any object with ``emit(dict)`` — a :class:`TraceWriter`, a
        :class:`ListSink`, or ``None`` to collect only the in-process tree.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` fed live:
        per-stage latency histograms, candidate-set-size distributions
        from the standard pair counters.
        (Do not *also* run :func:`~repro.obs.metrics.observe_stage_tree`
        over the finished tree with the same registry — that would count
        every stage twice.)

    The in-process tree is identical to what the base class builds, so
    everything accepting ``instrumentation=`` works unchanged.
    """

    def __init__(self, name: str = "total", writer=None, metrics=None) -> None:
        super().__init__(name)
        self.writer = writer
        self.metrics = metrics
        self._span_ids: dict[int, int] = {id(self.root): 0}
        self._next_span = 1
        self._emit(
            {"event": "trace", "version": TRACE_VERSION, "name": name,
             "ts": time.time()}
        )

    def _emit(self, event: dict[str, Any]) -> None:
        if self.writer is not None:
            self.writer.emit(event)

    def _span(self, stats: StageStats) -> int:
        return self._span_ids[id(stats)]

    # -- instrumentation hooks -----------------------------------------
    def _stage_started(self, stats: StageStats) -> None:
        span = self._next_span
        self._next_span += 1
        self._span_ids[id(stats)] = span
        parent = self._span_ids[id(self._stack[-2])]
        self._emit(
            {"event": "start", "span": span, "parent": parent,
             "name": stats.name, "ts": time.time()}
        )

    def _stage_finished(self, stats: StageStats, elapsed: float) -> None:
        self._emit(
            {"event": "end", "span": self._span(stats), "ts": time.time(),
             "seconds": elapsed}
        )
        if self.metrics is not None:
            self.metrics.observe_stage(stats.name, elapsed)

    def _counted(self, stats: StageStats, name: str, value: float) -> None:
        self._emit(
            {"event": "counter", "span": self._span(stats), "name": name,
             "value": value}
        )
        if self.metrics is not None:
            self.metrics.observe_counter(name, value)

    def _resource_recorded(self, stats: StageStats, delta: dict[str, float]) -> None:
        self._emit({"event": "resource", "span": self._span(stats), **delta})
        if self.metrics is not None:
            if "cpu_user" in delta:
                self.metrics.histogram("stage_cpu_seconds").observe(
                    delta["cpu_user"] + delta.get("cpu_sys", 0.0)
                )
            if "peak_rss_bytes" in delta:
                self.metrics.gauge("proc:peak_rss_bytes").set(
                    delta["peak_rss_bytes"]
                )


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def read_trace(path: str | Path, strict: bool = True) -> list[dict[str, Any]]:
    """All events of a JSONL trace file, in emission order.

    With ``strict=False`` malformed lines are skipped with a warning
    instead of raising — a process killed mid-write (a
    :class:`~repro.serving.MatchService` taken down by SIGKILL, a full
    disk) leaves a truncated trailing line, and the trace CLI should
    still read the intact prefix. Tests and programmatic consumers keep
    the default strict behaviour so real corruption is never silently
    dropped.
    """
    events = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                if strict:
                    raise ObsError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
                warnings.warn(
                    f"{path}:{lineno}: skipping malformed trace line "
                    f"(truncated write?): {exc}",
                    stacklevel=2,
                )
                continue
            if not isinstance(event, dict) or "event" not in event:
                if strict:
                    raise ObsError(f"{path}:{lineno}: not a trace event: {line!r}")
                warnings.warn(
                    f"{path}:{lineno}: skipping non-event trace line: {line!r}",
                    stacklevel=2,
                )
                continue
            events.append(event)
    return events


def trace_to_stats(events: Iterable[dict[str, Any]]) -> StageStats:
    """Rebuild the stage tree a trace's emitting process held in memory.

    The reconstruction is exact: span durations are taken from ``end``
    events (JSON round-trips Python floats losslessly), counters re-sum
    the counter events, resource deltas fold back in; legacy ``chunk``
    events are skipped. Spans with no ``end`` event (the process died
    mid-stage) keep ``seconds=0.0``.
    """
    spans: dict[int, StageStats] = {}
    root: StageStats | None = None
    for event in events:
        kind = event.get("event")
        if kind == "trace":
            if root is not None:
                raise ObsError("trace contains more than one header event")
            root = StageStats(event.get("name", "total"))
            spans[0] = root
            continue
        if root is None:
            raise ObsError("trace does not start with a header event")
        try:
            if kind == "start":
                stats = StageStats(event["name"])
                spans[event["parent"]].children.append(stats)
                spans[event["span"]] = stats
            elif kind == "end":
                spans[event["span"]].seconds += event["seconds"]
            elif kind == "counter":
                spans[event["span"]].count(event["name"], event["value"])
            elif kind == "chunk":
                pass  # written by versions with a worker pool; no reader left
            elif kind == "resource":
                delta = {
                    k: v for k, v in event.items()
                    if k not in ("event", "span")
                }
                spans[event["span"]].add_resources(delta)
            else:
                raise ObsError(f"unknown trace event type {kind!r}")
        except KeyError as exc:
            raise ObsError(f"malformed {kind!r} event: missing {exc}") from exc
    if root is None:
        raise ObsError("empty trace (no header event)")
    return root


def load_trace(path: str | Path, strict: bool = True) -> StageStats:
    """Parse a JSONL trace file into its stage tree."""
    return trace_to_stats(read_trace(path, strict=strict))


def iter_spans(root: StageStats) -> Iterator[tuple[tuple[str, ...], StageStats]]:
    """Depth-first ``(path, stats)`` walk of a stage tree, root included."""
    stack: list[tuple[tuple[str, ...], StageStats]] = [((root.name,), root)]
    while stack:
        path, stats = stack.pop()
        yield path, stats
        for child in reversed(stats.children):
            stack.append((path + (child.name,), child))
