"""Stage instrumentation: nestable timers and counters.

The paper's engagement spent "a few days" waiting on blocking and
feature-extraction runs without ever measuring *where* the time went.
:class:`Instrumentation` gives every pipeline stage a cheap, optional
handle to record wall-clock time and domain counters (pairs in/out, cells
computed, cache hits), and :class:`StageReport` renders the resulting
tree as text so benchmarks can print per-stage breakdowns.

Everything is opt-in: every function in the toolkit that accepts an
``instrumentation=`` argument defaults it to ``None`` and behaves exactly
as before when it stays ``None``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class StageStats:
    """One node of the stage tree: a named timer with counters/children."""

    name: str
    seconds: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)
    children: list["StageStats"] = field(default_factory=list)
    #: Per-stage resource deltas (CPU user/sys, RSS delta, peak RSS, GC
    #: collections) — ``None`` unless a resource probe was attached.
    resources: dict[str, float] | None = None

    def child(self, name: str) -> "StageStats":
        stats = StageStats(name)
        self.children.append(stats)
        return stats

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def add_resources(self, delta: dict[str, float]) -> None:
        """Fold a resource-delta record into this node.

        Additive readings (CPU seconds, GC collections, RSS deltas) sum
        across repeated recordings; high-water marks (``peak_rss_bytes``)
        take the max — the same aggregation reports and manifests apply
        to repeated same-name siblings.
        """
        if self.resources is None:
            self.resources = dict(delta)
            return
        for key, value in delta.items():
            if key == "peak_rss_bytes":
                self.resources[key] = max(self.resources.get(key, value), value)
            else:
                self.resources[key] = self.resources.get(key, 0) + value

    def find(self, name: str) -> "StageStats | None":
        """This node if its name matches, else the first matching
        descendant (depth-first)."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None


class Instrumentation:
    """A tree of timed stages, built up via the :meth:`stage` context.

    Usage::

        instr = Instrumentation()
        with instr.stage("blocking"):
            with instr.stage("tokenize"):
                ...
            instr.count("pairs_out", len(pairs))
        print(instr.report())

    Counters attach to the innermost open stage (or to
    the implicit root when no stage is open), so library code can call
    :meth:`count` without knowing how its caller nested it.

    Sub-classes may override the ``_stage_started`` / ``_stage_finished`` /
    ``_counted`` / ``_resource_recorded`` hooks to
    stream the same events elsewhere (see
    :class:`repro.obs.trace.TracingInstrumentation`); the base
    implementations are no-ops.

    A resource probe (:class:`repro.obs.resources.ResourceSampler`, or
    anything with the same ``snapshot``/``stage_delta`` contract) can be
    attached via :meth:`attach_resources`; every stage then records its
    CPU/RSS/GC delta into ``StageStats.resources`` and fires the
    ``_resource_recorded`` hook. With no probe attached (the default)
    nothing changes.
    """

    def __init__(self, name: str = "total") -> None:
        self.root = StageStats(name)
        self._stack: list[StageStats] = [self.root]
        self.resources: Any = None

    @property
    def current(self) -> StageStats:
        return self._stack[-1]

    def attach_resources(self, probe: Any) -> Any:
        """Attach a resource probe sampled around every stage; returns it."""
        self.resources = probe
        return probe

    @contextmanager
    def stage(self, name: str) -> Iterator[StageStats]:
        stats = self.current.child(name)
        self._stack.append(stats)
        self._stage_started(stats)
        probe = self.resources
        before = probe.snapshot() if probe is not None else None
        started = time.perf_counter()
        try:
            yield stats
        finally:
            elapsed = time.perf_counter() - started
            stats.seconds += elapsed
            self._stack.pop()
            self._stage_finished(stats, elapsed)
            if before is not None:
                delta = probe.stage_delta(before, probe.snapshot())
                stats.add_resources(delta)
                self._resource_recorded(stats, delta)

    def count(self, name: str, value: float = 1) -> None:
        self.current.count(name, value)
        self._counted(self.current, name, value)

    # -- subclass hooks (no-ops here) ----------------------------------
    def _stage_started(self, stats: StageStats) -> None:
        pass

    def _stage_finished(self, stats: StageStats, elapsed: float) -> None:
        pass

    def _counted(self, stats: StageStats, name: str, value: float) -> None:
        pass

    def _resource_recorded(self, stats: StageStats, delta: dict[str, float]) -> None:
        pass

    def find(self, name: str) -> StageStats | None:
        return self.root.find(name)

    def report(self, title: str = "") -> "StageReport":
        return StageReport(self.root, title=title)

    def __str__(self) -> str:
        return str(self.report())


def stage(instrumentation: Instrumentation | None, name: str):
    """A stage context that no-ops when *instrumentation* is ``None``."""
    if instrumentation is None:
        return nullcontext()
    return instrumentation.stage(name)


def count(instrumentation: Instrumentation | None, name: str, value: float = 1) -> None:
    """Counter helper that no-ops when *instrumentation* is ``None``."""
    if instrumentation is not None:
        instrumentation.count(name, value)


def merge_siblings(children: list[StageStats]) -> list[tuple[StageStats, int]]:
    """Aggregate same-name siblings into ``(merged stats, occurrences)``.

    A stage run in a loop (say, one blocker per iteration) produces one
    sibling node per iteration; reports want a single line with an ``xN``
    count, summed time and summed counters. The
    merged node's children are the concatenation of all occurrences'
    children (merged again, recursively, at render time). First-seen
    order is preserved; a name that occurs once passes through unchanged.
    """
    merged: dict[str, StageStats] = {}
    counts: dict[str, int] = {}
    order: list[str] = []
    for child in children:
        if child.name not in merged:
            merged[child.name] = StageStats(child.name)
            counts[child.name] = 0
            order.append(child.name)
        counts[child.name] += 1
        target = merged[child.name]
        target.seconds += child.seconds
        for key, value in child.counters.items():
            target.count(key, value)
        target.children.extend(child.children)
        if child.resources is not None:
            target.add_resources(child.resources)
    return [(merged[name], counts[name]) for name in order]


@dataclass(frozen=True)
class StageReport:
    """Text renderer for a stage tree.

    Repeated same-name siblings (a stage inside a loop) are aggregated
    into one ``name xN`` line with summed time via :func:`merge_siblings`.
    """

    root: StageStats
    title: str = ""

    def __str__(self) -> str:
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
            lines.append("-" * len(self.title))
        total = sum(c.seconds for c in self.root.children)
        header = self.root.name
        if self.root.children:
            header += f"  {total:.3f}s"
        lines.append(self._line(header, self.root))
        for child, occurrences in merge_siblings(self.root.children):
            self._render(child, occurrences, lines, depth=1)
        return "\n".join(lines)

    @staticmethod
    def _line(label: str, stats: StageStats) -> str:
        extras = [f"{k}={v:g}" for k, v in stats.counters.items()]
        return label + ("  [" + ", ".join(extras) + "]" if extras else "")

    def _render(
        self, stats: StageStats, occurrences: int, lines: list[str], depth: int
    ) -> None:
        name = stats.name if occurrences == 1 else f"{stats.name} x{occurrences}"
        label = f"{'  ' * depth}{name}  {stats.seconds:.3f}s"
        lines.append(self._line(label, stats))
        for child, n in merge_siblings(stats.children):
            self._render(child, n, lines, depth + 1)
