"""``python -m repro trace`` — summarize traces, diff manifests —
and ``python -m repro bench history`` — summarize the benchmark trend log.

Sub-commands:

``trace summary TRACE``
    print a top-N hotspot table (aggregated by stage name, self-time vs
    total-time) and a text flamegraph of the stage tree. Accepts either a
    JSONL trace or a :class:`RunManifest` JSON (e.g. one produced by a
    session-driven ``casestudy --manifest`` run) — the manifest's
    flattened stage paths are folded back into a tree;
``trace top TRACE``
    rank individual span *paths* by self-time (where ``summary``
    aggregates by name). ``--folded`` emits folded stacks
    (``a;b;c <self-time-µs>``) for standard flamegraph tools instead;
``trace diff OLD NEW``
    load two run manifests and print stage-by-stage count and timing
    deltas; with ``--strict-counts`` exit non-zero when any headline
    count field differs (timing deltas are always report-only);
``bench history``
    one line per recorded benchmark run in ``benchmarks/history.jsonl``
    (timestamp, git sha, headline metrics), filterable by benchmark and
    metric.

The trace commands read with ``strict=False``: a service killed
mid-write leaves a truncated trailing line, and inspection tooling
should show the intact prefix instead of refusing the file.
"""

from __future__ import annotations

import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from ..runtime.instrument import StageStats, merge_siblings
from .manifest import RunManifest, diff_manifests, read_history
from .trace import iter_spans, load_trace


def hotspots(root: StageStats) -> list[dict[str, float]]:
    """Aggregate a stage tree by stage name, sorted by self-time.

    ``total`` is the summed wall time of all same-named stages, ``self``
    that total minus time attributed to their children (a stage calling
    only other stages has ~zero self-time), ``calls`` the occurrence count.
    """
    by_name: dict[str, dict[str, float]] = {}

    def walk(stats: StageStats, is_root: bool) -> None:
        if not is_root:
            entry = by_name.setdefault(
                stats.name, {"name": stats.name, "total": 0.0, "self": 0.0, "calls": 0}
            )
            entry["total"] += stats.seconds
            entry["self"] += stats.seconds - sum(c.seconds for c in stats.children)
            entry["calls"] += 1
        for child in stats.children:
            walk(child, False)

    walk(root, True)
    return sorted(by_name.values(), key=lambda e: (-e["self"], e["name"]))


def render_hotspots(root: StageStats, top: int = 15) -> str:
    """The hotspot table of a stage tree."""
    rows = hotspots(root)
    grand_total = sum(c.seconds for c in root.children) or 1.0
    lines = [
        f"hotspots for {root.name!r} "
        f"({sum(c.seconds for c in root.children):.3f}s total)",
        f"{'stage':<32} {'self':>9} {'total':>9} {'calls':>6} {'self%':>6}",
    ]
    for entry in rows[:top]:
        lines.append(
            f"{entry['name']:<32} {entry['self']:>8.3f}s {entry['total']:>8.3f}s "
            f"{entry['calls']:>6.0f} {100 * entry['self'] / grand_total:>5.1f}%"
        )
    if len(rows) > top:
        lines.append(f"... {len(rows) - top} more stage name(s)")
    return "\n".join(lines)


def render_flamegraph(root: StageStats, width: int = 40) -> str:
    """An indented text flamegraph: one bar per (merged) stage node.

    Bars are proportional to each stage's share of the root's total;
    repeated same-name siblings merge into one ``xN`` bar, exactly like
    :class:`~repro.runtime.instrument.StageReport` lines.
    """
    total = sum(c.seconds for c in root.children)
    lines = [f"{root.name}  {total:.3f}s"]
    if total <= 0:
        total = 1.0

    def walk(stats: StageStats, occurrences: int, depth: int) -> None:
        bar = "#" * max(1, round(width * stats.seconds / total))
        name = stats.name if occurrences == 1 else f"{stats.name} x{occurrences}"
        lines.append(f"{'  ' * depth}{bar} {name} {stats.seconds:.3f}s")
        for child, n in merge_siblings(stats.children):
            walk(child, n, depth + 1)

    for child, n in merge_siblings(root.children):
        walk(child, n, 1)
    return "\n".join(lines)


def manifest_stage_tree(manifest: RunManifest) -> StageStats:
    """Rebuild a stage tree from a manifest's flattened ``a/b/c`` paths.

    Repeated paths were aggregated at manifest time (summed seconds,
    ``xN`` occurrences), so each path becomes one node; missing
    intermediate paths (possible in hand-edited manifests) materialize
    as zero-second nodes.
    """
    root = StageStats(manifest.name)
    nodes: dict[str, StageStats] = {}

    def node_for(path: str) -> StageStats:
        if path in nodes:
            return nodes[path]
        head, _, leaf = path.rpartition("/")
        parent = node_for(head) if head else root
        nodes[path] = parent.child(leaf)
        return nodes[path]

    for path, record in sorted(manifest.stages.items()):
        stats = node_for(path)
        stats.seconds += float(record.get("seconds", 0.0))
        for key, value in record.get("counters", {}).items():
            stats.count(key, value)
    return root


def _load_stage_tree(path: str) -> StageStats:
    """A stage tree from *path*: a RunManifest JSON or a JSONL trace.

    A manifest is one JSON object spanning the file; a trace is one JSON
    event per line — so whole-file parsing disambiguates them.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = None
    if isinstance(data, dict) and "name" in data and "stages" in data:
        return manifest_stage_tree(RunManifest.from_dict(data))
    # Non-strict: inspection tooling reads the intact prefix of a trace
    # whose writer was killed mid-line, warning instead of refusing.
    return load_trace(path, strict=False)


def span_self_times(root: StageStats) -> list[dict]:
    """Every span path with its self-time and resource detail.

    Unlike :func:`hotspots` (which pools same-named stages wherever they
    occur), each entry here is one *path* through the tree — so two
    ``tokenize`` stages under different parents rank separately. Entries
    carry the span's ``resources`` record when present.
    """
    entries = []
    for path, stats in iter_spans(root):
        if len(path) == 1:  # the untimed root
            continue
        child_seconds = sum(c.seconds for c in stats.children)
        entry = {
            "path": "/".join(path[1:]),
            "self": stats.seconds - child_seconds,
            "total": stats.seconds,
            "resources": stats.resources,
        }
        entries.append(entry)
    entries.sort(key=lambda e: (-e["self"], e["path"]))
    return entries


def render_top(root: StageStats, top: int = 15) -> str:
    """The ``trace top`` report: span paths ranked by self-time."""
    entries = span_self_times(root)
    total = sum(c.seconds for c in root.children) or 1.0
    lines = [
        f"top spans for {root.name!r} by self-time "
        f"({sum(c.seconds for c in root.children):.3f}s total)",
        f"{'span':<44} {'self':>9} {'total':>9} {'self%':>6}",
    ]
    for entry in entries[:top]:
        lines.append(
            f"{entry['path']:<44} {entry['self']:>8.3f}s "
            f"{entry['total']:>8.3f}s {100 * entry['self'] / total:>5.1f}%"
        )
    if len(entries) > top:
        lines.append(f"... {len(entries) - top} more span(s)")
    return "\n".join(lines)


def folded_stacks(root: StageStats) -> str:
    """Folded-stack lines (``a;b;c <self-time-µs>``) for flamegraph tools.

    One line per span path with a positive self-time, weights in integer
    microseconds — the input format of Brendan Gregg's ``flamegraph.pl``
    and of speedscope's "folded" importer.
    """
    lines = []
    for path, stats in iter_spans(root):
        self_seconds = stats.seconds - sum(c.seconds for c in stats.children)
        micros = round(self_seconds * 1_000_000)
        if micros > 0:
            lines.append(";".join(path) + f" {micros}")
    return "\n".join(lines)


def cmd_trace_summary(trace_path: str, top: int = 15) -> int:
    """Handler for ``python -m repro trace summary``."""
    root = _load_stage_tree(trace_path)
    print(render_hotspots(root, top=top))
    print()
    print(render_flamegraph(root))
    return 0


def cmd_trace_top(trace_path: str, top: int = 15, folded: bool = False) -> int:
    """Handler for ``python -m repro trace top``."""
    root = _load_stage_tree(trace_path)
    text = folded_stacks(root) if folded else render_top(root, top=top)
    try:
        print(text)
    except BrokenPipeError:  # e.g. `trace top ... | head`
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_bench_history(
    history_path: str,
    benchmark: str | None = None,
    metric: str | None = None,
    limit: int = 20,
) -> int:
    """Handler for ``python -m repro bench history``."""
    records = read_history(history_path)
    if benchmark is not None:
        records = [r for r in records if r.get("benchmark") == benchmark]
    if not records:
        print(f"no history records in {history_path}"
              + (f" for benchmark {benchmark!r}" if benchmark else ""))
        return 0
    shown = records[-limit:]
    print(f"{len(records)} record(s) in {history_path}; showing last {len(shown)}")
    for record in shown:
        ts = record.get("timestamp")
        when = (
            datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%d %H:%M")
            if isinstance(ts, (int, float))
            else "unknown-time    "
        )
        sha = (record.get("git_sha") or "-")[:10]
        data = record.get("data", {})
        if metric is not None:
            names = [m.strip() for m in metric.split(",") if m.strip()]
            detail = " ".join(f"{m}={data.get(m, '-')}" for m in names)
        else:
            numeric = [
                f"{k}={v:g}" for k, v in sorted(data.items())
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            detail = " ".join(numeric[:4]) + (" ..." if len(numeric) > 4 else "")
        print(f"{when}  {sha:>10}  {record.get('benchmark', '?'):<24} {detail}")
    return 0


def cmd_trace_diff(old_path: str, new_path: str, strict_counts: bool = False) -> int:
    """Handler for ``python -m repro trace diff``."""
    diff = diff_manifests(RunManifest.load(old_path), RunManifest.load(new_path))
    print(diff.render())
    if strict_counts and not diff.counts_match:
        return 1
    return 0
