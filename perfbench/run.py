"""End-to-end benchmark driver for the entity-matching toolkit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {learn,figure10,serve,block_scale} \\
        --seed N --seconds S --trace {0,1} [--tiny]

One invocation runs one workload in its own process, single-threaded
(serial sessions, one client). It sets the workload up (``setup_s``), runs
one untimed pass that warms the process and records the reference outputs,
then repeats ops for ``--seconds`` seconds, checking every op's output and
collecting the garbage between ops, outside the timed region.

``--trace 0`` reports the end-to-end metrics, their times scaled to a
reference host speed by a probe interleaved with the run (``hostspeed.py``:
the shared host's own speed varies by up to 2x); ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics of the traced
ones. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per-layer counters reported per op (per pass on ``serve``), with units.
COUNT_METRICS = {
    "ml.fit_calls": "count",
    "ml.tree_fits": "count",
    "labeling.discrepancies": "count",
    "features.cells": "count",
    "runtime.token_hits": "count",
    "runtime.token_misses": "count",
    "blocking.candidates": "count",
    "blocking.capped_postings": "count",
    "rules.flips": "count",
    "store.hits": "count",
    "store.misses": "count",
    "store.bytes_written": "bytes",
    "serving.delta_pairs": "count",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="run at smoke-test sizes (the metrics are not comparable)",
    )
    return parser.parse_args(argv)


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(q, value): the highest whole percentile q with at least ten samples
    beyond it (nearest-rank), or ``None`` with too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in range(99, 49, -1):
        rank = math.ceil(q / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def describe(label: str, scaled: list[float], wall: list[float]) -> str:
    text = f"{label}: p50 {statistics.median(scaled) * 1e3:.3f} ms"
    found = tail(scaled)
    if found is not None:
        text += f", p{found[0]} {found[1] * 1e3:.3f} ms"
    return text + (
        f" (n={len(scaled)}; wall p50 {statistics.median(wall) * 1e3:.3f} ms)"
    )


def walls(samples: list[tuple[float, float, int]]) -> list[float]:
    return [(end - start) / calls for start, end, calls in samples]


def untraced_op(workload, rec) -> None:
    started = perf_counter()
    workload.op(rec)
    rec.op_walls.append(perf_counter() - started)
    gc.collect()


def traced_op(workload, rec, tracer) -> None:
    rec.counts.clear()
    tracer.install()
    tracer.begin_unit(workload.name)
    try:
        workload.op(rec)
    finally:
        unit = tracer.end_unit()
        tracer.uninstall()
    rec.op_walls.append(unit["wall_s"])
    unit["counts"].update(rec.counts)
    gc.collect()


def run_ops(workload, plain, seconds: float, tracer=None, traced=None) -> None:
    """Repeat ops into *plain* for *seconds*, and at least the workload's
    ``min_ops`` times; the last op is the one after which another would
    likely end past *seconds*. With a *tracer*, each untraced op is paired with a
    traced one into *traced*, the pair's order alternating so that neither
    side always runs first."""
    started = perf_counter()
    pairs = 0
    while True:
        pair_started = perf_counter()
        if tracer is not None and pairs % 2:
            traced_op(workload, traced, tracer)
        untraced_op(workload, plain)
        if tracer is not None and not pairs % 2:
            traced_op(workload, traced, tracer)
        pairs += 1
        now = perf_counter()
        elapsed = now - started
        if pairs >= workload.min_ops and elapsed + (now - pair_started) > seconds:
            return


def layer_metrics(tracer, plain, traced) -> tuple[dict, bool]:
    """Per-layer metrics of the traced units, and whether they repeat."""
    from tracing import TIME_METRICS

    units = tracer.units
    per_op = {
        m: statistics.fmean(u["self_s"].get(m, 0.0) for u in units)
        for m in TIME_METRICS
    }
    counts = units[0]["counts"]
    repeat = all(u["counts"] == counts for u in units)
    metrics = {m: (v, "s") for m, v in per_op.items()}
    metrics.update({m: (counts.get(m, 0), u) for m, u in COUNT_METRICS.items()})
    extract_s = per_op["features.extract_s"]
    metrics["features.cells_per_s"] = (
        counts.get("features.cells", 0) / extract_s if extract_s else 0.0, "1/s"
    )
    candidates = counts.get("blocking.candidates", 0)
    metrics["blocking.true_pair_ratio"] = (
        counts.get("blocking.true_pairs", 0) / candidates if candidates else 0.0,
        "ratio",
    )
    calls = counts.get("serving.match_calls", 0)
    metrics["serving.candidates_per_match"] = (
        counts.get("serving.match_candidates", 0) / calls if calls else 0.0,
        "count",
    )
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced.op_walls) / statistics.median(plain.op_walls),
        "ratio",
    )
    metrics["trace.other_share"] = (
        statistics.fmean(u["self_s"]["trace.other_s"] / u["wall_s"] for u in units),
        "ratio",
    )
    accounted = all(u["accounted"] for u in units)
    return metrics, repeat and accounted


def measure(args: argparse.Namespace, scratch: Path) -> dict:
    from hostspeed import HostClock
    from workloads import WORKLOADS, Recorder

    workload = WORKLOADS[args.workload](args.seed, args.tiny, scratch)
    plain, traced = Recorder(), Recorder(traced=True)
    tracer = clock = None
    if not args.trace:
        # The end-to-end times are scaled to a reference host speed; the
        # per-layer times of a traced run are plain wall times.
        clock = HostClock()
        clock.start()
    setups = []
    try:
        for _ in range(workload.setup_repeats):
            gc.collect()
            started = perf_counter()
            workload.setup()
            setups.append((started, perf_counter(), 1))
        gc.collect()
        workload.reference()
        gc.collect()
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(truth=workload.truth)
        run_ops(workload, plain, args.seconds, tracer, traced)
    finally:
        if clock is not None:
            clock.stop()
        workload.close()

    def scale(start: float, end: float) -> float:
        if clock is None:
            return end - start
        return clock.scaled(start, end, workload.host_exponent)

    setup_s = [scale(start, end) for start, end, _ in setups]
    main, aux = (
        [scale(start, end) / calls for start, end, calls in plain.samples[key]]
        for key in ("main", "aux")
    )
    attempted, failed = plain.attempted, plain.failed
    lines = [
        f"{workload.name} seed={args.seed}: setup {statistics.median(setup_s):.3f} s "
        f"(x{len(setups)}; wall {statistics.median(walls(setups)):.3f} s), "
        f"{len(plain.op_walls)} ops, {attempted} checked calls, {failed} failed",
        describe(workload.main_label, main, walls(plain.samples["main"])),
        describe(workload.aux_label, aux, walls(plain.samples["aux"])),
        "precision {precision:.5f}, recall {recall:.5f}".format(**workload.quality),
    ]
    if tracer is None:
        lines.append(
            f"times scaled to the reference host speed; the host ran "
            f"{clock.slowdown:.3f}x slower ({len(clock.probes)} probes)"
        )
        values = {
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
            ),
            "precision": (workload.quality["precision"], "ratio"),
            "recall": (workload.quality["recall"], "ratio"),
            "main_p50_ms": (statistics.median(main) * 1e3, "ms"),
            "aux_p50_ms": (statistics.median(aux) * 1e3, "ms"),
        }
        ok = failed == 0
    else:
        values, ok = layer_metrics(tracer, plain, traced)
        attempted += traced.attempted
        failed += traced.failed
        ok = ok and failed == 0
        path = ROOT / ".perfbench" / f"trace-{workload.name}-{args.seed}.json"
        tracer.write(path)
        lines.append(f"spans of {len(tracer.units)} traced ops written to {path}")
    for line in lines:
        print(line)
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
