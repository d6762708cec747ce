"""Runtime — interned kernels against the frozen pre-kernel baseline.

Times the two hot paths of the pipeline at full scale, serially, on the
interned-id kernel paths: blocking (the Figure-10 three-blocker plan) and
feature extraction over its candidates. The token cache is warmed by an
untimed blocking pass first, as when the baseline was recorded.

Bit-identity is asserted: the outputs must equal the string references
in ``tests/blocking_reference.py`` pair-for-pair / cell-for-cell
(computed untimed). The timings are then compared against the frozen
pre-kernel numbers in
``benchmarks/baselines/runtime_parallel_pre_kernel.json`` (recorded on
this container before the kernel substrate landed): the kernel path must
be ``>= 2x`` faster than the pre-kernel serial total.

The bench keeps its historical name. It also timed a process-pool arm
until the pool was removed; every stage now runs serially (see
``docs/performance.md`` for the measurements behind that).
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.casestudy.blocking_plan import run_blocking  # noqa: E402
from repro.casestudy.matching import base_feature_set  # noqa: E402
from repro.features import extract_feature_vectors  # noqa: E402
from repro.obs import load_benchmark_result  # noqa: E402
from repro.plan import figure10_spec, recipe_from_spec  # noqa: E402
from repro.runtime import EngineSession, Instrumentation  # noqa: E402
from tests.blocking_reference import block_pairs, extract_rows  # noqa: E402

BASELINE = os.path.join(
    os.path.dirname(__file__), "baselines", "runtime_parallel_pre_kernel.json"
)


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def test_runtime_parallel(run, emit_report):
    tables = run.projected
    cpus = os.cpu_count() or 1
    lines = [
        "Runtime — interned kernels vs the pre-kernel baseline (serial)",
        "--------------------------------------------------------------",
        f"host cpus: {cpus}",
        "",
    ]

    run_blocking(tables)  # warm the shared token cache: all timed runs hit it
    features = base_feature_set(tables)

    instr = Instrumentation("blocking")
    feat_instr = Instrumentation("extract")
    block, block_s = _timed(
        run_blocking, tables, session=EngineSession(instrumentation=instr)
    )
    matrix, extract_s = _timed(
        extract_feature_vectors, block.candidates, features,
        session=EngineSession(instrumentation=feat_instr),
    )

    # kernel outputs must be bit-identical to the string references
    args = (tables.umetrics, tables.usda, tables.l_key, tables.r_key)
    _, overlap, coefficient = recipe_from_spec(figure10_spec()).blockers
    assert block.c2.pairs == block_pairs(overlap, *args)
    assert block.c3.pairs == block_pairs(coefficient, *args)
    assert matrix.pairs == block.candidates.pairs
    assert np.array_equal(
        matrix.values, extract_rows(block.candidates, features), equal_nan=True
    )

    total = block_s + extract_s
    lines += [
        f"blocking   {block_s:.3f}s  |C|={len(block.candidates)}",
        f"extraction {extract_s:.3f}s  cells={matrix.values.size}",
        f"total      {total:.3f}s",
        "",
    ]

    # -- versus the frozen pre-kernel baseline ----------------------------
    baseline = load_benchmark_result(BASELINE)["data"]
    base_serial = baseline["blocking_serial"] + baseline["extraction_serial"]
    serial_speedup = base_serial / total
    lines += [
        f"pre-kernel baseline: serial={base_serial:.3f}s",
        f"kernel serial speedup vs baseline: {serial_speedup:.2f}x "
        "(must stay >= 2.0 — asserted)",
    ]
    assert serial_speedup >= 2.0, (
        f"kernel serial path lost its >=2x win over the pre-kernel baseline "
        f"({serial_speedup:.2f}x)"
    )
    lines += [
        "",
        "The kernel paths and the string references produce identical",
        "outputs (asserted pair-for-pair / cell-for-cell above).",
        "",
        str(instr.report()),
        "",
        str(feat_instr.report()),
    ]
    emit_report(
        "runtime_parallel", "\n".join(lines),
        data={
            "blocking_serial": block_s,
            "extraction_serial": extract_s,
            "cpu_count": cpus,
            "baseline_serial_total": base_serial,
            "serial_speedup_vs_baseline": serial_speedup,
        },
    )
