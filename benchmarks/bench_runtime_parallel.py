"""Runtime — interned kernels, serial vs shared-pool parallel.

Times the two hot paths of the pipeline at full scale two ways:

* **kernel serial** — the interned-id kernel paths (``workers=1``);
* **kernel parallel** — the kernel paths under one
  :class:`~repro.runtime.EngineSession` whose worker pool spans blocking
  and extraction (``REPRO_WORKERS`` workers, default 2).

Bit-identity is asserted: the serial outputs must equal the string
references in ``tests/blocking_reference.py`` pair-for-pair /
cell-for-cell (computed untimed), and the parallel outputs must equal
the serial ones. The timings are then compared against the
frozen pre-kernel numbers in
``benchmarks/baselines/runtime_parallel_pre_kernel.json`` (recorded on
this container before the kernel substrate landed):

* kernel serial must be ``>= 2x`` faster than the pre-kernel serial
  total;
* kernel parallel (shared pool) must beat the pre-kernel parallel total,
  which paid pool start-up per stage.

Parallel-vs-serial speedup on the *same* code is only asserted on hosts
with enough cores (``cpu_count >= 4``): on the single-core CI container
two workers time-slice one CPU, so parallel parity — not speedup — is
the honest expectation there, and the report says which case it hit.
"""

import os
import sys
import time
from pathlib import Path

import numpy as np

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.casestudy.blocking_plan import run_blocking  # noqa: E402
from repro.casestudy.matching import base_feature_set  # noqa: E402
from repro.features import extract_feature_vectors  # noqa: E402
from repro.obs import load_benchmark_result  # noqa: E402
from repro.plan import figure10_spec, recipe_from_spec  # noqa: E402
from repro.runtime import EngineSession, Instrumentation  # noqa: E402
from tests.blocking_reference import block_pairs, extract_rows  # noqa: E402

WORKERS = int(os.environ.get("REPRO_WORKERS", "2"))
BASELINE = os.path.join(
    os.path.dirname(__file__), "baselines", "runtime_parallel_pre_kernel.json"
)


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


@pytest.mark.parallel
@pytest.mark.skipif(WORKERS < 2, reason="REPRO_WORKERS < 2 disables parallel benches")
def test_runtime_parallel(run, emit_report):
    tables = run.projected
    cpus = os.cpu_count() or 1
    lines = [
        "Runtime — kernels, serial vs shared-pool parallel",
        "-----------------------------------------------------------",
        f"workers: {WORKERS}   host cpus: {cpus}",
        "",
    ]

    run_blocking(tables)  # warm the shared token cache: all timed runs hit it
    features = base_feature_set(tables)

    # -- kernel paths, serial ---------------------------------------------
    serial_block, serial_block_s = _timed(run_blocking, tables)
    serial_matrix, serial_extract_s = _timed(
        extract_feature_vectors, serial_block.candidates, features
    )

    # kernel outputs must be bit-identical to the string references
    args = (tables.umetrics, tables.usda, tables.l_key, tables.r_key)
    _, overlap, coefficient = recipe_from_spec(figure10_spec()).blockers
    assert serial_block.c2.pairs == block_pairs(overlap, *args)
    assert serial_block.c3.pairs == block_pairs(coefficient, *args)
    assert serial_matrix.pairs == serial_block.candidates.pairs
    assert np.array_equal(
        serial_matrix.values,
        extract_rows(serial_block.candidates, features),
        equal_nan=True,
    )

    # -- kernel paths, one session sharing its pool across both stages ----
    instr = Instrumentation("blocking(parallel)")
    feat_instr = Instrumentation("extract(parallel)")
    with EngineSession(workers=WORKERS, instrumentation=instr) as session:
        parallel_block, parallel_block_s = _timed(
            run_blocking, tables, session=session
        )
        parallel_matrix, parallel_extract_s = _timed(
            extract_feature_vectors, parallel_block.candidates, features,
            session=EngineSession(
                workers=WORKERS, pool=session.worker_pool, instrumentation=feat_instr
            ),
        )
        pool = session.worker_pool
        pool_bytes, pool_chunks = pool.pickled_bytes, pool.pickled_chunks

    # parallel outputs must be bit-identical to serial
    assert parallel_block.candidates.pairs == serial_block.candidates.pairs
    assert parallel_block.c2.pairs == serial_block.c2.pairs
    assert parallel_block.c3.pairs == serial_block.c3.pairs
    assert parallel_matrix.pairs == serial_matrix.pairs
    assert np.array_equal(parallel_matrix.values, serial_matrix.values, equal_nan=True)

    serial_total = serial_block_s + serial_extract_s
    parallel_total = parallel_block_s + parallel_extract_s
    lines += [
        f"blocking   kernel={serial_block_s:.3f}s  "
        f"kernel+pool={parallel_block_s:.3f}s  |C|={len(parallel_block.candidates)}",
        f"extraction kernel={serial_extract_s:.3f}s  "
        f"kernel+pool={parallel_extract_s:.3f}s  cells={parallel_matrix.values.size}",
        f"total      kernel={serial_total:.3f}s  kernel+pool={parallel_total:.3f}s",
        f"shared pool shipped {pool_chunks} chunks / {pool_bytes} pickled bytes",
        "",
    ]
    timings = {
        # historical keys: what a `workers=2` consumer of this report sees
        "blocking_serial": serial_block_s,
        "blocking_parallel": parallel_block_s,
        "extraction_serial": serial_extract_s,
        "extraction_parallel": parallel_extract_s,
        "cpu_count": cpus,
        "pool_pickled_bytes": pool_bytes,
        "pool_pickled_chunks": pool_chunks,
    }

    # -- versus the frozen pre-kernel baseline ----------------------------
    baseline = load_benchmark_result(BASELINE)["data"]
    base_serial = baseline["blocking_serial"] + baseline["extraction_serial"]
    base_parallel = baseline["blocking_parallel"] + baseline["extraction_parallel"]
    serial_speedup = base_serial / serial_total
    parallel_speedup = base_parallel / parallel_total
    timings.update(
        baseline_serial_total=base_serial,
        baseline_parallel_total=base_parallel,
        serial_speedup_vs_baseline=serial_speedup,
        parallel_speedup_vs_baseline=parallel_speedup,
    )
    lines += [
        f"pre-kernel baseline: serial={base_serial:.3f}s  parallel={base_parallel:.3f}s",
        f"kernel serial speedup vs baseline:          {serial_speedup:.2f}x "
        "(must stay >= 2.0 — asserted)",
        f"kernel+pool parallel speedup vs baseline:   {parallel_speedup:.2f}x "
        "(must stay > 1.0 — asserted)",
    ]
    assert serial_speedup >= 2.0, (
        f"kernel serial path lost its >=2x win over the pre-kernel baseline "
        f"({serial_speedup:.2f}x)"
    )
    assert parallel_speedup > 1.0, (
        f"shared-pool parallel path no faster than the pre-kernel parallel "
        f"baseline ({parallel_speedup:.2f}x)"
    )

    if cpus >= 4:
        assert parallel_total < serial_total, (
            f"parallel ({parallel_total:.3f}s) slower than serial "
            f"({serial_total:.3f}s) despite {cpus} cpus"
        )
        lines.append(
            f"parallel vs serial (same kernels): {serial_total / parallel_total:.2f}x"
        )
    else:
        lines.append(
            f"parallel-vs-serial speedup not asserted: {cpus} cpu(s) — two "
            "workers time-slice one core, so parity is the expected outcome."
        )
    lines += [
        "",
        "Serial, parallel and the string references produce identical",
        "outputs (asserted pair-for-pair / cell-for-cell above).",
        "",
        str(instr.report()),
        "",
        str(feat_instr.report()),
    ]
    emit_report(
        "runtime_parallel", "\n".join(lines),
        data={"workers": WORKERS, **timings},
    )
