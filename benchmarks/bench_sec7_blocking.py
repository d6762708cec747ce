"""Section 7 — the three-blocker plan and the footnote-3 analysis.

Times the full blocking pass and reproduces every count of Section 7:
|C1| (M1 pairs kept by the AE blocker), |C2| (overlap K=3), |C3|
(overlap-coefficient 0.7), their intersection/differences, the
consolidated |C|, the K-threshold sweep (K=1 explodes, K=7 nearly empty),
and the blocking-debugger check that the top-ranked excluded pairs are not
true matches. The warm rerun's stage tree gives the pairs each token
blocker handed its keep-mask (``pairs_verified``); CI gates them, with
|C3|, as exact counts (``benchmarks/baselines/trend.json``).
"""

import time

from repro.casestudy.blocking_plan import run_blocking, threshold_sweep
from repro.casestudy.report import PAPER_BLOCKING, ReportRow, render_report
from repro.runtime import EngineSession, Instrumentation


def test_sec7_blocking(benchmark, run, emit_report):
    tables = run.projected
    outcome = benchmark.pedantic(run_blocking, args=(tables,), rounds=1, iterations=1)
    # instrumented rerun (the token cache is warm by now)
    instr = Instrumentation("blocking(warm)")
    started = time.perf_counter()
    with EngineSession(instrumentation=instr):
        warm = run_blocking(tables)
    serial_s = time.perf_counter() - started
    assert warm.candidates.pairs == outcome.candidates.pairs
    verified = {
        key: instr.find(node).find("probe").counters["pairs_verified"]
        for key, node in (
            ("c2_pairs_verified", "C2:overlap_k3"),
            ("c3_pairs_verified", "C3:coefficient"),
        )
    }
    sweep = threshold_sweep(tables, thresholds=(1, 3, 7))
    report = outcome.c2_c3_report
    truth = tables.truth
    debugger_hits = sum(
        1 for r in outcome.debugger_top[:100] if (r.l_id, r.r_id) in truth
    )
    rows = [
        ReportRow("|A x B|", PAPER_BLOCKING["cartesian_product"],
                  tables.umetrics.num_rows * tables.usda.num_rows),
        ReportRow("|C1| (AE on M1 suffix)", PAPER_BLOCKING["C1_m1_pairs_in_C"], len(outcome.c1)),
        ReportRow("|C2| (overlap K=3)", PAPER_BLOCKING["C2_overlap_k3"], len(outcome.c2)),
        ReportRow("|C3| (coefficient 0.7)", PAPER_BLOCKING["C3_coefficient_0.7"], len(outcome.c3)),
        ReportRow("|C2 ∩ C3|", PAPER_BLOCKING["C2_and_C3"], report.common),
        ReportRow("|C2 − C3|", PAPER_BLOCKING["C2_minus_C3"], report.left_only),
        ReportRow("|C3 − C2|", PAPER_BLOCKING["C3_minus_C2"], report.right_only),
        ReportRow("|C| consolidated", PAPER_BLOCKING["C_consolidated"], len(outcome.candidates)),
        ReportRow("overlap K=1", f"~{PAPER_BLOCKING['overlap_k1']}", sweep[1]),
        ReportRow("overlap K=7", "a few hundred", sweep[7]),
        ReportRow("true matches in debugger top-100", "~0", debugger_hits),
    ]
    text = render_report("Section 7 — blocking", rows)
    text += (
        f"\n\n-- warm rerun (identical pairs asserted) --\n"
        f"serial={serial_s:.3f}s\n\n"
        + str(instr.report())
    )
    emit_report(
        "sec7_blocking", text,
        rows=rows,
        data={
            "serial_seconds": serial_s,
            "c3_pairs": len(outcome.c3),
            **verified,
            "threshold_sweep": {str(k): v for k, v in sweep.items()},
        },
    )

    # shape assertions (the paper's qualitative structure)
    assert sweep[1] > 50 * sweep[3] > 0, "K=1 must explode relative to K=3"
    assert sweep[7] < 1_000, "K=7 must be nearly empty"
    assert report.left_only > 0 and report.right_only > 0, "need both C2 and C3"
    assert len(outcome.candidates) < 10_000, "C must stay labelable-scale"
    # blocking is recall-oriented: most true matches survive
    captured = sum(1 for pair in truth if pair in outcome.candidates)
    assert captured / len(truth) > 0.8
    # the debugger's verdict matches the paper's: stop tuning blocking
    assert debugger_hits <= 10
