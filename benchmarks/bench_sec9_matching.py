"""Section 9 — matcher selection, debugging, and the Figure-8 workflow.

Times the full Section-9 pass: five-fold CV over the six learners, the
half/half mismatch debugging that motivated case-insensitive features,
re-selection, and prediction over C minus the sure matches. Reports the
selection tables and the Figure-8 match counts (paper: 210 sure + 807
predicted = 1017).
"""

import time

from repro.casestudy.matching import base_feature_set, run_matching
from repro.casestudy.report import PAPER_MATCHING, ReportRow, render_report
from repro.features import extract_feature_vectors
from repro.runtime import EngineSession, Instrumentation


def test_sec9_matching(benchmark, run, emit_report):
    outcome = benchmark.pedantic(
        run_matching,
        args=(run.blocking_v2.candidates, run.labeling.labels, run.projected_v2),
        kwargs={"seed": run.config.seed},
        rounds=1,
        iterations=1,
    )
    best = max(outcome.final_selection.scores, key=lambda s: s.f1)
    rows = [
        ReportRow("first selection winner", PAPER_MATCHING["first_winner"],
                  outcome.initial_selection.best.name),
        ReportRow("debug mismatches found", ">0", len(outcome.mismatches)),
        ReportRow("final selection winner", PAPER_MATCHING["final_winner"],
                  outcome.final_selection.best.name),
        ReportRow("winner CV precision", PAPER_MATCHING["final_precision"],
                  round(best.precision, 3)),
        ReportRow("winner CV recall", PAPER_MATCHING["final_recall"],
                  round(best.recall, 3)),
        ReportRow("winner CV F1", PAPER_MATCHING["final_f1"], round(best.f1, 3)),
        ReportRow("sure matches (M1 in C)", PAPER_MATCHING["sure_matches"],
                  len(outcome.sure_pairs)),
        ReportRow("predicted matches", PAPER_MATCHING["predicted"],
                  len(outcome.predicted_pairs)),
        ReportRow("total matches (Figure 8)", PAPER_MATCHING["total_matches"],
                  len(outcome.matches)),
    ]
    text = render_report("Section 9 — matching (Figure 8 workflow)", rows)
    text += "\n\n-- initial selection --\n" + outcome.initial_selection.table()
    text += "\n\n-- after case-insensitive features --\n" + outcome.final_selection.table()
    model = outcome.matcher.model
    if hasattr(model, "feature_importances_"):
        importances = sorted(
            zip(outcome.feature_set.names, model.feature_importances_),
            key=lambda pair: -pair[1],
        )[:5]
        text += "\n\n-- winner's top features --\n" + "\n".join(
            f"  {name:<44} {weight:.3f}" for name, weight in importances
        )
    # feature extraction over the full candidate set, instrumented
    # (the Section-9 hot path: |C| pairs x d features)
    features = base_feature_set(run.projected_v2)
    candidates = run.blocking_v2.candidates
    instr = Instrumentation("extract")
    started = time.perf_counter()
    with EngineSession(instrumentation=instr):
        matrix = extract_feature_vectors(candidates, features)
    serial_s = time.perf_counter() - started
    assert matrix.pairs == candidates.pairs
    assert matrix.values.shape == (len(candidates), len(features))
    text += (
        f"\n\n-- feature extraction over C --\n"
        f"serial={serial_s:.3f}s\n\n"
        + str(instr.report())
    )
    emit_report(
        "sec9_matching", text,
        rows=rows,
        data={
            "extract_serial_seconds": serial_s,
        },
    )

    assert len(outcome.initial_selection.scores) == 6
    assert best.f1 > 0.5
    # adding CI features must not hurt the best achievable F1
    first_best = max(s.f1 for s in outcome.initial_selection.scores)
    assert best.f1 >= first_best - 0.05
    # workflow shape: sure + predicted = total, disjoint
    assert len(outcome.matches) == len(outcome.sure_pairs) + len(outcome.predicted_pairs)
    assert 100 <= len(outcome.sure_pairs) <= 400
    assert len(outcome.predicted_pairs) > len(outcome.sure_pairs)
