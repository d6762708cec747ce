"""Microbenchmark — CART forest fit, prediction and leave-one-out.

Times the learners of :mod:`repro.ml` against the per-feature, per-row
reference in ``tests/ml_reference.py`` (one sort per candidate feature per
split, one Python walk per row per tree, a vote loop over the trees), and
asserts bit-identical outputs while timing: byte-equal serialised forests,
``np.array_equal`` probabilities and equal leave-one-out predictions.

The input is Section-8 sized: the label debugger's random forest
(30 trees, ``min_samples_leaf=2``) over 78 labelled pairs (29 Yes and
49 No, the Unsure pairs removed) by the 21 base features. The matrix is
seeded and synthetic — similarity scores in [0, 1] rounded to two places,
higher for pairs that look like matches, with exact-match 0/1 columns,
many ties and six mislabelled rows — so the bench needs no case-study run.

Reported speedups are reference time / new time, each side's median over
interleaved repetitions:

* ``fit_speedup`` — one forest fit;
* ``predict_speedup`` — the smaller of the 1-row and 5,000-row
  ``predict_proba`` speedups (a served record and a candidate set);
* ``loo_speedup`` — one ``leave_one_out_predictions`` pass (78 fits).

Writes ``benchmarks/out/ml.txt`` + ``.json`` and a history record; the CI
perf-smoke job gates the speedups with ``tools/check_bench_trend.py ml``.
"""

import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.core.serialize import serialize_model  # noqa: E402
from repro.ml import RandomForestClassifier, leave_one_out_predictions  # noqa: E402
from tests.ml_reference import ReferenceForest  # noqa: E402

N_YES, N_NO, N_FEATURES = 29, 49, 21
N_MISLABELLED = 6
FOREST = {"n_trees": 30, "min_samples_leaf": 2, "seed": 0}
FIT_REPEATS = 15
PREDICT_ROWS = 5_000
PREDICT_REPEATS = 7
SINGLE_ROW_CALLS = 200


def section8_matrix(seed: int = 20261017) -> tuple[np.ndarray, np.ndarray]:
    """A seeded labelled sample shaped like the Section-8 debugging input."""
    rng = np.random.default_rng(seed)
    y = np.array([1] * N_YES + [0] * N_NO)
    rng.shuffle(y)
    looks = y.copy()  # a few labelling errors for the debugger to flag
    looks[rng.choice(len(y), size=N_MISLABELLED, replace=False)] ^= 1
    centre = np.where(looks[:, None] == 1, 0.7, 0.3)
    X = np.clip(centre + rng.normal(0.0, 0.25, (len(y), N_FEATURES)), 0.0, 1.0)
    X = np.round(X, 2)
    exact = [3, 11, 16]  # exact-string features: 0/1, mostly agreeing
    X[:, exact] = rng.random((len(y), len(exact))) < np.where(looks[:, None] == 1, 0.8, 0.1)
    return X, y


def _timed(fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def _fit(cls, X, y):
    return cls(**FOREST).fit(X, y)


def _single_rows(model, rows):
    return np.concatenate([model.predict_proba(rows[i : i + 1]) for i in range(len(rows))])


def _payload(model) -> str:
    return json.dumps(serialize_model(model), sort_keys=True)


def test_ml_speed(emit_report):
    X, y = section8_matrix()
    rows = np.random.default_rng(7).random((PREDICT_ROWS, N_FEATURES))
    sides = {"reference": ReferenceForest, "new": RandomForestClassifier}
    times = {(side, what): [] for side in sides for what in ("fit", "batch", "single")}

    # interleave the two sides so host-speed drift hits both alike
    for _ in range(FIT_REPEATS):
        fitted = {}
        for side, cls in sides.items():
            fitted[side], spent = _timed(_fit, cls, X, y)
            times[(side, "fit")].append(spent)
        assert _payload(fitted["new"]) == _payload(fitted["reference"])
    for _ in range(PREDICT_REPEATS):
        batch, single = {}, {}
        for side in sides:
            batch[side], spent = _timed(fitted[side].predict_proba, rows)
            times[(side, "batch")].append(spent)
            single[side], spent = _timed(_single_rows, fitted[side], rows[:SINGLE_ROW_CALLS])
            times[(side, "single")].append(spent)
        assert np.array_equal(batch["new"], batch["reference"])
        assert np.array_equal(single["new"], single["reference"])
        assert np.array_equal(single["new"], batch["new"][:SINGLE_ROW_CALLS])
    loo = {}
    for side, cls in sides.items():
        loo[side], times[(side, "loo")] = _timed(
            leave_one_out_predictions, cls(**FOREST), X, y
        )
    assert np.array_equal(loo["new"], loo["reference"])

    median = {key: statistics.median(v) if isinstance(v, list) else v for key, v in times.items()}

    def speedup(what):
        return median[("reference", what)] / median[("new", what)]

    data = {
        "cpu_count": os.cpu_count(),
        "rows": len(y),
        "features": N_FEATURES,
        "n_trees": FOREST["n_trees"],
        "fit_speedup": speedup("fit"),
        "predict_batch_speedup": speedup("batch"),
        "predict_single_speedup": speedup("single"),
        "predict_speedup": min(speedup("batch"), speedup("single")),
        "loo_speedup": speedup("loo"),
        "loo_discrepancies": int((loo["new"] != y).sum()),
    }
    for (side, what), value in median.items():
        data[f"{side}_{what}_s"] = value
    lines = [
        "CART forest: one-pass split search + packed prediction vs per-feature/per-row reference",
        "------------------------------------------------------------------------------------",
        f"input: {len(y)} labelled rows x {N_FEATURES} features (seeded, Section-8 shaped); "
        f"forest {FOREST}; host CPUs {os.cpu_count()}",
        "outputs asserted bit-identical while timing (payloads, probabilities, LOO labels)",
        "",
        f"{'operation':<34}{'reference':>12}{'new':>12}{'speedup':>10}",
    ]
    for what, label, scale, unit in (
        ("fit", "forest fit", 1e3, "ms"),
        ("batch", f"predict_proba, {PREDICT_ROWS} rows", 1e3, "ms"),
        ("single", f"predict_proba, 1 row x {SINGLE_ROW_CALLS}", 1e3, "ms"),
        ("loo", f"leave-one-out ({len(y)} fits)", 1.0, "s"),
    ):
        lines.append(
            f"{label:<34}{median[('reference', what)] * scale:>10.2f}{unit}"
            f"{median[('new', what)] * scale:>10.2f}{unit}{speedup(what):>9.2f}x"
        )
    lines += [
        "",
        f"medians of {FIT_REPEATS} fits / {PREDICT_REPEATS} predictions per side; "
        f"leave-one-out timed once; {data['loo_discrepancies']} LOO discrepancies",
    ]
    emit_report("ml", "\n".join(lines), data=data)

    assert data["fit_speedup"] > 1.0
    assert data["predict_speedup"] > 1.0
    assert data["loo_speedup"] > 1.0
