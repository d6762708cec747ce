"""Microbenchmark — kernel *families* vs their string references.

Times every set-measure kernel family against the string-set reference it
must match bit-for-bit, over token sets drawn from the full-scale
AwardTitle column (whitespace words and 3-grams — the recipes the case
study's blockers and features actually use), plus the threshold-banded
Levenshtein (per-pair and batch) against the unbounded reference DP.
Reports throughput and the kernel-vs-reference speedup per measure *and
per family*, and asserts every value agrees exactly while timing.

Two set-measure families are timed, each against the same reference:

* **set** — the per-pair id-frozenset kernels (``*_id_sets``); deployed
  as the per-pair shape, family mean asserted ``>= 1.0`` on both
  tokenizations;
* **batch** — the chunk-columnar kernels in
  :mod:`repro.similarity.batch`, timed the way production runs them: one
  :class:`~repro.runtime.columnar.TokenColumn` build plus one kernel
  call per chunk (construction included in the timing). Deployed on the
  extraction and blocker hot loops; family mean asserted ``>= 1.0`` on
  both tokenizations *and* no slower than the set family on qgm_3, where
  per-pair call overhead weighs most.

The two families' qgm_3 speedups sit within a few percent of each
other, inside one host's run-to-run spread, so the batch-vs-set gate is
not read off the family means. Instead both families score the same
qgm_3 pairs in :data:`ROUNDS` interleaved rounds (the order alternating
per round), and the gate asserts that the median of the per-round
``set time / batch time`` ratios is ``>= 1.0``
(``batch_vs_set_qgm_3_median_ratio``).

Per-family speedups are reported under ``family_<fam>_<tok>_speedup``
keys so a regressing family cannot hide behind a blended mean.

A third family, **character**, times the character batch kernels
(Jaro, Jaro-Winkler, Levenshtein similarity) against their scalar
references in :mod:`repro.similarity.sequence`, one kernel call per input
set against one reference call per pair, over two inputs the features
score: AwardTitle word pairs (Monge-Elkan's inner Jaro-Winkler) and the
transaction-date strings (the ``lev_sim``/``jaro``/``jw`` value
features). Each measure is reported as
``character_<measure>_<input>_speedup`` and asserted ``>= 1.0``.

Writes ``benchmarks/out/kernels.txt`` + ``.json``; the CI perf-smoke job
runs this bench, re-checks the JSON with
``tools/check_kernel_families.py``, and uploads it as an artifact so
regressions show up as a number, not a feeling.
"""

import random
import time

from repro.runtime.cache import get_default_cache
from repro.runtime.columnar import TokenColumn
from repro.similarity import batch, kernels
from repro.similarity.sequence import (
    jaro,
    jaro_winkler,
    levenshtein_distance,
    levenshtein_similarity,
)
from repro.similarity.set_based import (
    cosine_set,
    dice,
    jaccard,
    overlap_coefficient,
    overlap_size,
)
from repro.text.normalize import normalize_title
from repro.text.tokenizers import TOKENIZERS

N_PAIRS = 60_000
N_LEV_PAIRS = 1_500
LEV_BOUND = 4
N_CHAR_PAIRS = 20_000
#: interleaved batch-vs-set rounds on qgm_3 (odd, so the median is a round)
ROUNDS = 7

#: (name, scalar reference, batch kernel) for the character family
CHARACTER_MEASURES = [
    ("jaro", jaro, batch.jaro_batch),
    ("jaro_winkler", jaro_winkler, batch.jaro_winkler_batch),
    (
        "levenshtein_similarity",
        levenshtein_similarity,
        batch.levenshtein_similarity_batch,
    ),
]

#: (name, string reference, set kernel, batch kernel)
MEASURES = [
    ("jaccard", jaccard, kernels.jaccard_id_sets, batch.jaccard_batch),
    ("cosine", cosine_set, kernels.cosine_id_sets, batch.cosine_batch),
    ("dice", dice, kernels.dice_id_sets, batch.dice_batch),
    (
        "overlap_coefficient",
        overlap_coefficient,
        kernels.overlap_coefficient_id_sets,
        batch.overlap_coefficient_batch,
    ),
    ("overlap_size", overlap_size, kernels.overlap_size_id_sets, batch.overlap_size_batch),
]


def _title_pairs(table, attr, tokenizer, rng):
    """(string sets, interned entries) for sampled row pairs."""
    cache = get_default_cache()
    tokens = cache.column_tokens(table, attr, tokenizer, normalize_title)
    entries = cache.column_token_ids(table, attr, tokenizer, normalize_title)
    rows = [i for i, t in enumerate(tokens) if t]
    pairs = []
    for _ in range(N_PAIRS):
        i, j = rng.choice(rows), rng.choice(rows)
        pairs.append((tokens[i], tokens[j], entries[i], entries[j]))
    return pairs


def _timed_loop(fn, args_list):
    started = time.perf_counter()
    out = [fn(*args) for args in args_list]
    return out, time.perf_counter() - started


def _character_inputs(tables, rng):
    """{input name: (left strings, right strings)} of N_CHAR_PAIRS each."""
    words = sorted({
        word
        for value in tables.umetrics["AwardTitle"] + tables.usda["AwardTitle"]
        if value is not None
        for word in TOKENIZERS["ws"](str(value))
    })
    dates = [
        str(value)
        for attr in ("FirstTransDate", "LastTransDate")
        for table in (tables.umetrics, tables.usda)
        for value in table[attr]
        if value is not None
    ]
    inputs = {}
    for name, pool in (("tokens", words), ("dates", dates)):
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(N_CHAR_PAIRS)]
        inputs[name] = ([a for a, _ in pairs], [b for _, b in pairs])
    return inputs


def _timed_batch(kernel, a_entries, b_entries):
    """One production-shaped batch call: column build + chunk scoring."""
    started = time.perf_counter()
    col_a = TokenColumn.from_entries(a_entries)
    col_b = TokenColumn.from_entries(b_entries)
    out = kernel(col_a, col_b)
    return list(out), time.perf_counter() - started


def _family_round(family, set_args, a_entries, b_entries):
    """Seconds one family spends scoring every measure once."""
    spent = 0.0
    for _, _, set_kernel, batch_kernel in MEASURES:
        if family == "set":
            spent += _timed_loop(set_kernel, set_args)[1]
        else:
            spent += _timed_batch(batch_kernel, a_entries, b_entries)[1]
    return spent


def _batch_vs_set_ratios(set_args, a_entries, b_entries):
    """Per-round ``set seconds / batch seconds``, families interleaved."""
    ratios = []
    for round_no in range(ROUNDS):
        order = ("set", "batch") if round_no % 2 == 0 else ("batch", "set")
        spent = {
            family: _family_round(family, set_args, a_entries, b_entries)
            for family in order
        }
        ratios.append(spent["set"] / spent["batch"])
    return ratios


def test_kernel_throughput(run, emit_report):
    tables = run.projected
    rng = random.Random(20260806)
    lines = [
        "Kernel families vs string references (full-scale AwardTitle)",
        "------------------------------------------------------------",
        f"pairs per measure: {N_PAIRS}  (values asserted equal while timing)",
        "set   = per-pair id-frozenset kernel (deployed per-pair shape)",
        "batch = chunk-columnar kernel incl. TokenColumn build (deployed hot path)",
        "",
    ]
    data = {
        "n_pairs": N_PAIRS,
        "deployed_families": list(batch.DEPLOYED_FAMILIES),
    }

    family_speedups = {}
    for tok_name in ("ws", "qgm_3"):
        tokenizer = TOKENIZERS[tok_name]
        pairs = _title_pairs(tables.umetrics, "AwardTitle", tokenizer, rng)
        token_volume = sum(len(a) + len(b) for a, b, _, _ in pairs)
        str_args = [(a, b) for a, b, _, _ in pairs]
        set_args = [(ea.ids, eb.ids) for _, _, ea, eb in pairs]
        a_entries = [ea for _, _, ea, _ in pairs]
        b_entries = [eb for _, _, _, eb in pairs]
        lines.append(f"[{tok_name}] ~{token_volume / len(pairs):.1f} tokens/pair")
        speedups = {"set": [], "batch": []}
        for name, reference, set_kernel, batch_kernel in MEASURES:
            expected, ref_s = _timed_loop(reference, str_args)
            got_set, set_s = _timed_loop(set_kernel, set_args)
            got_batch, batch_s = _timed_batch(batch_kernel, a_entries, b_entries)
            assert got_set == expected, f"{name}/{tok_name}: set kernel diverged"
            assert got_batch == expected, f"{name}/{tok_name}: batch kernel diverged"
            data[f"{name}_{tok_name}_ref_s"] = ref_s
            for family, spent in (("set", set_s), ("batch", batch_s)):
                speedup = ref_s / spent
                speedups[family].append(speedup)
                data[f"{name}_{tok_name}_{family}_kernel_s"] = spent
                data[f"{name}_{tok_name}_{family}_speedup"] = speedup
            lines.append(
                f"  {name:<20} ref {len(pairs) / ref_s:>9.0f} calls/s"
                f"  set {ref_s / set_s:.2f}x"
                f"  batch {ref_s / batch_s:.2f}x"
                f"  ({token_volume / batch_s / 1e6:.1f}M tokens/s batch)"
            )
        for family, values in speedups.items():
            mean = sum(values) / len(values)
            family_speedups[(family, tok_name)] = mean
            data[f"family_{family}_{tok_name}_speedup"] = mean
        lines.append(
            "  family means: "
            + "  ".join(
                f"{family} {family_speedups[(family, tok_name)]:.2f}x"
                for family in ("set", "batch")
            )
        )
        lines.append("")
        if tok_name == "qgm_3":
            qgm_inputs = (set_args, a_entries, b_entries)

    ratios = _batch_vs_set_ratios(*qgm_inputs)
    median_ratio = sorted(ratios)[len(ratios) // 2]
    data["batch_vs_set_qgm_3_ratios"] = ratios
    data["batch_vs_set_qgm_3_median_ratio"] = median_ratio
    lines += [
        f"batch vs set on qgm_3, {ROUNDS} interleaved rounds "
        "(set seconds / batch seconds per round):",
        "  " + "  ".join(f"{r:.3f}" for r in ratios)
        + f"   median {median_ratio:.3f}",
        "",
    ]

    # character family: one batch call per input set vs scalar calls
    lines.append(
        f"character family ({N_CHAR_PAIRS} pairs per input; batch = one "
        "kernel call, ref = one scalar call per pair)"
    )
    for input_name, (col_a, col_b) in _character_inputs(tables, rng).items():
        speedups = []
        for name, reference, kernel in CHARACTER_MEASURES:
            expected, ref_s = _timed_loop(reference, list(zip(col_a, col_b)))
            started = time.perf_counter()
            got = kernel(col_a, col_b).tolist()
            kern_s = time.perf_counter() - started
            assert got == expected, f"{name}/{input_name}: batch kernel diverged"
            speedup = ref_s / kern_s
            speedups.append(speedup)
            data[f"character_{name}_{input_name}_ref_s"] = ref_s
            data[f"character_{name}_{input_name}_batch_s"] = kern_s
            data[f"character_{name}_{input_name}_speedup"] = speedup
            lines.append(
                f"  [{input_name}] {name:<24} ref {len(col_a) / ref_s:>9.0f} calls/s"
                f"  batch {ref_s / kern_s:.2f}x"
            )
        data[f"family_character_{input_name}_speedup"] = sum(speedups) / len(speedups)
    lines.append("")

    # threshold-banded Levenshtein vs the unbounded reference
    titles = [
        str(normalize_title(v))
        for v in tables.umetrics["AwardTitle"][:400]
        if v is not None
    ]
    lev_pairs = [
        (rng.choice(titles), rng.choice(titles)) for _ in range(N_LEV_PAIRS)
    ]
    expected, ref_s = _timed_loop(levenshtein_distance, lev_pairs)
    capped = [min(d, LEV_BOUND + 1) for d in expected]
    bounded, kern_s = _timed_loop(
        lambda a, b: kernels.levenshtein_bounded(a, b, LEV_BOUND), lev_pairs
    )
    assert bounded == capped
    started = time.perf_counter()
    batched = batch.levenshtein_bounded_batch(
        [a for a, _ in lev_pairs], [b for _, b in lev_pairs], LEV_BOUND
    )
    batch_lev_s = time.perf_counter() - started
    assert list(batched) == capped
    data["levenshtein_bounded_speedup"] = ref_s / kern_s
    data["levenshtein_batch_speedup"] = ref_s / batch_lev_s
    data["levenshtein_bound"] = LEV_BOUND
    lines += [
        f"  levenshtein_bounded(k={LEV_BOUND}) vs full DP on {N_LEV_PAIRS} "
        f"title pairs: per-pair {ref_s / kern_s:.2f}x, "
        f"batch {ref_s / batch_lev_s:.2f}x",
        "",
        "deployed families (each asserted >= 1.0x): "
        + ", ".join(batch.DEPLOYED_FAMILIES),
    ]

    # Per-family gates: every *deployed* family must beat the string
    # reference on both tokenizations, and the batch family must beat the
    # per-pair set family on qgm_3 (where per-pair call overhead weighs
    # most).
    for family in ("set", "batch"):
        for tok_name in ("ws", "qgm_3"):
            mean = family_speedups[(family, tok_name)]
            assert mean >= 1.0, (
                f"deployed {family} family slower than string references "
                f"on {tok_name} ({mean:.2f}x)"
            )
    assert data["levenshtein_bounded_speedup"] >= 1.0
    assert data["levenshtein_batch_speedup"] >= 1.0
    for name, _, _ in CHARACTER_MEASURES:
        for input_name in ("tokens", "dates"):
            key = f"character_{name}_{input_name}_speedup"
            assert data[key] >= 1.0, f"{key} = {data[key]:.2f}x"
    assert median_ratio >= 1.0, (
        f"batch family slower than per-pair set kernels on qgm_3: median "
        f"set/batch time ratio {median_ratio:.3f} over {ROUNDS} interleaved "
        f"rounds {[round(r, 3) for r in ratios]}"
    )
    emit_report("kernels", "\n".join(lines), data=data)
