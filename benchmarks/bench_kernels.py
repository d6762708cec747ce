"""Microbenchmark — kernel families vs their string references.

Times the two deployed kernel families against the references they must
match bit for bit, reports throughput and the kernel-vs-reference speedup
per measure *and per family*, and asserts every value agrees exactly
while timing.

* **batch** — the set kernels in :mod:`repro.similarity.batch` (Jaccard,
  cosine, Dice, overlap coefficient) against the string-set references in
  :mod:`repro.similarity.set_based`, over token sets drawn from the
  full-scale AwardTitle column in the two recipes the case study's
  blockers and features use (whitespace words and 3-grams). Each is timed
  the way extraction runs it: gathering the rows' cached
  :attr:`~repro.runtime.cache.InternedTokens.ids` into two aligned lists,
  then one kernel call for the whole column. Reported as
  ``family_batch_<tok>_speedup`` and asserted ``>= 1.0`` on both
  tokenizations.
* **character** — the character batch kernels (Jaro, Jaro-Winkler,
  Levenshtein similarity) against their scalar references in
  :mod:`repro.similarity.sequence`, one kernel call per input set against
  one reference call per pair, over two inputs the features score:
  AwardTitle word pairs (Monge-Elkan's inner Jaro-Winkler) and the
  transaction-date strings (the ``lev_sim``/``jaro``/``jw`` value
  features). Each measure is reported as
  ``character_<measure>_<input>_speedup`` and asserted ``>= 1.0``.

Per-family speedups are reported under their own keys so a regressing
family cannot hide behind a blended mean. The host's CPU count is
recorded as ``cpu_count``.

Writes ``benchmarks/out/kernels.txt`` + ``.json``; the CI perf-smoke job
runs this bench, re-checks the JSON with
``tools/check_kernel_families.py``, and uploads it as an artifact so
regressions show up as a number, not a feeling.
"""

import os
import random
import time

from repro.runtime.cache import get_default_cache
from repro.similarity import batch
from repro.similarity.sequence import jaro, jaro_winkler, levenshtein_similarity
from repro.similarity.set_based import cosine_set, dice, jaccard, overlap_coefficient
from repro.text.normalize import normalize_title
from repro.text.tokenizers import TOKENIZERS

N_PAIRS = 60_000
N_CHAR_PAIRS = 20_000

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

#: (name, string reference, batch kernel) for the set family
MEASURES = [
    ("jaccard", jaccard, batch.jaccard_batch),
    ("cosine", cosine_set, batch.cosine_batch),
    ("dice", dice, batch.dice_batch),
    ("overlap_coefficient", overlap_coefficient, batch.overlap_coefficient_batch),
]


def _title_pairs(table, attr, tokenizer, rng):
    """(string set, string set, entry, entry) for sampled row pairs.

    The string sets come straight from the reference recipe
    ``frozenset(tokenizer(str(normalize_title(cell))))``; the entries from
    the token cache.
    """
    entries = get_default_cache().column_token_ids(
        table, attr, tokenizer, normalize_title
    )
    tokens = [
        None if entry is None else frozenset(tokenizer(str(normalize_title(value))))
        for entry, value in zip(entries, table[attr])
    ]
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
    """One production-shaped batch call: gather the id sets, score once."""
    started = time.perf_counter()
    out = kernel([e.ids for e in a_entries], [e.ids for e in b_entries])
    return list(out), time.perf_counter() - started


def test_kernel_throughput(run, emit_report):
    tables = run.projected
    rng = random.Random(20260806)
    cpu_count = os.cpu_count()
    lines = [
        "Kernel families vs string references (full-scale AwardTitle)",
        "------------------------------------------------------------",
        f"host CPUs: {cpu_count}",
        f"pairs per measure: {N_PAIRS}  (values asserted equal while timing)",
        "batch = id-set gather + one kernel call per column (deployed hot path)",
        "",
    ]
    data = {
        "n_pairs": N_PAIRS,
        "cpu_count": cpu_count,
        "deployed_families": list(batch.DEPLOYED_FAMILIES),
    }

    for tok_name in ("ws", "qgm_3"):
        tokenizer = TOKENIZERS[tok_name]
        pairs = _title_pairs(tables.umetrics, "AwardTitle", tokenizer, rng)
        token_volume = sum(len(a) + len(b) for a, b, _, _ in pairs)
        str_args = [(a, b) for a, b, _, _ in pairs]
        a_entries = [ea for _, _, ea, _ in pairs]
        b_entries = [eb for _, _, _, eb in pairs]
        lines.append(f"[{tok_name}] ~{token_volume / len(pairs):.1f} tokens/pair")
        speedups = []
        for name, reference, batch_kernel in MEASURES:
            expected, ref_s = _timed_loop(reference, str_args)
            got, batch_s = _timed_batch(batch_kernel, a_entries, b_entries)
            assert got == expected, f"{name}/{tok_name}: batch kernel diverged"
            speedup = ref_s / batch_s
            speedups.append(speedup)
            data[f"{name}_{tok_name}_ref_s"] = ref_s
            data[f"{name}_{tok_name}_batch_kernel_s"] = batch_s
            data[f"{name}_{tok_name}_batch_speedup"] = speedup
            lines.append(
                f"  {name:<20} ref {len(pairs) / ref_s:>9.0f} calls/s"
                f"  batch {speedup:.2f}x"
                f"  ({token_volume / batch_s / 1e6:.1f}M tokens/s batch)"
            )
        mean = sum(speedups) / len(speedups)
        data[f"family_batch_{tok_name}_speedup"] = mean
        lines += [f"  family mean: batch {mean:.2f}x", ""]

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
    lines += [
        "",
        "deployed families (each asserted >= 1.0x): "
        + ", ".join(batch.DEPLOYED_FAMILIES),
    ]

    # Per-family gates: every deployed family must beat its references.
    for tok_name in ("ws", "qgm_3"):
        key = f"family_batch_{tok_name}_speedup"
        assert data[key] >= 1.0, (
            f"deployed batch family slower than string references on "
            f"{tok_name} ({data[key]:.2f}x)"
        )
    for name, _, _ in CHARACTER_MEASURES:
        for input_name in ("tokens", "dates"):
            key = f"character_{name}_{input_name}_speedup"
            assert data[key] >= 1.0, f"{key} = {data[key]:.2f}x"
    emit_report("kernels", "\n".join(lines), data=data)
