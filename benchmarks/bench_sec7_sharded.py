"""Section 7 at scale — capped overlap blocking over the streaming generator.

Runs the ``sharded_overlap`` blocker kind (block-size caps; ``shards``
is carried in its payload but no longer changes how it runs) over the
deterministic scale corpus at two sizes and gates the properties
large-scale blocking depends on:

* **bit-identity** — the ``sharded_overlap`` kind emits exactly the
  ``overlap`` blocker's pairs (values *and* order);
* **sub-linear candidate growth** — with caps on, a 10x bigger corpus
  grows candidates < 10x (uncapped token blocking is quadratic in the
  oversized blocks);
* **bounded peak RSS** — the whole run stays inside the committed
  trend band (``sec7_sharded.peak_rss_bytes``).

Timings compare like with like. Every arm runs in its own explicit
session over one token cache per corpus, which an untimed first run
fills, so no arm pays tokenisation that another skips; each warm figure
is the median of ``WARM_REPEATS`` runs. The first, cold run (tokenising
both tables) is reported on its own line.

CI runs 10k -> 100k rows; ``REPRO_SCALE_FULL=1`` scales to 1M rows.
"""

import os
import statistics
import time

from repro.blocking import BlockSizePolicy, OverlapBlocker, ShardedOverlapBlocker
from repro.datasets import ScaleConfig, scale_tables
from repro.obs.resources import ResourceSampler
from repro.runtime import EngineSession, TokenCache

FULL = os.environ.get("REPRO_SCALE_FULL") == "1"
SMALL_ROWS = 10_000
LARGE_ROWS = 1_000_000 if FULL else 100_000
CAP = BlockSizePolicy(max_block_size=40)
THRESHOLD = 3  # overlap K, matching the paper's Section-7 choice
WARM_REPEATS = 3


def timed_pairs(blocker, left, right, session):
    started = time.perf_counter()
    out = blocker.block_tables(left, right, "id", "id", session=session)
    return list(out.pairs), time.perf_counter() - started


def warm_arm(blocker, left, right, cache):
    """``(pairs, median seconds)`` of warm runs in a session of its own."""
    with EngineSession(token_cache=cache) as session:
        runs = [
            timed_pairs(blocker, left, right, session) for _ in range(WARM_REPEATS)
        ]
    assert all(pairs == runs[0][0] for pairs, _ in runs)
    return runs[0][0], statistics.median(seconds for _, seconds in runs)


def test_sec7_sharded(emit_report):
    sampler = ResourceSampler()
    base = OverlapBlocker(
        "title", "title", threshold=THRESHOLD, block_size_policy=CAP
    )
    sharded = ShardedOverlapBlocker(
        "title", "title", threshold=THRESHOLD, shards=8, block_size_policy=CAP
    )

    def run_scale(rows):
        left, right, _ = scale_tables(ScaleConfig(rows=rows))
        cache = TokenCache()
        with EngineSession(token_cache=cache) as session:
            cold_pairs, cold_s = timed_pairs(base, left, right, session)
        base_pairs, base_s = warm_arm(base, left, right, cache)
        sharded_pairs, sharded_s = warm_arm(sharded, left, right, cache)
        identical = cold_pairs == base_pairs == sharded_pairs
        return identical, base_pairs, cold_s, base_s, sharded_s

    small_ok, small_pairs, small_cold, small_base, small_sharded = (
        run_scale(SMALL_ROWS)
    )
    large_ok, large_pairs, large_cold, large_base, large_sharded = (
        run_scale(LARGE_ROWS)
    )
    identity_ok = small_ok and large_ok
    assert identity_ok, "every arm must emit the overlap blocker's pairs exactly"

    growth_ratio = len(large_pairs) / max(len(small_pairs), 1)
    scale_factor = LARGE_ROWS / SMALL_ROWS
    assert growth_ratio < scale_factor, (
        f"capped candidate growth must be sub-linear: {growth_ratio:.1f}x "
        f"pairs for {scale_factor:.0f}x rows"
    )

    peak_rss = sampler.snapshot().peak_rss_bytes or 0

    def timing_line(rows, cold, base_s, sharded_s):
        return (
            f"  @ {rows:,} rows: cold first run {cold:.2f}s; warm overlap "
            f"{base_s:.2f}s, sharded_overlap {sharded_s:.2f}s\n"
        )

    text = (
        f"Section 7 at scale — capped overlap blocking ({SMALL_ROWS:,} -> "
        f"{LARGE_ROWS:,} rows, cap={CAP.max_block_size}, shards=8, "
        f"{os.cpu_count()} CPUs)\n"
        f"  bit-identity (sharded_overlap ≡ overlap): "
        f"{'ok' if identity_ok else 'FAIL'}\n"
        f"  candidates: {len(small_pairs):,} @ {SMALL_ROWS:,} -> "
        f"{len(large_pairs):,} @ {LARGE_ROWS:,} "
        f"(growth {growth_ratio:.1f}x for {scale_factor:.0f}x rows)\n"
        + timing_line(SMALL_ROWS, small_cold, small_base, small_sharded)
        + timing_line(LARGE_ROWS, large_cold, large_base, large_sharded)
        + f"  (warm = median of {WARM_REPEATS} runs on a filled token cache)\n"
        f"  peak RSS: {peak_rss / 1e9:.2f} GB"
    )
    data = {
        "rows_small": SMALL_ROWS,
        "rows_large": LARGE_ROWS,
        "cpu_count": os.cpu_count(),
        "identity_ok": int(identity_ok),
        "candidates_small": len(small_pairs),
        "candidates_large": len(large_pairs),
        "candidate_growth_ratio": growth_ratio,
        "cold_seconds_large": large_cold,
        "overlap_seconds_large": large_base,
        "serial_seconds_large": large_sharded,
        "peak_rss_bytes": peak_rss,
    }
    emit_report("sec7_sharded", text, data=data)
