"""Every overlap-family layout against the string reference.

The two token blockers share one id-based probe
(:mod:`repro.blocking.overlap_family`), run in three layouts: batch,
sharded, and the incremental handle's per-batch preview. Each combination of
predicate, layout and block-size cap must emit exactly the pairs — and
in exactly the order — of the ``frozenset[str]`` reference in
``tests/blocking_reference.py``.

The coefficient blocker verifies only the candidates its size-split
prefix filter lets through, while the reference
(``probe_coefficient_chunk``) verifies every pair sharing a probe token.
Its own differential test draws records long enough, over a vocabulary
skewed enough, that prefixes are shorter than records, at thresholds on
the edges of ``ceil``, with str and int ids.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocking import (
    OverlapBlocker,
    OverlapCoefficientBlocker,
    ShardedOverlapBlocker,
    ShardedOverlapCoefficientBlocker,
)
from repro.errors import IncrementalBlockingError
from repro.runtime.context import EngineSession
from repro.runtime.instrument import Instrumentation
from repro.table import Table
from repro.text.tokenizers import whitespace

from .blocking_reference import block_pairs, tokens_by_id
from .test_sharded_blocking import flat_counters

WORDS = [f"w{i}" for i in range(10)]

titles_strategy = st.lists(
    st.one_of(
        st.none(),
        st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join),
    ),
    max_size=20,
)
predicate_strategy = st.one_of(
    st.tuples(st.just("overlap"), st.integers(1, 3)),
    st.tuples(st.just("coefficient"), st.sampled_from([0.3, 0.5, 0.7, 1.0])),
)

SHARDS = (1, 3, 8)
CAPS = (None, 2)
PREVIEW_BATCH = 3


def table(titles, name):
    return Table({"id": list(range(len(titles))), "title": list(titles)}, name=name)


def make_blocker(predicate, cap, shards=None):
    kind, threshold = predicate
    kwargs = {"block_size_policy": cap}
    if kind == "overlap":
        if shards is None:
            return OverlapBlocker("title", "title", threshold, **kwargs)
        return ShardedOverlapBlocker("title", "title", threshold, shards=shards, **kwargs)
    if shards is None:
        return OverlapCoefficientBlocker("title", "title", threshold, **kwargs)
    return ShardedOverlapCoefficientBlocker(
        "title", "title", threshold, shards=shards, **kwargs
    )


@settings(max_examples=60, deadline=None)
@given(titles_strategy, titles_strategy, predicate_strategy)
def test_every_layout_matches_reference(l_titles, r_titles, predicate):
    left, right = table(l_titles, "L"), table(r_titles, "R")
    for cap in CAPS:
        base = make_blocker(predicate, cap)
        expected = block_pairs(base, left, right, "id", "id")
        assert base.block_tables(left, right, "id", "id").pairs == expected, cap
        for shards in SHARDS:
            sharded = make_blocker(predicate, cap, shards)
            got = sharded.block_tables(left, right, "id", "id").pairs
            assert got == expected, (cap, shards)
        if cap is not None:
            with pytest.raises(IncrementalBlockingError):
                base.incremental(right, "id", "id")
            continue
        handle = base.incremental(right, "id", "id")
        for start in range(0, len(left), PREVIEW_BATCH):
            rows = list(range(start, min(start + PREVIEW_BATCH, len(left))))
            batch = left.take(rows)
            assert handle.preview(batch) == block_pairs(base, batch, right, "id", "id")


@pytest.mark.parametrize("predicate", [("overlap", 1), ("coefficient", 0.5)])
def test_capped_records_agree_across_layouts(predicate):
    # "w0" and "w1" each post 3 right records, over the cap of 2, so left
    # record 0 probes nothing; record 1 still finds its match.
    left = table(["w0 w1", "w2 w3"], "L")
    right = table(["w0 w1", "w0 w1", "w0 w1", "w2 w3"], "R")
    for shards in (None, 1, 3):
        blocker = make_blocker(predicate, 2, shards)
        instr = Instrumentation()
        with EngineSession(instrumentation=instr) as session:
            out = blocker.block_tables(left, right, "id", "id", session=session)
        assert list(out.pairs) == [(1, 3)], shards
        assert flat_counters(instr)["capped_records"] == 1, shards


@pytest.mark.parametrize("shards", [None, 3])
def test_uncapped_run_records_no_capped_records(shards):
    instr = Instrumentation()
    blocker = make_blocker(("overlap", 1), None, shards)
    with EngineSession(instrumentation=instr) as session:
        blocker.block_tables(
            table(["w0"], "L"), table(["w0"], "R"), "id", "id", session=session
        )
    assert "capped_records" not in flat_counters(instr)


#: A few common words and many rare ones: doc frequencies differ, so the
#: rank-ordered prefixes pick rare tokens and prune the common ones.
COMMON = [f"c{i}" for i in range(4)]
RARE = [f"r{i}" for i in range(40)]
word_strategy = st.one_of(st.sampled_from(COMMON), st.sampled_from(RARE))
cell_strategy = st.one_of(
    st.none(),
    st.just(""),
    st.lists(word_strategy, min_size=1, max_size=12).map(" ".join),
)
cells_strategy = st.lists(cell_strategy, max_size=25)
#: Thresholds on the edges of ``ceil(t * m)`` for small m.
COEFFICIENT_EDGES = (0.34, 0.5, 0.67, 0.7, 1.0)


def keyed_table(titles, name, str_ids):
    """A title table keyed by str ids, or by int ids whose set order is
    not their sorted order."""
    ids = [f"{name}{i}" if str_ids else 7919 * i for i in range(len(titles))]
    return Table({"id": ids, "title": list(titles)}, name=name)


@settings(max_examples=150, deadline=None)
@given(
    cells_strategy, cells_strategy, st.sampled_from(COEFFICIENT_EDGES), st.booleans()
)
# one-token records
@example(["r1", "c0", "r2"], ["r1", "r1 c0", "c0", "c0 r2 r3"], 0.5, False)
# repeated tokens
@example(["c0 c0 r1 r1 r2", "r1 r1"], ["c0 r1", "r1 r1 c0", "r2 c0 c0"], 0.67, True)
# equal sizes
@example(["c0 c1 r2", "c1 c2 r3"], ["c0 c1 r3", "c0 r2 r3", "c1 c2 r3"], 0.67, False)
# left tokens absent from the right side, empty and missing cells
@example(["r9 r8 r7 r6 c0 c1", "", None], ["c0 c1", "c0 c1 c2", None, ""], 0.34, True)
def test_coefficient_probe_matches_unfiltered_oracle(l_titles, r_titles, threshold, str_ids):
    left = keyed_table(l_titles, "L", str_ids)
    right = keyed_table(r_titles, "R", str_ids)
    for cap in CAPS:
        blocker = OverlapCoefficientBlocker("title", "title", threshold, block_size_policy=cap)
        expected = block_pairs(blocker, left, right, "id", "id")
        assert blocker.block_tables(left, right, "id", "id").pairs == expected, cap
    handle = OverlapCoefficientBlocker("title", "title", threshold).incremental(
        right, "id", "id"
    )
    for start in range(0, len(left), PREVIEW_BATCH):
        batch = left.take(list(range(start, min(start + PREVIEW_BATCH, len(left)))))
        assert handle.preview(batch) == block_pairs(
            handle.blocker, batch, right, "id", "id"
        )


def verified_pairs(blocker, left, right):
    """``(pairs_verified counter, pairs handed to the keep-mask)``."""
    handed = []
    keep_mask = blocker._keep_mask

    def spy(cand_a, cand_b, threshold):
        handed.append(len(cand_a))
        return keep_mask(cand_a, cand_b, threshold)

    blocker._keep_mask = spy
    instr = Instrumentation()
    with EngineSession(instrumentation=instr) as session:
        blocker.block_tables(left, right, "id", "id", session=session)
    return flat_counters(instr)["pairs_verified"], sum(handed)


def test_pairs_verified_counts_the_keep_mask_input():
    # "c0" posts every right record; the rare tokens post one each
    left = table(["r0 r1 r2 r3 c0", "r4 c0"], "L")
    right = table([f"c0 r{i}" for i in range(5, 25)] + ["r0 r1 r2 r3 c0", "r4 c0"], "R")
    l_tokens = tokens_by_id(left, "title", "id", whitespace)
    r_tokens = tokens_by_id(right, "title", "id", whitespace)
    unfiltered = sum(1 for a in l_tokens.values() for b in r_tokens.values() if a & b)
    coefficient = OverlapCoefficientBlocker("title", "title", 0.7)
    verified, handed = verified_pairs(coefficient, left, right)
    assert verified == handed
    assert verified < unfiltered
    assert list(coefficient.block_tables(left, right, "id", "id").pairs) == [(0, 20), (1, 21)]
    verified, handed = verified_pairs(OverlapBlocker("title", "title", 3), left, right)
    assert verified == handed == 1
