"""Every overlap-family layout against the string reference.

The two token blockers share one id-based probe
(:mod:`repro.blocking.overlap_family`), run in three layouts: batch,
sharded, and the incremental delta handle. Each combination of
predicate, layout and block-size cap must emit exactly the pairs — and
in exactly the order — of the ``frozenset[str]`` reference in
``tests/blocking_reference.py``.
"""

import pytest
from hypothesis import given, settings
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

from .blocking_reference import block_pairs
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
UPSERT_BATCH = 3


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
        for start in range(0, len(left), UPSERT_BATCH):
            rows = list(range(start, min(start + UPSERT_BATCH, len(left))))
            batch = left.take(rows)
            assert handle.upsert(batch) == block_pairs(base, batch, right, "id", "id")


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
