"""Sharded blocking ≡ unsharded blocking, bit for bit.

The sharded blockers promise *exact* equality with their unsharded
parents: the same candidate pairs in the same emission order, for any
shard count and any block-size cap. These tests pin that contract —
first on hand-built tables, then property-based over random corpora with
permuted rows and shard counts 1..8.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    BlockSizePolicy,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    ShardedOverlapBlocker,
    ShardedOverlapCoefficientBlocker,
    SortedNeighborhoodBlocker,
    dedupe_candidates,
)
from repro.errors import BlockingError
from repro.runtime.context import EngineSession
from repro.table import Table

WORDS = [f"w{i}" for i in range(12)]

titles_strategy = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=0, max_size=6).map(" ".join),
    min_size=0,
    max_size=24,
)


def tables_from(l_titles, r_titles):
    left = Table(
        {"id": list(range(len(l_titles))), "title": list(l_titles)}, name="L"
    )
    right = Table(
        {"id": list(range(len(r_titles))), "title": list(r_titles)}, name="R"
    )
    return left, right


def pairs_of(blocker, left, right, session=None):
    out = blocker.block_tables(left, right, "id", "id", session=session)
    return list(out.pairs)


def assert_identical(base, sharded, left, right, session=None):
    """Same pairs in the same emission order — the bit-identity contract."""
    assert pairs_of(base, left, right, session) == pairs_of(
        sharded, left, right, session
    )


class TestShardedOverlapIdentity:
    def test_matches_unsharded_over_shard_counts(self):
        l_titles = [" ".join(WORDS[i : i + 4]) for i in range(8)] + ["w0", ""]
        r_titles = [" ".join(WORDS[i : i + 3]) for i in range(9)] + ["w0 w1"]
        left, right = tables_from(l_titles, r_titles)
        base = OverlapBlocker("title", "title", threshold=2)
        for shards in (1, 2, 3, 8):
            sharded = ShardedOverlapBlocker(
                "title", "title", threshold=2, shards=shards
            )
            assert_identical(base, sharded, left, right)

    def test_invalid_shards_rejected(self):
        with pytest.raises(BlockingError):
            ShardedOverlapBlocker("t", "t", shards=0)
        with pytest.raises(BlockingError):
            ShardedOverlapBlocker("t", "t", shards=65)

    @settings(max_examples=50, deadline=None)
    @given(titles_strategy, titles_strategy, st.sampled_from([1, 2, 4, 8]))
    def test_property_identity(self, l_titles, r_titles, shards):
        left, right = tables_from(l_titles, r_titles)
        base = OverlapBlocker("title", "title", threshold=1)
        sharded = ShardedOverlapBlocker(
            "title", "title", threshold=1, shards=shards
        )
        assert_identical(base, sharded, left, right)

    @settings(max_examples=30, deadline=None)
    @given(
        titles_strategy,
        titles_strategy,
        st.sampled_from([1, 3, 8]),
        st.randoms(use_true_random=False),
    )
    def test_property_identity_under_row_permutation(
        self, l_titles, r_titles, shards, rnd
    ):
        """Permuting input rows permutes both outputs identically."""
        l_rows = list(enumerate(l_titles))
        r_rows = list(enumerate(r_titles))
        rnd.shuffle(l_rows)
        rnd.shuffle(r_rows)
        left = Table(
            {"id": [i for i, _ in l_rows], "title": [t for _, t in l_rows]},
            name="L",
        )
        right = Table(
            {"id": [i for i, _ in r_rows], "title": [t for _, t in r_rows]},
            name="R",
        )
        base = OverlapBlocker("title", "title", threshold=2)
        sharded = ShardedOverlapBlocker(
            "title", "title", threshold=2, shards=shards
        )
        assert_identical(base, sharded, left, right)

    @settings(max_examples=30, deadline=None)
    @given(titles_strategy, titles_strategy, st.sampled_from([1, 2, 5]))
    def test_property_identity_capped(self, l_titles, r_titles, cap):
        left, right = tables_from(l_titles, r_titles)
        policy = BlockSizePolicy(max_block_size=cap)
        base = OverlapBlocker(
            "title", "title", threshold=1, block_size_policy=policy
        )
        sharded = ShardedOverlapBlocker(
            "title", "title", threshold=1, shards=4, block_size_policy=policy
        )
        assert_identical(base, sharded, left, right)


class TestShardedCoefficientIdentity:
    @settings(max_examples=50, deadline=None)
    @given(titles_strategy, titles_strategy, st.sampled_from([1, 2, 4, 8]))
    def test_property_identity(self, l_titles, r_titles, shards):
        left, right = tables_from(l_titles, r_titles)
        base = OverlapCoefficientBlocker("title", "title", threshold=0.5)
        sharded = ShardedOverlapCoefficientBlocker(
            "title", "title", threshold=0.5, shards=shards
        )
        assert_identical(base, sharded, left, right)

    @settings(max_examples=25, deadline=None)
    @given(titles_strategy, titles_strategy, st.sampled_from([1, 3]))
    def test_property_identity_capped(self, l_titles, r_titles, cap):
        left, right = tables_from(l_titles, r_titles)
        policy = BlockSizePolicy(max_block_size=cap)
        base = OverlapCoefficientBlocker(
            "title", "title", threshold=0.4, block_size_policy=policy
        )
        sharded = ShardedOverlapCoefficientBlocker(
            "title", "title", threshold=0.4, shards=8, block_size_policy=policy
        )
        assert_identical(base, sharded, left, right)


def flat_counters(instr):
    """Sum every counter across the whole stage tree."""
    totals = {}
    stack = [instr.root]
    while stack:
        node = stack.pop()
        for name, value in node.counters.items():
            totals[name] = totals.get(name, 0) + value
        stack.extend(node.children)
    return totals


class TestCappedAccounting:
    def test_capped_counters_surface(self):
        l_titles = ["w0 w1"] * 6 + ["w2 w3"]
        r_titles = ["w0 w1"] * 6 + ["w2 w3"]
        left, right = tables_from(l_titles, r_titles)
        from repro.runtime.instrument import Instrumentation

        instr = Instrumentation()
        with EngineSession(instrumentation=instr) as session:
            OverlapBlocker(
                "title",
                "title",
                threshold=1,
                block_size_policy=BlockSizePolicy(max_block_size=3),
            ).block_tables(left, right, "id", "id", session=session)
        counters = flat_counters(instr)
        assert counters.get("capped_blocks", 0) >= 1
        assert counters.get("capped_postings", 0) >= 4

    def test_uncapped_run_has_no_cap_counters(self):
        left, right = tables_from(["w0 w1"], ["w0 w1"])
        from repro.runtime.instrument import Instrumentation

        instr = Instrumentation()
        with EngineSession(instrumentation=instr) as session:
            OverlapBlocker("title", "title", threshold=1).block_tables(
                left, right, "id", "id", session=session
            )
        assert "capped_blocks" not in flat_counters(instr)

    def test_incremental_refuses_caps(self):
        left, right = tables_from(["w0"], ["w0"])
        from repro.errors import IncrementalBlockingError

        capped = OverlapBlocker(
            "title", "title", threshold=1, block_size_policy=1
        )
        with pytest.raises(IncrementalBlockingError):
            capped.incremental(right, "id", "id")


class TestSessionPlumbing:
    """dedupe/sorted-neighborhood now route through resolve_session."""

    def test_dedupe_accepts_session(self):
        table = Table(
            {"id": [1, 2, 3], "title": ["w0 w1", "w0 w1", "w5 w6"]}, name="D"
        )
        blocker = OverlapBlocker("title", "title", threshold=2)
        with EngineSession() as session:
            out = dedupe_candidates(table, "id", blocker, session=session)
        assert (1, 2) in set(out.pairs)

    def test_sorted_neighborhood_accepts_session(self):
        table_l = Table(
            {"id": list(range(30)), "name": [f"n{i:03d}" for i in range(30)]},
            name="L",
        )
        table_r = Table(
            {"id": list(range(30)), "name": [f"n{i:03d}" for i in range(0, 60, 2)]},
            name="R",
        )
        blocker = SortedNeighborhoodBlocker("name", "name", window=4)
        ambient = pairs_of(blocker, table_l, table_r)
        assert ambient
        with EngineSession() as session:
            assert pairs_of(blocker, table_l, table_r, session) == ambient
