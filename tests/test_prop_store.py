"""Property-based tests for store fingerprints and blocker invariants.

Uses a lightweight in-repo generator (seeded ``numpy`` RNG, fixed case
count) for the table properties, which need breadth over random tables,
not shrinking; the pair-list fast path is checked with hypothesis.

Properties:

* equal content => equal fingerprint (table names and object identity
  never matter);
* any single-cell or single-parameter perturbation => different
  fingerprint (the store can never serve stale artifacts);
* ``fingerprint_pairs`` equals the generic walk over ``[list(p) ...]``
  for str, int and mixed ids, and for ids its fast path does not take;
* canonical encoding separates types (``1`` vs ``1.0`` vs ``"1"`` vs
  ``[1]``) and ignores dict ordering;
* metamorphic: permuting the row order of blocker inputs never changes
  the candidate pair *set* a blocker produces;
* segment fingerprints: editing k rows changes exactly the digests of
  the segments containing them, tables sharing a row range share those
  segments' digests, and :func:`~repro.store.segmented_block` both
  reproduces ``block_tables`` bit-identically and recomputes only the
  invalidated segments on a patched rerun.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.blocking import (
    AttrEquivalenceBlocker,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    RuleBasedBlocker,
)
from repro.errors import IncrementalBlockingError, UncacheableError
from repro.runtime.context import EngineSession
from repro.store import (
    ArtifactStore,
    fingerprint_blocker,
    fingerprint_pairs,
    fingerprint_table,
    fingerprint_table_segments,
    fingerprint_value,
    segment_bounds,
    segmented_block,
)
from repro.store.fingerprint import fingerprint_positions
from repro.table import Table

N_CASES = 25
WORDS = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "research", "award", "project", "study", "corn",
    "soy", "wheat", "genome", "soil", "water",
]


def random_table(rng: np.random.Generator, n_rows: int | None = None,
                 name: str = "T") -> Table:
    """A random two-attribute table shaped like the case study's inputs."""
    if n_rows is None:
        n_rows = int(rng.integers(2, 12))
    ids = list(range(1, n_rows + 1))
    nums = [
        None if rng.random() < 0.2
        else f"{rng.choice(['A', 'B', 'C'])}{rng.integers(100, 999)}"
        for _ in ids
    ]
    titles = [
        " ".join(rng.choice(WORDS, size=rng.integers(1, 7)).tolist())
        for _ in ids
    ]
    return Table({"id": ids, "num": nums, "title": titles}, name=name)


def permuted(table: Table, rng: np.random.Generator, name: str = "") -> Table:
    """The same rows in a shuffled order (a fresh Table object)."""
    order = rng.permutation(len(table))
    return Table(
        {c: [table[c][i] for i in order] for c in table.columns},
        name=name or table.name,
    )


def copy_with_cell(table: Table, row: int, col: str, value) -> Table:
    columns = {c: list(table[c]) for c in table.columns}
    columns[col][row] = value
    return Table(columns, name=table.name)


class TestFingerprintEquality:
    def test_equal_tables_equal_keys(self):
        rng = np.random.default_rng(1)
        for _ in range(N_CASES):
            t = random_table(rng)
            clone = Table({c: list(t[c]) for c in t.columns}, name="renamed")
            assert fingerprint_table(t) == fingerprint_table(clone)

    def test_fingerprint_stable_across_calls(self):
        rng = np.random.default_rng(2)
        t = random_table(rng)
        assert fingerprint_table(t) == fingerprint_table(t)

    def test_equal_blockers_equal_keys(self):
        a = OverlapBlocker("title", "title", threshold=3)
        b = OverlapBlocker("title", "title", threshold=3)
        assert fingerprint_blocker(a) == fingerprint_blocker(b)

    def test_equal_values_equal_keys(self):
        assert fingerprint_value({"a": 1, "b": 2}) == fingerprint_value(
            {"b": 2, "a": 1}
        )


class TestFingerprintPerturbation:
    def test_any_cell_perturbation_changes_key(self):
        rng = np.random.default_rng(3)
        for _ in range(N_CASES):
            t = random_table(rng)
            row = int(rng.integers(0, len(t)))
            col = str(rng.choice(["num", "title"]))
            old = t[col][row]
            new = old + "!" if isinstance(old, str) else "X1"
            edited = copy_with_cell(t, row, col, new)
            assert fingerprint_table(t) != fingerprint_table(edited), (
                f"cell ({row}, {col}) edit not detected"
            )

    def test_dropping_a_row_changes_key(self):
        rng = np.random.default_rng(4)
        t = random_table(rng, n_rows=6)
        shorter = Table({c: list(t[c])[:-1] for c in t.columns}, name=t.name)
        assert fingerprint_table(t) != fingerprint_table(shorter)

    def test_renaming_a_column_changes_key(self):
        rng = np.random.default_rng(5)
        t = random_table(rng, n_rows=4)
        renamed = Table(
            {("attr" if c == "num" else c): list(t[c]) for c in t.columns},
            name=t.name,
        )
        assert fingerprint_table(t) != fingerprint_table(renamed)

    @pytest.mark.parametrize(
        "a, b",
        [
            (OverlapBlocker("title", "title", threshold=3),
             OverlapBlocker("title", "title", threshold=4)),
            (OverlapBlocker("title", "title"),
             OverlapBlocker("num", "title")),
            (OverlapCoefficientBlocker("title", "title", threshold=0.7),
             OverlapCoefficientBlocker("title", "title", threshold=0.8)),
            (AttrEquivalenceBlocker("num", "num"),
             AttrEquivalenceBlocker("num", "title")),
            (OverlapBlocker("title", "title", threshold=3),
             OverlapCoefficientBlocker("title", "title", threshold=0.7)),
        ],
    )
    def test_any_param_perturbation_changes_key(self, a, b):
        assert fingerprint_blocker(a) != fingerprint_blocker(b)

    def test_pair_order_matters_for_pair_lists(self):
        # pair *lists* are ordered artifacts (matrices index into them)
        assert fingerprint_pairs([(1, 2), (3, 4)]) != fingerprint_pairs(
            [(3, 4), (1, 2)]
        )


def generic_pairs_fingerprint(pairs) -> str:
    return fingerprint_value([list(p) for p in pairs])


ID_STRATEGIES = {
    "str": st.text(),  # includes non-ASCII and surrogate-free code points
    "int": st.integers(),
    "mixed": st.one_of(st.text(max_size=4), st.integers(-3, 3)),
}


class TestPairFingerprintFastPath:
    @pytest.mark.parametrize("kind", sorted(ID_STRATEGIES))
    def test_equals_generic_walk(self, kind):
        ids = ID_STRATEGIES[kind]

        @given(st.lists(st.tuples(ids, ids), max_size=30))
        def check(pairs):
            assert fingerprint_pairs(pairs) == generic_pairs_fingerprint(pairs)
            as_lists = [list(p) for p in pairs]
            assert fingerprint_pairs(as_lists) == generic_pairs_fingerprint(pairs)

        check()

    @pytest.mark.parametrize(
        "pairs",
        [
            [],
            [("é", "日本"), ("\u00e9", "e\u0301")],
            [(1, "1"), ("1", 1)],
            [(True, 1), (1, True)],
            [(np.int64(3), 4)],
            [(1.0, 2)],
            [(1, 2, 3)],
            [(1, 2), (3,)],
            [((1, 2), "x")],
        ],
    )
    def test_edge_ids_equal_generic_walk(self, pairs):
        assert fingerprint_pairs(pairs) == generic_pairs_fingerprint(pairs)

    def test_bool_and_int_ids_differ(self):
        assert fingerprint_pairs([(1, 0)]) != fingerprint_pairs([(True, False)])


class TestPositionFingerprint:
    """``fingerprint_positions`` equals ``fingerprint_pairs`` of the
    pairs its positions name, for every id type."""

    @pytest.mark.parametrize("kind", sorted(ID_STRATEGIES))
    def test_equals_tuple_fingerprint(self, kind):
        ids = ID_STRATEGIES[kind]

        @given(
            st.lists(ids, min_size=1, max_size=8),
            st.lists(ids, min_size=1, max_size=8),
            st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=30),
        )
        def check(l_ids, r_ids, rows):
            rows = [(i % len(l_ids), j % len(r_ids)) for i, j in rows]
            l_pos = np.array([i for i, _ in rows], dtype=np.int64)
            r_pos = np.array([j for _, j in rows], dtype=np.int64)
            pairs = [(l_ids[i], r_ids[j]) for i, j in rows]
            assert fingerprint_positions(l_ids, r_ids, l_pos, r_pos) == (
                fingerprint_pairs(pairs)
            )

        check()

    @pytest.mark.parametrize(
        "l_ids, r_ids",
        [
            ([True, 1], [1, True]),
            ([np.int64(3)], [4]),
            ([1.0], [2]),
            (["é"], ["e\u0301"]),
        ],
    )
    def test_edge_ids(self, l_ids, r_ids):
        l_pos = np.zeros(3, dtype=np.int64)
        r_pos = np.array([0, len(r_ids) - 1, 0], dtype=np.int64)
        pairs = [(l_ids[0], r_ids[j]) for j in r_pos.tolist()]
        assert fingerprint_positions(l_ids, r_ids, l_pos, r_pos) == (
            generic_pairs_fingerprint(pairs)
        )


class TestCanonicalEncoding:
    @pytest.mark.parametrize(
        "a, b",
        [
            (1, 1.0),
            (1, "1"),
            (1, [1]),
            (1, True),
            (0, False),
            ("", None),
            ([1, 2], (2, 1)),
            ({"a": 1}, [("a", 1)]),
            ([[1], [2]], [[1, 2]]),
            ("ab", ["a", "b"]),
        ],
    )
    def test_type_and_shape_separation(self, a, b):
        assert fingerprint_value(a) != fingerprint_value(b)

    def test_list_and_tuple_of_same_items_agree(self):
        # sequences are interchangeable on purpose: pairs arrive as both
        assert fingerprint_value([1, 2]) == fingerprint_value((1, 2))

    def test_numpy_scalars_match_python(self):
        assert fingerprint_value(np.int64(7)) == fingerprint_value(7)
        assert fingerprint_value(np.float64(0.5)) == fingerprint_value(0.5)

    def test_nan_is_stable(self):
        assert fingerprint_value(float("nan")) == fingerprint_value(float("nan"))


BLOCKERS = [
    AttrEquivalenceBlocker("num", "num"),
    OverlapBlocker("title", "title", threshold=2),
    OverlapCoefficientBlocker("title", "title", threshold=0.6),
]


class TestRowOrderMetamorphic:
    @pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
    def test_row_permutation_preserves_pair_set(self, blocker):
        rng = np.random.default_rng(6)
        for case in range(N_CASES):
            left = random_table(rng, name="L")
            right = random_table(rng, name="R")
            base = blocker.block_tables(left, right, "id", "id")
            shuffled = blocker.block_tables(
                permuted(left, rng), permuted(right, rng), "id", "id"
            )
            assert base.pair_set() == shuffled.pair_set(), (
                f"case {case}: {blocker.short_name} pair set changed "
                f"under row permutation"
            )

    @pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
    def test_row_permutation_changes_table_fingerprint(self, blocker):
        # complements the invariant above: the *store* treats a permuted
        # table as different input (row order is content), so a permuted
        # rerun recomputes — and, per the metamorphic property, arrives at
        # the same pair set.
        rng = np.random.default_rng(7)
        t = random_table(rng, n_rows=8)
        p = permuted(t, rng)
        if all(list(t[c]) == list(p[c]) for c in t.columns):
            pytest.skip("permutation happened to be identity")
        assert fingerprint_table(t) != fingerprint_table(p)


class TestSegmentFingerprints:
    def test_bounds_cover_rows_exactly_once(self):
        for n_rows in (0, 1, 7, 8, 9, 16):
            bounds = segment_bounds(n_rows, 4)
            covered = [i for start, stop in bounds for i in range(start, stop)]
            assert covered == list(range(n_rows))

    def test_invalid_segment_size_rejected(self):
        with pytest.raises(UncacheableError, match="rows_per_segment"):
            segment_bounds(10, 0)

    def test_equal_content_equal_segment_digests(self):
        rng = np.random.default_rng(30)
        t = random_table(rng, n_rows=10)
        clone = Table({c: list(t[c]) for c in t.columns}, name="renamed")
        assert fingerprint_table_segments(t, 4) == fingerprint_table_segments(
            clone, 4
        )

    def test_row_edit_invalidates_only_its_segment(self):
        rng = np.random.default_rng(31)
        for case in range(N_CASES):
            t = random_table(rng, n_rows=20)
            base = fingerprint_table_segments(t, 4)
            row = int(rng.integers(0, len(t)))
            edited = copy_with_cell(t, row, "title", t["title"][row] + "!")
            digests = fingerprint_table_segments(edited, 4)
            changed = [
                i for i, (a, b) in enumerate(zip(base, digests)) if a != b
            ]
            assert changed == [row // 4], (
                f"case {case}: row {row} edit invalidated segments {changed}"
            )

    def test_k_row_edits_invalidate_exactly_their_segments(self):
        rng = np.random.default_rng(32)
        t = random_table(rng, n_rows=24)
        base = fingerprint_table_segments(t, 4)
        rows = [1, 10, 11, 21]
        edited = t
        for row in rows:
            edited = copy_with_cell(edited, row, "title", "corn soy wheat")
        digests = fingerprint_table_segments(edited, 4)
        changed = {i for i, (a, b) in enumerate(zip(base, digests)) if a != b}
        assert changed == {row // 4 for row in rows}

    def test_shared_row_ranges_share_digests_across_tables(self):
        # appending rows leaves every full prefix segment's digest intact,
        # so a patched copy reuses the original's artifacts
        rng = np.random.default_rng(33)
        t = random_table(rng, n_rows=8)
        extra = random_table(rng, n_rows=4)
        extended = Table(
            {c: list(t[c]) + list(extra[c]) for c in t.columns}, name="ext"
        )
        assert (
            fingerprint_table_segments(extended, 4)[:2]
            == fingerprint_table_segments(t, 4)
        )


class TestSegmentedBlock:
    @pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
    def test_bit_equal_and_partial_invalidation(self, blocker, tmp_path):
        rng = np.random.default_rng(34)
        left = random_table(rng, n_rows=40, name="L")
        right = random_table(rng, n_rows=12, name="R")
        patched = copy_with_cell(left, 3, "title", "corn soy wheat genome")
        # references computed OUTSIDE the store session, so the ledger
        # below counts only segment stages
        reference = blocker.block_tables(left, right, "id", "id")
        patched_reference = blocker.block_tables(patched, right, "id", "id")
        store = ArtifactStore(tmp_path / "store")
        with EngineSession(store=store):
            cold = segmented_block(
                blocker, left, right, "id", "id", rows_per_segment=8
            )
            warm = segmented_block(
                blocker, left, right, "id", "id", rows_per_segment=8
            )
            delta = segmented_block(
                blocker, patched, right, "id", "id", rows_per_segment=8
            )
        assert cold.pairs == list(reference.pairs)
        assert warm.pairs == cold.pairs
        assert delta.pairs == list(patched_reference.pairs)
        stats = store.stats()
        # cold: all 5 segments compute; warm: all hit; patched rerun:
        # only row 3's segment recomputes, the other 4 hit
        assert stats.misses == 5 + 1
        assert stats.hits == 5 + 4

    def test_rejects_non_incremental_blocker(self, tmp_path):
        rng = np.random.default_rng(35)
        left, right = random_table(rng, name="L"), random_table(rng, name="R")
        with pytest.raises(IncrementalBlockingError, match="segment-cached"):
            segmented_block(
                RuleBasedBlocker(lambda l, r: True), left, right, "id", "id"
            )
