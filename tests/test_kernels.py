"""Parity tests for the interned-id and batch-columnar kernels.

Three layers, matching the guarantees the kernels make:

* **Kernel parity** (property-based): every kernel in
  :mod:`repro.similarity.kernels` returns *bit-identical* values to its
  string/set reference on randomized unicode token multisets — including
  empty sets, single tokens, and any interning order (results must depend
  on id consistency, never on id values).
* **Batch parity** (property-based): every ``*_batch`` kernel in
  :mod:`repro.similarity.batch` matches its string reference *and* its
  per-pair kernel element for element — under duplicate rows, permuted
  chunk order, re-sliced chunk boundaries, a pickled CSR round trip
  (the worker wire format), and missing (``None``) rows mapping to NaN.
* **End-to-end bit-identity**: the small-scenario blocking plan and
  feature extraction produce the same candidate pairs (pair for pair, in
  order) and the same feature matrix (cell for cell) as the string
  references in ``tests/blocking_reference.py`` — including empty
  candidate sets, single-pair chunks, and records with empty token sets.
"""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.vectors import _monge_elkan_ids, extract_feature_vectors
from repro.runtime.columnar import TokenColumn, gather_column
from repro.similarity import batch, kernels
from repro.similarity.hybrid import monge_elkan
from repro.similarity.sequence import levenshtein_distance
from repro.similarity.set_based import (
    cosine_set,
    dice,
    jaccard,
    overlap_coefficient,
    overlap_size,
)
from repro.text.intern import Vocabulary, id_array
from repro.text.tokenizers import whitespace

from .blocking_reference import block_pairs, debug_blocker_top, extract_rows

# Unicode-heavy alphabet: ascii, accents, CJK, an astral-plane char.
TOKEN_ALPHABET = "abcxyz0189éüñßλжя中文字\U0001f600-"

token = st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=6)
token_sets = st.frozensets(token, max_size=12)
token_bags = st.lists(token, max_size=10)


def interned(vocab: Vocabulary, tokens: frozenset, seed: int):
    """Sorted unique id array + id frozenset, interned in a random order."""
    shuffled = sorted(tokens)
    random.Random(seed).shuffle(shuffled)
    ids = [vocab.intern(t) for t in shuffled]
    return id_array(sorted(ids)), frozenset(ids)


SET_PARITY_CASES = [
    (jaccard, kernels.jaccard_id_sets),
    (dice, kernels.dice_id_sets),
    (cosine_set, kernels.cosine_id_sets),
    (overlap_coefficient, kernels.overlap_coefficient_id_sets),
    (overlap_size, kernels.overlap_size_id_sets),
]


class TestSetKernelParity:
    @settings(max_examples=200, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 2**31))
    def test_measures_bit_identical(self, a, b, seed):
        # One shared vocabulary, randomized interning order: parity must
        # hold for any id assignment, shared ids included.
        vocab = Vocabulary()
        _, sa = interned(vocab, a, seed)
        _, sb = interned(vocab, b, seed + 1)
        for reference, kernel in SET_PARITY_CASES:
            assert kernel(sa, sb) == reference(a, b), kernel.__name__
        assert kernels.intersect_count(sa, sb) == overlap_size(a, b)

    @settings(max_examples=200, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 5), st.integers(0, 2**31))
    def test_bounded_variants(self, a, b, k, seed):
        vocab = Vocabulary()
        _, sa = interned(vocab, a, seed)
        _, sb = interned(vocab, b, seed + 1)
        exact = len(a & b)
        assert kernels.intersect_count(sa, sb) == exact
        assert kernels.overlap_at_least(sa, sb, k) == (exact >= k)

    @settings(max_examples=150, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 2**31), st.integers(0, 2**31))
    def test_vocabulary_permutation_invariance(self, a, b, seed1, seed2):
        # Two vocabularies interning in different orders assign different
        # ids; every kernel value must be unchanged.
        v1, v2 = Vocabulary(), Vocabulary()
        _, sa1 = interned(v1, a, seed1)
        _, sb1 = interned(v1, b, seed1 + 1)
        _, sa2 = interned(v2, a, seed2)
        _, sb2 = interned(v2, b, seed2 + 1)
        for _, kernel in SET_PARITY_CASES:
            assert kernel(sa1, sb1) == kernel(sa2, sb2), kernel.__name__

    def test_edge_cases(self):
        empty, single = frozenset(), frozenset({1})
        assert kernels.jaccard_id_sets(empty, empty) == jaccard(frozenset(), frozenset()) == 1.0
        assert kernels.dice_id_sets(empty, single) == dice(frozenset(), frozenset("x")) == 0.0
        assert kernels.cosine_id_sets(single, empty) == 0.0
        assert kernels.overlap_coefficient_id_sets(empty, empty) == 1.0
        assert kernels.overlap_size_id_sets(single, single) == 1
        assert kernels.overlap_at_least(empty, single, 0) is True
        assert kernels.overlap_at_least(empty, single, 1) is False


#: (string reference, per-pair id-frozenset kernel, batch kernel)
BATCH_PARITY_CASES = [
    (jaccard, kernels.jaccard_id_sets, batch.jaccard_batch),
    (dice, kernels.dice_id_sets, batch.dice_batch),
    (cosine_set, kernels.cosine_id_sets, batch.cosine_batch),
    (
        overlap_coefficient,
        kernels.overlap_coefficient_id_sets,
        batch.overlap_coefficient_batch,
    ),
    (overlap_size, kernels.overlap_size_id_sets, batch.overlap_size_batch),
]

row_pairs = st.lists(st.tuples(token_sets, token_sets), max_size=8)


def _interned_rows(rows, seed):
    """Parallel (string pairs, id-frozenset pairs) under one vocabulary."""
    vocab = Vocabulary()
    sa_col, sb_col = [], []
    for i, (a, b) in enumerate(rows):
        _, sa = interned(vocab, a, seed + 2 * i)
        _, sb = interned(vocab, b, seed + 2 * i + 1)
        sa_col.append(sa)
        sb_col.append(sb)
    return sa_col, sb_col


class TestBatchKernelParity:
    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 2**31))
    def test_bit_identical_to_reference_and_per_pair(self, rows, seed):
        # Duplicate the chunk: identical rows must score identically and
        # independently of their position.
        rows = rows + rows
        sa_col, sb_col = _interned_rows(rows, seed)
        col_a = TokenColumn.from_sets(sa_col)
        col_b = TokenColumn.from_sets(sb_col)
        for reference, per_pair, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(col_a, col_b))
            assert got == [reference(a, b) for a, b in rows], batch_kernel.__name__
            assert got == [
                per_pair(sa, sb) for sa, sb in zip(sa_col, sb_col)
            ], batch_kernel.__name__

    @settings(max_examples=75, deadline=None)
    @given(row_pairs, st.integers(0, 2**31))
    def test_permuted_chunk_permutes_scores_and_nothing_else(self, rows, seed):
        sa_col, sb_col = _interned_rows(rows, seed)
        perm = list(range(len(rows)))
        random.Random(seed).shuffle(perm)
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            base = list(batch_kernel(
                TokenColumn.from_sets(sa_col), TokenColumn.from_sets(sb_col)
            ))
            permuted = list(batch_kernel(
                TokenColumn.from_sets(sa_col[i] for i in perm),
                TokenColumn.from_sets(sb_col[i] for i in perm),
            ))
            assert permuted == [base[i] for i in perm], batch_kernel.__name__

    @settings(max_examples=75, deadline=None)
    @given(row_pairs, st.integers(0, 2**31), st.data())
    def test_chunk_boundaries_are_invisible(self, rows, seed, data):
        # Scoring slices [0, cut) and [cut, n) — including the empty and
        # single-row slices — concatenates to scoring the whole chunk,
        # and survives the pickled CSR round trip workers see.
        sa_col, sb_col = _interned_rows(rows, seed)
        col_a = TokenColumn.from_sets(sa_col)
        col_b = TokenColumn.from_sets(sb_col)
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            whole = list(batch_kernel(col_a, col_b))
            parts = []
            for start, stop in ((0, cut), (cut, len(rows))):
                shipped_a = pickle.loads(pickle.dumps(col_a.slice(start, stop)))
                shipped_b = pickle.loads(pickle.dumps(col_b.slice(start, stop)))
                parts.extend(batch_kernel(shipped_a, shipped_b))
            assert parts == whole, batch_kernel.__name__

    def test_missing_rows_score_nan(self):
        col_a = TokenColumn.from_sets([frozenset({1, 2}), None, frozenset()])
        col_b = TokenColumn.from_sets([None, frozenset({1}), frozenset()])
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(col_a, col_b))
            assert math.isnan(got[0]) and math.isnan(got[1]), batch_kernel.__name__
        # both-empty rows score by the references, not NaN
        assert batch.jaccard_batch(col_a, col_b)[2] == 1.0
        assert batch.overlap_size_batch(col_a, col_b)[2] == 0.0

    def test_empty_chunk_scores_to_empty_array(self):
        col = TokenColumn.from_sets([])
        for _, _, batch_kernel in BATCH_PARITY_CASES:
            out = batch_kernel(col, col)
            assert len(out) == 0 and out.typecode == "d", batch_kernel.__name__

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            batch.jaccard_batch(
                TokenColumn.from_sets([frozenset()]), TokenColumn.from_sets([])
            )

    def test_score_batch_dispatches_and_rejects_unknown(self):
        col = TokenColumn.from_sets([frozenset({1}), frozenset({1, 2})])
        assert list(batch.score_batch("jac", col, col)) == [1.0, 1.0]
        with pytest.raises(KeyError):
            batch.score_batch("no_such_measure", col, col)


class TestBatchKeepMasks:
    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 4), st.integers(0, 2**31))
    def test_overlap_mask_matches_per_pair_predicate(self, rows, k, seed):
        sa_col, sb_col = _interned_rows(rows, seed)
        mask = batch.overlap_at_least_batch(
            TokenColumn.from_sets(sa_col), TokenColumn.from_sets(sb_col), k
        )
        assert [bool(bit) for bit in mask] == [
            kernels.overlap_at_least(sa, sb, k)
            for sa, sb in zip(sa_col, sb_col)
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        row_pairs,
        st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.0]),
        st.integers(0, 2**31),
    )
    def test_coefficient_mask_matches_string_verification(self, rows, t, seed):
        # The reference is the exact two-step check the string-path
        # blocker performs per candidate: size-aware count bound, then
        # the coefficient itself.
        sa_col, sb_col = _interned_rows(rows, seed)
        mask = batch.overlap_coefficient_at_least_batch(
            TokenColumn.from_sets(sa_col), TokenColumn.from_sets(sb_col), t
        )
        expected = []
        for a, b in rows:
            needed = math.ceil(t * min(len(a), len(b)) - 1e-9)
            expected.append(
                len(a & b) >= needed
                and overlap_coefficient(a, b) >= t - 1e-12
            )
        assert [bool(bit) for bit in mask] == expected

    def test_coefficient_mask_empty_sets(self):
        col_a = TokenColumn.from_sets([frozenset(), frozenset(), frozenset({1})])
        col_b = TokenColumn.from_sets([frozenset(), frozenset({1}), frozenset()])
        # both-empty has coefficient 1.0 (kept); one-empty 0.0 (dropped)
        assert list(batch.overlap_coefficient_at_least_batch(col_a, col_b, 0.7)) == [
            1,
            0,
            0,
        ]


class TestLevenshteinBatch:
    text = st.text(alphabet=TOKEN_ALPHABET + " ", max_size=12)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(text, text), max_size=8), st.integers(0, 6))
    def test_equals_per_pair_and_clamped_reference(self, rows, k):
        rows = rows + rows  # duplicates must not perturb the reused buffers
        got = list(
            batch.levenshtein_bounded_batch(
                [a for a, _ in rows], [b for _, b in rows], k
            )
        )
        assert got == [kernels.levenshtein_bounded(a, b, k) for a, b in rows]
        assert got == [min(levenshtein_distance(a, b), k + 1) for a, b in rows]

    def test_rejects_negative_bound_and_mismatched_lengths(self):
        with pytest.raises(ValueError):
            batch.levenshtein_bounded_batch(["a"], ["b"], -1)
        with pytest.raises(ValueError):
            batch.levenshtein_bounded_batch(["a"], [], 2)


class TestTokenColumn:
    def test_entries_back_the_cached_frozensets(self):
        vocab = Vocabulary()
        _, sa = interned(vocab, frozenset({"a", "b"}), 0)

        class Entry:  # minimal InternedTokens stand-in
            def __init__(self, ids):
                self.ids = ids
                self.sorted = id_array(sorted(ids))

        entry = Entry(sa)
        col = TokenColumn.from_entries([entry, None, entry])
        assert len(col) == 3
        sets = col.sets()
        assert sets[0] is sa and sets[2] is sa  # zero-copy: same object
        assert sets[1] is None

    def test_pickle_ships_csr_and_round_trips(self):
        col = TokenColumn.from_sets([frozenset({3, 1}), None, frozenset()])
        shipped = pickle.loads(pickle.dumps(col))
        assert shipped.sets() == (frozenset({1, 3}), None, frozenset())
        offsets, data, missing = shipped.csr()
        assert list(offsets) == [0, 2, 2, 2]
        assert list(data) == [1, 3]
        assert missing == (1,)

    def test_slice_of_csr_backed_column(self):
        col = pickle.loads(
            pickle.dumps(
                TokenColumn.from_sets(
                    [frozenset({1}), None, frozenset({2, 3}), frozenset()]
                )
            )
        )
        assert col.slice(1, 3).sets() == (None, frozenset({2, 3}))
        assert col.slice(2, 2).sets() == ()

    def test_gather_column_indexes_rows(self):
        vocab = Vocabulary()
        _, sa = interned(vocab, frozenset({"x"}), 0)

        class Entry:
            def __init__(self, ids):
                self.ids = ids
                self.sorted = id_array(sorted(ids))

        column = (Entry(sa), None, Entry(sa))
        gathered = gather_column(column, [2, 0, 1])
        assert gathered.sets() == (sa, sa, None)


class TestMongeElkanParity:
    @settings(max_examples=150, deadline=None)
    @given(token_bags, token_bags, st.integers(0, 2**31))
    def test_bit_identical_to_reference(self, a, b, seed):
        vocab = Vocabulary()
        warm = sorted(set(a) | set(b))
        random.Random(seed).shuffle(warm)
        for t in warm:  # randomize id assignment
            vocab.intern(t)
        ia = vocab.intern_all(a)
        ib = vocab.intern_all(b)
        token_map = {tid: vocab.token_of(tid) for tid in set(ia) | set(ib)}
        jw_memo: dict = {}
        assert _monge_elkan_ids(ia, ib, token_map, jw_memo) == monge_elkan(a, b)
        # memoized second call returns the same float
        assert _monge_elkan_ids(ia, ib, token_map, jw_memo) == monge_elkan(a, b)


class TestLevenshteinBounded:
    text = st.text(alphabet=TOKEN_ALPHABET + " ", max_size=12)

    @settings(max_examples=250, deadline=None)
    @given(text, text, st.integers(0, 6))
    def test_equals_clamped_reference(self, a, b, k):
        assert kernels.levenshtein_bounded(a, b, k) == min(
            levenshtein_distance(a, b), k + 1
        )

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            kernels.levenshtein_bounded("a", "b", -1)


# ----------------------------------------------------------------------
# end-to-end bit-identity: id paths vs the string references
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def projected(case_study):
    return case_study.projected


def _args(projected):
    return (projected.umetrics, projected.usda, projected.l_key, projected.r_key)


def test_blocking_plan_bit_identical(projected):
    from repro.casestudy.blocking_plan import make_blockers, run_blocking

    outcome = run_blocking(projected)
    _, overlap, coefficient = make_blockers()
    assert outcome.c2.pairs == block_pairs(overlap, *_args(projected))
    assert outcome.c3.pairs == block_pairs(coefficient, *_args(projected))
    assert list(outcome.debugger_top) == debug_blocker_top(
        outcome.candidates, [("AwardTitle", "AwardTitle")], 100
    )


def test_feature_matrix_bit_identical(projected):
    from repro.casestudy.blocking_plan import run_blocking
    from repro.casestudy.matching import base_feature_set
    from repro.features.generate import add_case_insensitive_variants

    candidates = run_blocking(projected).candidates
    fs = add_case_insensitive_variants(
        base_feature_set(projected), attrs=["AwardTitle"]
    )
    kernel = extract_feature_vectors(candidates, fs)
    assert kernel.pairs == candidates.pairs
    assert kernel.feature_names == fs.names
    assert np.array_equal(extract_rows(candidates, fs), kernel.values, equal_nan=True)
    # spot-check: matrices are finite where defined and non-degenerate
    assert np.isfinite(kernel.values[~np.isnan(kernel.values)]).all()


def test_overlap_blocker_kernel_off_matches_on(projected):
    """The id probe against the string probe (the former kernel-off path)."""
    from repro.blocking import OverlapBlocker

    blocker = OverlapBlocker("AwardTitle", "AwardTitle", threshold=3)
    kernel = blocker.block_tables(*_args(projected))
    assert kernel.pairs == block_pairs(blocker, *_args(projected))


def test_coefficient_blocker_kernel_off_matches_on(projected):
    """The id probe against the string probe (the former kernel-off path)."""
    from repro.blocking import OverlapCoefficientBlocker
    from repro.text.normalize import normalize_title

    blocker = OverlapCoefficientBlocker(
        "AwardTitle", "AwardTitle", threshold=0.7,
        tokenizer=whitespace, normalizer=normalize_title,
    )
    kernel = blocker.block_tables(*_args(projected))
    assert kernel.pairs == block_pairs(blocker, *_args(projected))


# ----------------------------------------------------------------------
# chunk-boundary edge cases surfaced by the batch refactor
# ----------------------------------------------------------------------


def _edge_tables():
    """Tiny tables exercising empty token sets and missing cells."""
    from repro.table import Table

    left = Table(
        {
            "id": [1, 2, 3, 4],
            "title": [
                "corn fungicide guidelines",
                "",  # tokenizes to the empty set
                None,  # missing cell
                "swamp dodder ecology",
            ],
        },
        name="L",
    )
    right = Table(
        {
            "id": [10, 20, 30, 40],
            "title": [
                "corn fungicide handbook",
                "swamp dodder ecology",
                "",
                None,
            ],
        },
        name="R",
    )
    return left, right


def _edge_matrix(pairs):
    """(reference values, kernel matrix) for *pairs*."""
    from repro.blocking.candidate_set import CandidateSet
    from repro.features.generate import generate_features

    left, right = _edge_tables()
    candidates = CandidateSet(left, right, "id", "id", pairs)
    fs = generate_features(left, right, exclude_attrs=["id"])
    return extract_rows(candidates, fs), extract_feature_vectors(candidates, fs)


def test_empty_candidate_chunk_extraction():
    reference, kernel = _edge_matrix([])
    assert kernel.pairs == []
    assert reference.shape == kernel.values.shape
    assert kernel.values.shape[0] == 0


def test_single_pair_chunk_extraction():
    reference, kernel = _edge_matrix([(1, 10)])
    assert kernel.pairs == [(1, 10)]
    assert np.array_equal(reference, kernel.values, equal_nan=True)


def test_empty_and_missing_token_sets_extraction():
    # Rows pairing empty token sets with non-empty, empty-with-empty, and
    # missing cells must score identically on the batch and string paths
    # (missing cells as NaN on both).
    pairs = [(1, 10), (2, 30), (2, 20), (3, 10), (1, 40), (4, 20)]
    reference, kernel = _edge_matrix(pairs)
    assert kernel.pairs == pairs
    assert np.array_equal(reference, kernel.values, equal_nan=True)
    missing_rows = [pairs.index((3, 10)), pairs.index((1, 40))]
    names = kernel.feature_names
    token_cols = [i for i, n in enumerate(names) if "_jac_" in n or "_cos_" in n]
    assert token_cols, names
    for row in missing_rows:
        for col in token_cols:
            assert math.isnan(kernel.values[row, col])


def test_blockers_tolerate_empty_token_records():
    from repro.blocking import OverlapBlocker, OverlapCoefficientBlocker

    left, right = _edge_tables()
    for blocker in (
        OverlapBlocker("title", "title", threshold=2),
        OverlapCoefficientBlocker("title", "title", threshold=0.5),
    ):
        kernel = blocker.block_tables(left, right, "id", "id")
        assert kernel.pairs == block_pairs(
            blocker, left, right, "id", "id"
        ), type(blocker).__name__
        # empty/missing records never pair
        for lid, rid in kernel.pairs:
            assert lid in (1, 4) and rid in (10, 20)
