"""Parity tests for the batch-columnar kernels.

Two layers, matching the guarantees the kernels make:

* **Batch parity** (property-based): every kernel in
  :mod:`repro.similarity.batch` matches its string reference element for
  element, bit for bit, on randomized unicode token sets — under
  duplicate rows, permuted and re-sliced columns, missing (``None``)
  rows mapping to NaN, empty sets, and any interning order (results must
  depend on id consistency, never on id values).
* **End-to-end bit-identity**: the small-scenario blocking plan and
  feature extraction produce the same candidate pairs (pair for pair, in
  order) and the same feature matrix (cell for cell) as the string
  references in ``tests/blocking_reference.py`` — including empty
  candidate sets, single-pair columns, and records with empty token sets.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.vectors import (
    _monge_elkan_batch,
    _monge_elkan_column,
    _monge_elkan_scalar,
    extract_feature_vectors,
)
from repro.runtime import EngineSession
from repro.runtime import cache as cache_module
from repro.runtime.cache import PairScoreTable, TokenCache
from repro.similarity import batch
from repro.similarity.hybrid import monge_elkan
from repro.similarity.sequence import jaro, jaro_winkler, levenshtein_similarity
from repro.similarity.set_based import (
    cosine_set,
    dice,
    jaccard,
    overlap_coefficient,
    overlap_size,
)
from repro.text.intern import Vocabulary
from repro.text.tokenizers import whitespace

from .blocking_reference import block_pairs, debug_blocker_top, extract_rows

# Unicode-heavy alphabet: ascii, accents, CJK, an astral-plane char.
TOKEN_ALPHABET = "abcxyz0189éüñßλжя中文字\U0001f600-"

token = st.text(alphabet=TOKEN_ALPHABET, min_size=1, max_size=6)
token_sets = st.frozensets(token, max_size=12)
token_bags = st.lists(token, max_size=10)


def interned(vocab: Vocabulary, tokens: frozenset, seed: int) -> frozenset:
    """The id frozenset of *tokens*, interned in a random order."""
    shuffled = sorted(tokens)
    random.Random(seed).shuffle(shuffled)
    return frozenset(vocab.intern(t) for t in shuffled)


#: (string reference, batch kernel)
BATCH_PARITY_CASES = [
    (jaccard, batch.jaccard_batch),
    (dice, batch.dice_batch),
    (cosine_set, batch.cosine_batch),
    (overlap_coefficient, batch.overlap_coefficient_batch),
]

row_pairs = st.lists(st.tuples(token_sets, token_sets), max_size=8)


def _interned_rows(rows, seed):
    """Aligned id-frozenset columns of *rows* under one vocabulary."""
    vocab = Vocabulary()
    sa_col, sb_col = [], []
    for i, (a, b) in enumerate(rows):
        sa_col.append(interned(vocab, a, seed + 2 * i))
        sb_col.append(interned(vocab, b, seed + 2 * i + 1))
    return sa_col, sb_col


class TestSetKernelParity:
    """Each set kernel, one pair at a time, against its string reference."""

    @settings(max_examples=200, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 2**31))
    def test_measures_bit_identical(self, a, b, seed):
        # One shared vocabulary, randomized interning order: parity must
        # hold for any id assignment, shared ids included.
        (sa,), (sb,) = _interned_rows([(a, b)], seed)
        for reference, batch_kernel in BATCH_PARITY_CASES:
            assert batch_kernel([sa], [sb])[0] == reference(a, b), batch_kernel.__name__
        shared = overlap_size(a, b)
        assert batch.overlap_at_least_batch([sa], [sb], shared)[0] == 1
        assert batch.overlap_at_least_batch([sa], [sb], shared + 1)[0] == 0

    @settings(max_examples=200, deadline=None)
    @given(token_sets, token_sets, st.integers(0, 5), st.integers(0, 2**31))
    def test_bounded_variants(self, a, b, k, seed):
        (sa,), (sb,) = _interned_rows([(a, b)], seed)
        keep = batch.overlap_at_least_batch([sa], [sb], k)[0]
        assert bool(keep) == (overlap_size(a, b) >= k)

    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 2**31), st.integers(0, 2**31))
    def test_vocabulary_permutation_invariance(self, rows, seed1, seed2):
        # Two vocabularies interning in different orders assign different
        # ids; every score must equal the string reference under both.
        first = _interned_rows(rows, seed1)
        second = _interned_rows(rows, seed2)
        for reference, batch_kernel in BATCH_PARITY_CASES:
            expected = [reference(a, b) for a, b in rows]
            assert list(batch_kernel(*first)) == expected, batch_kernel.__name__
            assert list(batch_kernel(*second)) == expected, batch_kernel.__name__

    def test_edge_cases(self):
        # both-empty, one-empty and single-token rows, against the string
        # references on the same token sets
        rows = [
            (frozenset(), frozenset()),
            (frozenset(), frozenset("x")),
            (frozenset("x"), frozenset()),
            (frozenset("x"), frozenset("x")),
        ]
        sa_col, sb_col = _interned_rows(rows, 0)
        for reference, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(sa_col, sb_col))
            assert got == [reference(a, b) for a, b in rows], batch_kernel.__name__
        assert list(batch.jaccard_batch(sa_col, sb_col)) == [1.0, 0.0, 0.0, 1.0]
        # the keep-mask's k <= 0 short-circuit and k == 1 isdisjoint path
        assert list(batch.overlap_at_least_batch(sa_col, sb_col, 0)) == [1, 1, 1, 1]
        assert list(batch.overlap_at_least_batch(sa_col, sb_col, 1)) == [0, 0, 0, 1]


class TestBatchKernelParity:
    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 2**31))
    def test_bit_identical_to_reference_and_per_pair(self, rows, seed):
        # Duplicate the column: identical rows must score identically and
        # independently of their position, alone or in a column.
        rows = rows + rows
        sa_col, sb_col = _interned_rows(rows, seed)
        for reference, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(sa_col, sb_col))
            assert got == [reference(a, b) for a, b in rows], batch_kernel.__name__
            assert got == [
                batch_kernel([sa], [sb])[0] for sa, sb in zip(sa_col, sb_col)
            ], batch_kernel.__name__

    @settings(max_examples=75, deadline=None)
    @given(row_pairs, st.integers(0, 2**31))
    def test_permuted_chunk_permutes_scores_and_nothing_else(self, rows, seed):
        sa_col, sb_col = _interned_rows(rows, seed)
        perm = list(range(len(rows)))
        random.Random(seed).shuffle(perm)
        for _, batch_kernel in BATCH_PARITY_CASES:
            base = list(batch_kernel(sa_col, sb_col))
            permuted = list(batch_kernel(
                [sa_col[i] for i in perm], [sb_col[i] for i in perm]
            ))
            assert permuted == [base[i] for i in perm], batch_kernel.__name__

    @settings(max_examples=75, deadline=None)
    @given(row_pairs, st.integers(0, 2**31), st.data())
    def test_chunk_boundaries_are_invisible(self, rows, seed, data):
        # Scoring slices [0, cut) and [cut, n) — including the empty and
        # single-row slices — concatenates to scoring the whole column.
        sa_col, sb_col = _interned_rows(rows, seed)
        cut = data.draw(st.integers(0, len(rows)), label="cut")
        for _, batch_kernel in BATCH_PARITY_CASES:
            whole = list(batch_kernel(sa_col, sb_col))
            parts = []
            for start, stop in ((0, cut), (cut, len(rows))):
                parts.extend(batch_kernel(sa_col[start:stop], sb_col[start:stop]))
            assert parts == whole, batch_kernel.__name__

    def test_missing_rows_score_nan(self):
        col_a = [frozenset({1, 2}), None, frozenset()]
        col_b = [None, frozenset({1}), frozenset()]
        for _, batch_kernel in BATCH_PARITY_CASES:
            got = list(batch_kernel(col_a, col_b))
            assert math.isnan(got[0]) and math.isnan(got[1]), batch_kernel.__name__
        # both-empty rows score by the references, not NaN
        assert batch.jaccard_batch(col_a, col_b)[2] == 1.0

    def test_empty_chunk_scores_to_empty_array(self):
        for _, batch_kernel in BATCH_PARITY_CASES:
            out = batch_kernel([], [])
            assert len(out) == 0 and out.typecode == "d", batch_kernel.__name__

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ValueError):
            batch.jaccard_batch([frozenset()], [])

    def test_score_batch_dispatches_and_rejects_unknown(self):
        col = [frozenset({1}), frozenset({1, 2})]
        assert list(batch.score_batch("jac", col, col)) == [1.0, 1.0]
        with pytest.raises(KeyError):
            batch.score_batch("no_such_measure", col, col)


class TestBatchKeepMasks:
    @settings(max_examples=100, deadline=None)
    @given(row_pairs, st.integers(0, 4), st.integers(0, 2**31))
    def test_overlap_mask_matches_per_pair_predicate(self, rows, k, seed):
        sa_col, sb_col = _interned_rows(rows, seed)
        mask = batch.overlap_at_least_batch(sa_col, sb_col, k)
        assert [bool(bit) for bit in mask] == [len(a & b) >= k for a, b in rows]

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
        mask = batch.overlap_coefficient_at_least_batch(sa_col, sb_col, t)
        expected = []
        for a, b in rows:
            needed = math.ceil(t * min(len(a), len(b)) - 1e-9)
            expected.append(
                len(a & b) >= needed
                and overlap_coefficient(a, b) >= t - 1e-12
            )
        assert [bool(bit) for bit in mask] == expected

    def test_coefficient_mask_empty_sets(self):
        col_a = [frozenset(), frozenset(), frozenset({1})]
        col_b = [frozenset(), frozenset({1}), frozenset()]
        # both-empty has coefficient 1.0 (kept); one-empty 0.0 (dropped)
        assert list(batch.overlap_coefficient_at_least_batch(col_a, col_b, 0.7)) == [
            1,
            0,
            0,
        ]


def _bag_pairs(vocab, bags_a, bags_b):
    return [vocab.intern_all(a) for a in bags_a], [vocab.intern_all(b) for b in bags_b]


class TestMongeElkanParity:
    """The Monge-Elkan assembly against
    :func:`repro.similarity.hybrid.monge_elkan`, on both sides of the
    batch crossover and through one shared session table."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(token_bags, token_bags), max_size=8), st.integers(0, 2**31))
    def test_bit_identical_to_reference(self, pairs, seed):
        cache = TokenCache()
        warm = sorted({t for a, b in pairs for t in a + b})
        random.Random(seed).shuffle(warm)
        for t in warm:  # randomize id assignment
            cache.vocabulary.intern(t)
        ids_a, ids_b = _bag_pairs(cache.vocabulary, [a for a, _ in pairs], [b for _, b in pairs])
        expected = [monge_elkan(a, b) for a, b in pairs]
        got = _monge_elkan_column(ids_a, ids_b, cache)
        assert got.tolist() == expected
        # a second pass reads every inner score from the warm table
        misses = cache.jw_scores.misses
        assert _monge_elkan_column(ids_a, ids_b, cache).tolist() == expected
        assert cache.jw_scores.misses == misses

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(token_bags, token_bags), min_size=1, max_size=6))
    def test_scalar_and_batch_assembly_agree(self, pairs):
        pairs = [(a, b) for a, b in pairs if a and b]
        if not pairs:
            return
        cache = TokenCache()
        ids_a, ids_b = _bag_pairs(cache.vocabulary, [a for a, _ in pairs], [b for _, b in pairs])
        la = np.array([len(a) for a in ids_a], dtype=np.int64)
        lb = np.array([len(b) for b in ids_b], dtype=np.int64)
        expected = [monge_elkan(a, b) for a, b in pairs]
        assert _monge_elkan_scalar(ids_a, ids_b, cache).tolist() == expected
        cache.jw_scores = PairScoreTable()  # cold, so the kernel scores them
        assert _monge_elkan_batch(ids_a, ids_b, la, lb, cache).tolist() == expected

    def test_missing_and_empty_bags(self):
        cache = TokenCache()
        bag = cache.vocabulary.intern_all(["corn", "blight"])
        empty = cache.vocabulary.intern_all([])
        got = _monge_elkan_column([bag, None, empty, empty, bag], [None, bag, empty, bag, empty], cache)
        assert np.isnan(got[:2]).all()
        assert got[2:].tolist() == [1.0, 0.0, 0.0]

    def test_long_sums_accumulate_left_to_right(self):
        # 40 left tokens: a pairwise sum would round differently from the
        # reference's running total on some of these bags
        rng = random.Random(3)
        words = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(1, 7))) for _ in range(200)]
        pairs = [
            ([rng.choice(words) for _ in range(40)], [rng.choice(words) for _ in range(9)])
            for _ in range(30)
        ]
        cache = TokenCache()
        ids_a, ids_b = _bag_pairs(cache.vocabulary, [a for a, _ in pairs], [b for _, b in pairs])
        got = _monge_elkan_column(ids_a, ids_b, cache)
        assert got.tolist() == [monge_elkan(a, b) for a, b in pairs]


# Characters for the character kernels: a NUL (the padding value), accents,
# CJK and non-BMP code points.
CHAR_ALPHABET = "abcab\x00éñ中\U0001f600\U00010348"
strings = st.text(alphabet=CHAR_ALPHABET, max_size=14)


@st.composite
def string_pairs(draw):
    """Unrelated strings, equal strings, and strings sharing a prefix of
    up to 8 characters (longer than Jaro-Winkler's cap of 4)."""
    kind = draw(st.sampled_from(["free", "equal", "prefix"]))
    a = draw(strings)
    if kind == "equal":
        return a, a
    if kind == "prefix":
        prefix = draw(st.text(alphabet=CHAR_ALPHABET, min_size=1, max_size=8))
        return prefix + a, prefix + draw(strings)
    return a, draw(strings)


CHARACTER_CASES = [
    (jaro, batch.jaro_batch),
    (jaro_winkler, batch.jaro_winkler_batch),
    (levenshtein_similarity, batch.levenshtein_similarity_batch),
]


class TestCharacterKernelParity:
    """Each character batch kernel against its scalar reference, bit for
    bit, over mixed-length batches."""

    @pytest.mark.parametrize("reference,kernel", CHARACTER_CASES)
    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(string_pairs(), max_size=25))
    def test_bit_identical(self, reference, kernel, pairs):
        col_a = [a for a, _ in pairs]
        col_b = [b for _, b in pairs]
        got = kernel(col_a, col_b)
        assert got.dtype == np.float64
        assert got.tolist() == [reference(a, b) for a, b in pairs]

    @pytest.mark.parametrize("reference,kernel", CHARACTER_CASES)
    def test_edge_cases(self, reference, kernel):
        pairs = [
            ("", ""), ("", "a"), ("a", ""), ("a", "a"), ("a", "b"),
            ("ab", "ba"),  # window 0: no match outside the diagonal
            ("abc", "bca"), ("\x00", ""), ("a\x00", "a"), ("\x00a", "a\x00"),
            ("prefixed-one", "prefixed-two"), ("martha", "marhta"),
            ("\U0001f600x", "x\U0001f600"), ("中文字", "中文"),
            ("dixon", "dicksonx"), ("a" * 30, "a" * 29 + "b"),
        ]
        got = kernel([a for a, _ in pairs], [b for _, b in pairs])
        assert got.tolist() == [reference(a, b) for a, b in pairs]

    @pytest.mark.parametrize("reference,kernel", CHARACTER_CASES)
    def test_blocks_do_not_change_values(self, reference, kernel, monkeypatch):
        rng = random.Random(11)
        pairs = [
            (
                "".join(rng.choice("abcd") for _ in range(rng.randint(0, 20))),
                "".join(rng.choice("abcd") for _ in range(rng.randint(0, 20))),
            )
            for _ in range(50)
        ]
        expected = [reference(a, b) for a, b in pairs]
        for block in (1, 3, 7, 4096):
            monkeypatch.setattr(batch, "CHARACTER_BLOCK", block)
            got = kernel([a for a, _ in pairs], [b for _, b in pairs])
            assert got.tolist() == expected, block

    @pytest.mark.parametrize("_reference,kernel", CHARACTER_CASES)
    def test_rejects_unequal_columns(self, _reference, kernel):
        with pytest.raises(ValueError):
            kernel(["a"], [])

    def test_empty_batch(self):
        for _, kernel in CHARACTER_CASES:
            assert kernel([], []).shape == (0,)


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
# the session's Jaro-Winkler table
# ----------------------------------------------------------------------


def _case_features(projected):
    from repro.casestudy.matching import base_feature_set
    from repro.features.generate import add_case_insensitive_variants

    return add_case_insensitive_variants(
        base_feature_set(projected), attrs=["AwardTitle"]
    )


@pytest.fixture(scope="module")
def blocked(projected):
    from repro.casestudy.blocking_plan import run_blocking

    return run_blocking(projected).candidates, _case_features(projected)


def _extract(candidates, fs, session):
    return extract_feature_vectors(candidates, fs, session=session).values


class TestJaroWinklerTable:
    def test_table_state_never_changes_the_matrix(self, blocked, monkeypatch):
        candidates, fs = blocked
        with EngineSession(workers=1, token_cache=TokenCache()) as session:
            cold = _extract(candidates, fs, session)
            table = session.token_cache.jw_scores
            filled, misses = len(table), table.misses
            warm = _extract(candidates, fs, session)
            assert filled > 0 and table.misses == misses  # all hits
        with EngineSession(workers=1, token_cache=TokenCache()) as session:
            # a bound a third of the run's pairs: evicted mid-run
            monkeypatch.setattr(cache_module, "JW_TABLE_BOUND", filled // 3)
            session.token_cache.jw_scores = PairScoreTable()
            evicted = _extract(candidates, fs, session)
            assert session.token_cache.jw_scores.evictions >= 1
        with EngineSession(workers=1, token_cache=TokenCache()) as session:
            # a small tail: entries move into the main arrays mid-run
            session.token_cache.jw_scores.tail_bound = filled // 5
            merged = _extract(candidates, fs, session)
            assert len(session.token_cache.jw_scores._main[0]) > 0
        with EngineSession(workers=1, token_cache=TokenCache()) as session:
            # a one-entry table never holds the run's scores
            monkeypatch.setattr(cache_module, "JW_TABLE_BOUND", 1)
            session.token_cache.jw_scores = PairScoreTable()
            unfilled = _extract(candidates, fs, session)
            assert len(session.token_cache.jw_scores) <= 1
        for values in (warm, evicted, merged, unfilled):
            assert values.tobytes() == cold.tobytes()
        assert np.array_equal(cold, extract_rows(candidates, fs), equal_nan=True)

    def test_counters_on_the_extract_stage(self, blocked):
        from repro.runtime import Instrumentation

        from .test_sharded_blocking import flat_counters

        candidates, fs = blocked
        with EngineSession(workers=1, token_cache=TokenCache()) as session:
            first, second = Instrumentation(), Instrumentation()
            session.instrumentation = first
            _extract(candidates, fs, session)
            session.instrumentation = second
            _extract(candidates, fs, session)
        cold, warm = flat_counters(first), flat_counters(second)
        assert cold["jw_misses"] > 0 and cold["jw_evictions"] == 0
        assert warm["jw_misses"] == 0
        assert warm["jw_hits"] == cold["jw_hits"] + cold["jw_misses"]

    def test_clear_drops_the_table_with_the_vocabulary(self, blocked, case_study):
        candidates, fs = blocked
        cache = TokenCache()
        with EngineSession(workers=1, token_cache=cache) as session:
            _extract(candidates, fs, session)
            assert len(cache.jw_scores)
            cache.clear()
            assert len(cache.jw_scores) == 0 and len(cache.vocabulary) == 0
            # new tables intern their tokens to ids the old table held
            # scores for; a stale table would hand those scores back
            extra = case_study.projected_extra
            pairs = [
                (lid, rid)
                for lid in extra.umetrics[extra.l_key][:25]
                for rid in extra.usda[extra.r_key][:4]
            ]
            from repro.blocking.candidate_set import CandidateSet

            late = CandidateSet(
                extra.umetrics, extra.usda, extra.l_key, extra.r_key, pairs
            )
            after_clear = _extract(late, fs, session)
        assert np.array_equal(after_clear, extract_rows(late, fs), equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(0, 12),
        st.lists(st.sets(st.integers(0, 200), max_size=30), max_size=12),
    )
    def test_bound_is_never_exceeded(self, bound, tail_bound, batches):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cache_module, "JW_TABLE_BOUND", bound)
            table = PairScoreTable()
        table.tail_bound = tail_bound
        for batch_keys in batches:
            keys = np.array(sorted(batch_keys), dtype=np.int64)
            values, found = table.find(keys)
            evictions = table.evictions
            table.add(keys[~found], keys[~found].astype(np.float64))
            assert len(table) <= bound
            # whatever the table still holds reads back what was stored,
            # from the main arrays or the tail; without an eviction it
            # holds every key of the batch
            again, held = table.find(keys)
            assert np.array_equal(again[held], keys[held].astype(np.float64))
            assert held.all() or table.evictions > evictions
            assert len(table._tail[0]) <= tail_bound
        assert table.hits + table.misses == 2 * sum(len(b) for b in batches)


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


@pytest.mark.parametrize("kernel_min", [1, 10_000])
def test_character_features_on_both_sides_of_the_crossover(kernel_min, monkeypatch):
    """``lev_sim``/``jaro``/``jw`` columns, plain and case-folded, scored by
    the kernels (crossover 1) and by the scalar loop (crossover 10,000):
    missing cells, non-string cells and repeated value pairs included."""
    from repro.blocking.candidate_set import CandidateSet
    from repro.features import vectors
    from repro.features.feature import string_feature
    from repro.features.generate import FeatureSet
    from repro.table import Table

    monkeypatch.setattr(vectors, "KERNEL_MIN_INPUTS", kernel_min)
    names = ["Corn Blight", "corn blight", None, "", "ÉCOLE 中文", 2012, float("nan")]
    left = Table({"id": list(range(7)), "v": names}, name="L")
    right = Table({"id": list(range(10, 17)), "v": list(reversed(names))}, name="R")
    pairs = [(i, j) for i in range(7) for j in range(10, 17)] * 2
    candidates = CandidateSet(left, right, "id", "id", pairs)
    fs = FeatureSet([
        string_feature("v", "v", measure, casefold=casefold)
        for measure in ("lev_sim", "jaro", "jw")
        for casefold in (False, True)
    ])
    got = extract_feature_vectors(candidates, fs).values
    assert np.array_equal(got, extract_rows(candidates, fs), equal_nan=True)


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
