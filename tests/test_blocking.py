"""Tests for the blocking subsystem (blockers, candidate sets, combiner)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import (
    AttrEquivalenceBlocker,
    BlackBoxBlocker,
    CandidateSet,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    RuleBasedBlocker,
    debug_blocker,
    full_cross_product,
    intersect_candidates,
    overlap_report,
    union_candidates,
)
from repro.errors import BlockingError
from repro.table import Table
from repro.table.ops import concat
from repro.text import normalize_title

from .candidate_set_reference import ReferenceCandidateSet


def assert_immutable(candidates):
    """No way to change a set's pairs in place: no ``add``, read-only
    position arrays, and ``pairs`` hands out a copy."""
    before = candidates.pairs
    assert not hasattr(candidates, "add")
    for positions in (candidates.left_positions, candidates.right_positions):
        with pytest.raises(ValueError):
            positions[:1] = 0
    candidates.pairs.append(("x", "y"))
    assert candidates.pairs == before


def award_tables():
    left = Table(
        {
            "id": [1, 2, 3],
            "num": ["A1", "B2", None],
            "title": [
                "CORN FUNGICIDE GUIDELINES NORTH CENTRAL",
                "SWAMP DODDER ECOLOGY",
                "SOIL CARBON SEQUESTRATION STUDY",
            ],
        },
        name="L",
    )
    right = Table(
        {
            "id": [10, 20, 30],
            "num": ["A1", "Z9", None],
            "title": [
                "Corn Fungicide Guidelines North Central",
                "Swamp Dodder Ecology",
                "Unrelated Cheese Work",
            ],
        },
        name="R",
    )
    return left, right


class TestCandidateSet:
    def test_dedup_and_order(self):
        left, right = award_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10), (1, 10), (2, 20)])
        assert len(cs) == 2
        assert cs.pairs == [(1, 10), (2, 20)]

    def test_membership_and_rows(self):
        left, right = award_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10)])
        assert (1, 10) in cs
        l_row, r_row = cs.record_pair((1, 10))
        assert l_row["num"] == "A1" and r_row["num"] == "A1"

    def test_unknown_id_rejected(self):
        left, right = award_tables()
        with pytest.raises(BlockingError, match="left id"):
            CandidateSet(left, right, "id", "id", [(99, 10)])

    def test_set_algebra(self):
        left, right = award_tables()
        a = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)])
        b = CandidateSet(left, right, "id", "id", [(2, 20), (3, 30)])
        assert a.union(b).pairs == [(1, 10), (2, 20), (3, 30)]
        assert a.intersection(b).pairs == [(2, 20)]
        assert a.difference(b).pairs == [(1, 10)]

    def test_incompatible_tables_rejected(self):
        left, right = award_tables()
        other_left, _ = award_tables()
        a = CandidateSet(left, right, "id", "id")
        b = CandidateSet(other_left, right, "id", "id")
        with pytest.raises(BlockingError, match="share base tables"):
            a.union(b)

    def test_subset_and_filter(self):
        left, right = award_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)])
        assert cs.subset([(2, 20)]).pairs == [(2, 20)]
        with pytest.raises(BlockingError):
            cs.subset([(3, 30)])
        filtered = cs.filter(lambda l, r: l["num"] == r["num"])
        assert filtered.pairs == [(1, 10)]

    def test_to_table(self):
        left, right = award_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10)])
        t = cs.to_table(l_attrs=["title"], r_attrs=["num"])
        assert t.columns == ["_id", "ltable_id", "rtable_id", "ltable_title", "rtable_num"]
        assert t.row(0)["rtable_num"] == "A1"

    def test_sample(self):
        left, right = award_tables()
        cs = full_cross_product(left, right, "id", "id")
        sampled = cs.sample(4, np.random.default_rng(0))
        assert len(sampled) == len(set(sampled)) == 4

    def test_full_cross_product_size(self):
        left, right = award_tables()
        assert len(full_cross_product(left, right, "id", "id")) == 9


@st.composite
def merge_worlds(draw):
    """Two left slices (their ids may repeat across slices), a right table
    and, for each slice, pairs over it (duplicates included)."""
    ids = st.integers(0, 9)
    slices = []
    for i in range(2):
        l_ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
        slices.append(
            Table({"id": l_ids, "t": [f"{i}-{v}" for v in l_ids]}, name=f"L{i}")
        )
    r_ids = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    right = Table({"id": r_ids, "t": [str(v) for v in r_ids]}, name="R")
    pair_lists = [
        draw(st.lists(
            st.tuples(st.sampled_from(t["id"]), st.sampled_from(r_ids)), max_size=12
        ))
        for t in slices
    ]
    return slices, right, pair_lists


class TestMergedCandidateSets:
    """``CandidateSet.merged`` equals the tuple oracle over the chained id
    pairs of its parts, re-keyed onto the merged tables."""

    @settings(max_examples=80, deadline=None)
    @given(merge_worlds(), st.sampled_from(["same", "copy", "reversed", "short"]))
    def test_equals_chained_pairs(self, world, target):
        slices, right, pair_lists = world
        parts = [
            CandidateSet(t, right, "id", "id", pairs, name=t.name)
            for t, pairs in zip(slices, pair_lists)
        ]
        merged_left = concat(slices, name="LL")
        rows = {
            "same": list(range(len(right))),
            "copy": list(range(len(right))),
            "reversed": list(range(len(right)))[::-1],
            "short": list(range(len(right)))[1:],
        }[target]
        merged_right = right if target == "same" else right.take(rows, name="R2")
        chained = [pair for pairs in pair_lists for pair in pairs]
        try:
            expected = ReferenceCandidateSet(
                merged_left, merged_right, "id", "id", chained, name="E"
            )
        except BlockingError as exc:
            with pytest.raises(BlockingError) as got:
                CandidateSet.merged(parts, merged_left, merged_right, name="E")
            assert str(got.value) == str(exc)
            return
        got = CandidateSet.merged(parts, merged_left, merged_right, name="E")
        assert got.pairs == expected.pairs and got.name == "E"
        assert got.ltable is merged_left and got.rtable is merged_right
        # rows, not just ids: a repeated left id resolves to its last row
        assert got.to_table(["t"], ["t"]).to_rows() == (
            expected.to_table(["t"], ["t"]).to_rows()
        )


class TestAttrEquivalence:
    def test_exact_equality(self):
        left, right = award_tables()
        cs = AttrEquivalenceBlocker("num", "num").block_tables(left, right, "id", "id")
        assert cs.pairs == [(1, 10)]

    def test_missing_never_joins(self):
        left, right = award_tables()
        cs = AttrEquivalenceBlocker("num", "num").block_tables(left, right, "id", "id")
        assert (3, 30) not in cs

    def test_preprocess_applied(self):
        left, right = award_tables()
        blocker = AttrEquivalenceBlocker(
            "num", "num", l_preprocess=str.lower, r_preprocess=str.lower
        )
        assert len(blocker.block_tables(left, right, "id", "id")) == 1

    def test_preprocess_returning_none_drops_record(self):
        left, right = award_tables()
        blocker = AttrEquivalenceBlocker("num", "num", l_preprocess=lambda v: None)
        assert len(blocker.block_tables(left, right, "id", "id")) == 0

    def test_unknown_attr(self):
        left, right = award_tables()
        with pytest.raises(BlockingError):
            AttrEquivalenceBlocker("zz", "num").block_tables(left, right, "id", "id")


class TestOverlapBlockers:
    def test_overlap_threshold(self):
        left, right = award_tables()
        cs = OverlapBlocker(
            "title", "title", threshold=3, normalizer=normalize_title
        ).block_tables(left, right, "id", "id")
        assert set(cs.pairs) == {(1, 10), (2, 20)}

    def test_overlap_without_normalizer_case_sensitive(self):
        left, right = award_tables()
        cs = OverlapBlocker("title", "title", threshold=3).block_tables(
            left, right, "id", "id"
        )
        assert len(cs) == 0  # UPPER vs Title Case share no raw tokens

    def test_short_titles_dropped_by_overlap_but_kept_by_coefficient(self):
        left = Table({"id": [1], "title": ["LAB SUPPLIES"]}, name="L")
        right = Table({"id": [2], "title": ["Lab Supplies"]}, name="R")
        overlap = OverlapBlocker("title", "title", threshold=3, normalizer=normalize_title)
        assert len(overlap.block_tables(left, right, "id", "id")) == 0
        coeff = OverlapCoefficientBlocker(
            "title", "title", threshold=0.7, normalizer=normalize_title
        )
        assert len(coeff.block_tables(left, right, "id", "id")) == 1

    def test_coefficient_threshold_semantics(self):
        left = Table({"id": [1], "title": ["a b"]}, name="L")
        right = Table({"id": [2], "title": ["a b c d e"]}, name="R")
        # overlap coefficient = 2/min(2,5) = 1.0
        cs = OverlapCoefficientBlocker("title", "title", threshold=0.9).block_tables(
            left, right, "id", "id"
        )
        assert len(cs) == 1

    def test_invalid_thresholds(self):
        with pytest.raises(BlockingError):
            OverlapBlocker("t", "t", threshold=0)
        with pytest.raises(BlockingError):
            OverlapCoefficientBlocker("t", "t", threshold=0.0)
        with pytest.raises(BlockingError):
            OverlapCoefficientBlocker("t", "t", threshold=1.5)

    def test_overlap_agrees_with_bruteforce(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(12)]
        def rand_title():
            k = int(rng.integers(2, 7))
            return " ".join(rng.choice(words, size=k, replace=False))
        left = Table({"id": list(range(15)), "t": [rand_title() for _ in range(15)]}, name="L")
        right = Table({"id": list(range(15)), "t": [rand_title() for _ in range(15)]}, name="R")
        cs = OverlapBlocker("t", "t", threshold=2).block_tables(left, right, "id", "id")
        expected = set()
        for i, a in enumerate(left["t"]):
            for j, b in enumerate(right["t"]):
                if len(set(a.split()) & set(b.split())) >= 2:
                    expected.add((i, j))
        assert cs.pair_set() == expected

    def test_overlap_threshold_equal_to_token_count(self):
        # Prefix-filter edge case: with threshold == len(tokens) the probe
        # prefix shrinks to a single token (the rarest one). The matching
        # pair shares *all* tokens, so it must survive even though every
        # shared token but one sits in the prefix-filter tail. The decoy
        # rows skew document frequencies so the prefix token is not the
        # alphabetically-first one.
        left = Table({"id": [1], "t": ["alpha beta gamma"]}, name="L")
        right = Table(
            {
                "id": [10, 11, 12, 13],
                "t": [
                    "alpha beta gamma",
                    "alpha filler one",
                    "alpha filler two",
                    "beta filler three",
                ],
            },
            name="R",
        )
        cs = OverlapBlocker("t", "t", threshold=3).block_tables(
            left, right, "id", "id"
        )
        assert cs.pair_set() == {(1, 10)}

    def test_coefficient_agrees_with_bruteforce(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(10)]
        def rand_title():
            k = int(rng.integers(1, 6))
            return " ".join(rng.choice(words, size=k, replace=False))
        left = Table({"id": list(range(12)), "t": [rand_title() for _ in range(12)]}, name="L")
        right = Table({"id": list(range(12)), "t": [rand_title() for _ in range(12)]}, name="R")
        cs = OverlapCoefficientBlocker("t", "t", threshold=0.6).block_tables(
            left, right, "id", "id"
        )
        expected = set()
        for i, a in enumerate(left["t"]):
            for j, b in enumerate(right["t"]):
                sa, sb = set(a.split()), set(b.split())
                if len(sa & sb) / min(len(sa), len(sb)) >= 0.6:
                    expected.add((i, j))
        assert cs.pair_set() == expected


class TestRuleAndBlackBox:
    def test_rule_blocker_full_scan(self):
        left, right = award_tables()
        cs = RuleBasedBlocker(
            lambda l, r: l["title"].lower() == r["title"].lower()
        ).block_tables(left, right, "id", "id")
        assert set(cs.pairs) == {(1, 10), (2, 20)}

    def test_rule_blocker_indexed_matches_full_scan(self):
        left, right = award_tables()
        predicate = lambda l, r: l["num"] is not None and l["num"] == r["num"]  # noqa: E731
        full = RuleBasedBlocker(predicate).block_tables(left, right, "id", "id")
        indexed = RuleBasedBlocker(predicate, index_attrs=("num", "num")).block_tables(
            left, right, "id", "id"
        )
        assert full.pair_set() == indexed.pair_set()

    def test_blackbox_score_threshold(self):
        left, right = award_tables()
        cs = BlackBoxBlocker(
            lambda l, r: 1.0 if l["num"] is not None and l["num"] == r["num"] else 0.0,
            threshold=0.5,
        ).block_tables(left, right, "id", "id")
        assert cs.pairs == [(1, 10)]

    def test_blackbox_bool_return(self):
        left, right = award_tables()
        cs = BlackBoxBlocker(lambda l, r: l["id"] == 1 and r["id"] == 20).block_tables(
            left, right, "id", "id"
        )
        assert cs.pairs == [(1, 20)]

    def test_blackbox_bad_return_type(self):
        left, right = award_tables()
        with pytest.raises(BlockingError, match="expected bool or number"):
            BlackBoxBlocker(lambda l, r: "yes").block_tables(left, right, "id", "id")


class TestCombiner:
    def test_union_and_intersection(self):
        left, right = award_tables()
        a = CandidateSet(left, right, "id", "id", [(1, 10)])
        b = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)])
        assert len(union_candidates([a, b])) == 2
        assert len(intersect_candidates([a, b])) == 1

    def test_empty_input_rejected(self):
        with pytest.raises(BlockingError):
            union_candidates([])

    def test_union_of_single_set_returns_fresh_copy(self):
        # regression: combining a single set used to return (and rename!)
        # the caller's own object
        left, right = award_tables()
        a = CandidateSet(left, right, "id", "id", [(1, 10)], name="C2")
        combined = union_candidates([a], name="C")
        assert combined is not a
        assert combined.name == "C"
        assert a.name == "C2", "input set must keep its name"
        b = CandidateSet(left, right, "id", "id", [(2, 20)], name="B")
        grown = union_candidates([combined, b], name="C")
        combined.name = "renamed"
        assert a.name == "C2", "renaming the copy must not rename the input"
        assert a.pairs == [(1, 10)], "input pair list must be untouched"
        assert combined.pairs == [(1, 10)]
        assert grown.pairs == [(1, 10), (2, 20)]
        assert_immutable(combined)

    def test_intersection_of_single_set_returns_fresh_copy(self):
        left, right = award_tables()
        a = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)], name="C3")
        combined = intersect_candidates([a])
        assert combined is not a
        assert combined.name == "intersection"
        assert a.name == "C3"
        combined.name = "renamed"
        assert a.name == "C3"
        narrowed = intersect_candidates(
            [combined, CandidateSet(left, right, "id", "id", [(2, 20), (3, 30)])]
        )
        assert narrowed.pairs == [(2, 20)]
        assert a.pairs == [(1, 10), (2, 20)]
        assert combined.pairs == [(1, 10), (2, 20)]
        assert_immutable(combined)

    def test_overlap_report(self):
        left, right = award_tables()
        a = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)], name="C2")
        b = CandidateSet(left, right, "id", "id", [(2, 20), (3, 30)], name="C3")
        report = overlap_report(a, b)
        assert (report.common, report.left_only, report.right_only) == (1, 1, 1)
        assert "C2" in str(report)


class TestBlockingDebugger:
    def test_reports_missed_similar_pair(self):
        left, right = award_tables()
        # candidate set deliberately misses the (2, 20) near-duplicate
        cs = CandidateSet(left, right, "id", "id", [(1, 10)], name="C")
        reports = debug_blocker(cs, [("title", "title")], top_k=5)
        assert reports, "debugger should surface missed pairs"
        assert (reports[0].l_id, reports[0].r_id) == (2, 20)
        assert reports[0].score > 0.9

    def test_excludes_pairs_already_in_candidates(self):
        left, right = award_tables()
        cs = CandidateSet(left, right, "id", "id", [(1, 10), (2, 20)], name="C")
        reports = debug_blocker(cs, [("title", "title")], top_k=10)
        assert all((r.l_id, r.r_id) not in cs for r in reports)

    def test_ranking_is_descending(self):
        left, right = award_tables()
        cs = CandidateSet(left, right, "id", "id", [], name="C")
        reports = debug_blocker(cs, [("title", "title")], top_k=10)
        scores = [r.score for r in reports]
        assert scores == sorted(scores, reverse=True)
