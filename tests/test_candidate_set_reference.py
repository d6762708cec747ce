"""Differential tests: the columnar :class:`~repro.blocking.CandidateSet`
against the tuple implementation it replaced
(:mod:`tests.candidate_set_reference`).

Every operation must give the same pairs in the same order, the same
names, the same sampled pairs under a seeded generator, the same
materialised table and the same typed errors, for int ids, str ids and
empty sets. The tests use the public API only.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import CandidateSet
from repro.errors import BlockingError
from repro.store import CANDIDATES
from repro.table import Table

from .candidate_set_reference import ReferenceCandidateSet

ID_KINDS = {
    "int": st.integers(-10**6, 10**6),
    "str": st.text(max_size=4),
}


@st.composite
def worlds(draw, ids):
    """Two keyed tables and three pair lists over them (duplicates and
    empty lists included)."""
    l_ids = draw(st.lists(ids, min_size=1, max_size=7, unique=True))
    r_ids = draw(st.lists(ids, min_size=1, max_size=7, unique=True))
    def attrs(n):
        return draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))

    left = Table({"id": l_ids, "a": attrs(len(l_ids))}, name="L")
    right = Table({"id": r_ids, "a": attrs(len(r_ids))}, name="R")
    cell = st.tuples(st.sampled_from(l_ids), st.sampled_from(r_ids))
    lists = [draw(st.lists(cell, max_size=25)) for _ in range(3)]
    return left, right, lists


def both(left, right, pairs, name=""):
    return (
        CandidateSet(left, right, "id", "id", pairs, name=name),
        ReferenceCandidateSet(left, right, "id", "id", pairs, name=name),
    )


def assert_same(got, expected):
    assert got.pairs == expected.pairs
    assert list(got) == list(expected)
    assert len(got) == len(expected)
    assert got.name == expected.name
    assert got.ltable is expected.ltable and got.rtable is expected.rtable
    assert (got.l_key, got.r_key) == (expected.l_key, expected.r_key)


def raised(fn, *args, **kwargs):
    """The ``BlockingError`` message *fn* raises, or ``None``."""
    try:
        fn(*args, **kwargs)
    except BlockingError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", sorted(ID_KINDS))
class TestAgainstTupleOracle:
    def test_construction_with_duplicates(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(worlds(ID_KINDS[kind]))
        def check(world):
            left, right, (pairs, _, _) = world
            got, expected = both(left, right, pairs + pairs[::2], name="C")
            assert_same(got, expected)
            assert got.pair_set() == expected.pair_set()

        check()

    def test_set_algebra(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(worlds(ID_KINDS[kind]))
        def check(world):
            left, right, (p, q, _) = world
            a, ref_a = both(left, right, p, name="A")
            b, ref_b = both(left, right, q, name="B")
            for op in ("union", "intersection", "difference"):
                assert_same(getattr(a, op)(b, name=op), getattr(ref_a, op)(ref_b, name=op))
                assert_same(getattr(b, op)(a), getattr(ref_b, op)(ref_a))
            # inputs are untouched by combining
            assert_same(a, ref_a)
            assert_same(b, ref_b)

        check()

    def test_subset_and_filter(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(worlds(ID_KINDS[kind]), st.randoms(use_true_random=False))
        def check(world, random):
            left, right, (p, q, _) = world
            a, ref_a = both(left, right, p)
            members = [pair for pair in q if pair in ref_a] + p[::-1]
            random.shuffle(members)
            assert_same(a.subset(members, name="S"), ref_a.subset(members, name="S"))
            as_lists = [list(pair) for pair in members]
            assert_same(a.subset(as_lists), ref_a.subset(as_lists))
            outside = [pair for pair in q if pair not in ref_a]
            assert raised(a.subset, members + outside) == raised(
                ref_a.subset, members + outside
            )

            def predicate(l_row, r_row):
                return l_row["a"] <= r_row["a"]

            assert_same(a.filter(predicate, name="F"), ref_a.filter(predicate, name="F"))

        check()

    def test_membership_and_sampling(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(worlds(ID_KINDS[kind]), st.integers(0, 2**32 - 1), st.integers(0, 30))
        def check(world, seed, n):
            left, right, (p, _, _) = world
            a, ref_a = both(left, right, p)
            probes = [(lid, rid) for lid in left["id"] for rid in right["id"]]
            probes += [(object(), right["id"][0]), (left["id"][0], object()), (1,), "x"]
            for probe in probes:
                assert (probe in a) == (probe in ref_a), probe
            assert a.pair_set() == ref_a.pair_set()
            if n <= len(ref_a):
                assert a.sample(n, np.random.default_rng(seed)) == ref_a.sample(
                    n, np.random.default_rng(seed)
                )
            else:
                assert raised(a.sample, n, np.random.default_rng(seed)) == raised(
                    ref_a.sample, n, np.random.default_rng(seed)
                )

        check()

    def test_to_table(self, kind):
        @settings(max_examples=40, deadline=None)
        @given(worlds(ID_KINDS[kind]))
        def check(world):
            left, right, (p, _, _) = world
            a, ref_a = both(left, right, p, name="T")
            for attrs in (((), ()), (("a",), ("a",)), (("a",), ())):
                got, expected = a.to_table(*attrs), ref_a.to_table(*attrs)
                assert got.columns == expected.columns
                assert got.to_rows() == expected.to_rows()
                assert got.name == expected.name

        check()

    def test_unknown_ids_raise_the_same_error(self, kind):
        @settings(max_examples=60, deadline=None)
        @given(worlds(ID_KINDS[kind]), st.data())
        def check(world, data):
            left, right, (p, _, _) = world
            ids = ID_KINDS[kind]
            bad_l = data.draw(ids.filter(lambda v: v not in left["id"]))
            bad_r = data.draw(ids.filter(lambda v: v not in right["id"]))
            for bad in [(bad_l, right["id"][0]), (left["id"][0], bad_r), (bad_l, bad_r)]:
                at = data.draw(st.integers(0, len(p)))
                pairs = p[:at] + [bad] + p[at:]
                got = raised(CandidateSet, left, right, "id", "id", pairs)
                expected = raised(ReferenceCandidateSet, left, right, "id", "id", pairs)
                assert got is not None and got == expected
            # an unknown right id before an unknown left id names the right one
            pairs = [(left["id"][0], bad_r), (bad_l, right["id"][0])]
            assert raised(CandidateSet, left, right, "id", "id", pairs) == raised(
                ReferenceCandidateSet, left, right, "id", "id", pairs
            )

        check()

    def test_store_round_trip(self, kind):
        @settings(max_examples=40, deadline=None)
        @given(worlds(ID_KINDS[kind]))
        def check(world):
            left, right, (p, _, _) = world
            a, ref_a = both(left, right, p, name="C")
            payload, sidecar = CANDIDATES.encode(a)
            assert payload["pairs"] == [list(pair) for pair in ref_a.pairs]
            payload = json.loads(json.dumps(payload, sort_keys=True))
            back = CANDIDATES.decode(payload, sidecar, ltable=left, rtable=right)
            assert_same(back, ref_a)
            # a stored id the table no longer holds still raises BlockingError
            if payload["pairs"]:
                payload["pairs"][-1][1] = "missing" if kind == "int" else 10**9
                assert raised(
                    CANDIDATES.decode, payload, sidecar, ltable=left, rtable=right
                ) == f"right id {payload['pairs'][-1][1]!r} not present in 'R'"

        check()


def test_empty_sets_match():
    left = Table({"id": [], "a": []}, name="L")
    right = Table({"id": ["x"], "a": [1]}, name="R")
    a, ref_a = both(left, right, [], name="E")
    assert_same(a, ref_a)
    for op in ("union", "intersection", "difference"):
        assert_same(getattr(a, op)(a), getattr(ref_a, op)(ref_a))
    assert a.sample(0, np.random.default_rng(0)) == ref_a.sample(0, np.random.default_rng(0))
    assert a.to_table().to_rows() == ref_a.to_table().to_rows()
    assert ("x", "x") not in a
    payload = json.loads(json.dumps(CANDIDATES.encode(a)[0]))
    assert_same(CANDIDATES.decode(payload, None, ltable=left, rtable=right), ref_a)
