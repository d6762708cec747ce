"""Tests for the runtime: token cache, instrumentation, and the serial
bodies of the stages that once shipped chunks to a worker pool
(down-sampling, sorted-neighbourhood and rule-based blocking), each
pinned against a plain reference loop.
"""

import numpy as np

from repro.blocking import (
    RuleBasedBlocker,
    SortedNeighborhoodBlocker,
    down_sample,
)
from repro.runtime import Instrumentation, TokenCache
from repro.table import Table
from repro.text import normalize_title, whitespace


class TestTokenCache:
    def make_table(self):
        return Table(
            {"id": [1, 2, 3], "t": ["Corn Fungicide", None, "   "]}, name="T"
        )

    def test_hit_and_miss_counting(self):
        cache = TokenCache()
        table = self.make_table()
        first = cache.column_token_ids(table, "t", whitespace, normalize_title)
        second = cache.column_token_ids(table, "t", whitespace, normalize_title)
        assert first is second
        assert cache.stats().hits == 1 and cache.stats().misses == 1

    def test_equal_column_of_another_table_is_a_hit(self):
        # a miss is one tokenization pass: an equal column of another
        # table (or another recipe with equal texts) is served as a hit
        cache = TokenCache()
        table = self.make_table()
        first = cache.column_token_ids(table, "t", whitespace)
        other = Table({"key": [7, 8, 9], "u": ["Corn Fungicide", None, "   "]})
        assert cache.column_token_ids(other, "u", whitespace) is first
        assert cache.column_token_ids(other, "u", whitespace, str) is first
        assert cache.stats().hits == 2 and cache.stats().misses == 1
        vocabulary = len(cache.vocabulary)
        cache.column_token_ids(other, "u", whitespace, normalize_title)
        assert cache.stats().misses == 2
        assert len(cache.vocabulary) == vocabulary + 2  # "corn", "fungicide"

    def test_distinct_recipes_cached_separately(self):
        cache = TokenCache()
        table = self.make_table()
        cache.column_token_ids(table, "t", whitespace, normalize_title)
        cache.column_token_ids(table, "t", whitespace, None)
        assert cache.stats().misses == 2

    def test_missing_and_empty_cells(self):
        cache = TokenCache()
        table = self.make_table()
        column = cache.column_token_ids(table, "t", whitespace, normalize_title)
        decode = cache.vocabulary.decode
        assert decode(column[0].bag) == ["corn", "fungicide"]
        assert column[1] is None  # missing cell
        assert column[2] is not None and not column[2]  # whitespace-only
        assert not column[2].bag and not column[2].ids

    def test_probe_is_first_emission_order(self):
        # The probe follows the tokenizer, not the vocabulary: "c" is
        # interned before "a" and "b" here, yet probes last.
        cache = TokenCache()
        cache.vocabulary.intern("c")
        table = Table({"id": [1], "t": ["b a b c"]}, name="T")
        (entry,) = cache.column_token_ids(table, "t", whitespace)
        decode = cache.vocabulary.decode
        assert decode(entry.probe) == ["b", "a", "c"]
        assert decode(entry.bag) == ["b", "a", "b", "c"]
        assert entry.ids == frozenset(entry.probe) and len(entry) == 3

    def test_equal_texts_share_one_entry(self):
        cache = TokenCache()
        table = Table(
            {"id": [1, 2, 3], "t": ["corn blight", "corn blight", "blight corn"]},
            name="T",
        )
        first, second, third = cache.column_token_ids(table, "t", whitespace)
        assert first is second
        # an equal token set from a different text keeps its own order
        assert third is not first and third.ids == first.ids
        assert list(third.probe) == list(reversed(first.probe))

    def test_each_cell_tokenizes_by_its_own_str(self):
        # 1, 1.0 and True hash alike but stringify differently
        cache = TokenCache()
        table = Table({"id": [1, 2, 3, 4], "t": [1, 1.0, True, "1"]}, name="T")
        column = cache.column_token_ids(table, "t", whitespace)
        decode = cache.vocabulary.decode
        assert [decode(entry.bag) for entry in column] == [
            ["1"], ["1.0"], ["True"], ["1"]
        ]
        assert column[0] is column[3]

    def test_tokens_by_id_drops_tokenless_rows(self):
        from tests.blocking_reference import tokens_by_id

        cache = TokenCache()
        table = self.make_table()
        by_id = tokens_by_id(table, "t", "id", whitespace, normalize_title)
        assert set(by_id) == {1}
        assert by_id[1] == frozenset({"corn", "fungicide"})
        entries = cache.token_ids_by_id(table, "t", "id", whitespace, normalize_title)
        assert list(entries) == list(by_id)
        decoded = {cache.vocabulary.token_of(t) for t in entries[1].probe}
        assert decoded == by_id[1]

    def test_clear(self):
        cache = TokenCache()
        table = self.make_table()
        cache.column_token_ids(table, "t", whitespace)
        cache.clear()
        assert cache.stats().requests == 0 and len(cache.vocabulary) == 0
        cache.column_token_ids(table, "t", whitespace)
        assert cache.stats().misses == 1


class TestInstrumentation:
    def test_nested_stages_and_counters(self):
        instr = Instrumentation()
        with instr.stage("outer"):
            with instr.stage("inner"):
                instr.count("pairs", 5)
            instr.count("pairs", 2)
        outer = instr.find("outer")
        inner = instr.find("inner")
        assert outer.counters == {"pairs": 2}
        assert inner.counters == {"pairs": 5}
        assert outer.children == [inner]
        assert outer.seconds >= inner.seconds >= 0

    def test_counters_without_open_stage_go_to_root(self):
        instr = Instrumentation()
        instr.count("loose")
        assert instr.root.counters == {"loose": 1}

    def test_report_renders_tree(self):
        instr = Instrumentation()
        with instr.stage("blocking"):
            with instr.stage("probe"):
                instr.count("pairs_out", 42)
        text = str(instr.report(title="demo"))
        assert "demo" in text
        assert "blocking" in text
        assert "probe" in text
        assert "pairs_out=42" in text


def _rule_tables():
    """Synthetic tables with many guaranteed equi-join matches."""
    left = Table(
        {"id": list(range(120)),
         "num": [None if i % 17 == 0 else f"N{i % 30}" for i in range(120)]},
        name="L",
    )
    right = Table(
        {"id": list(range(1000, 1080)), "num": [f"N{i % 40}" for i in range(80)]},
        name="R",
    )
    return left, right


class TestSerialStageBodies:
    """Each former pool caller, serial, against a reference loop."""

    def test_rule_based_blocker_matches_nested_loop(self):
        left, right = _rule_tables()

        def predicate(l_row, r_row):
            return l_row["num"] is not None and l_row["num"] == r_row["num"]

        expected = [
            (lrow["id"], rrow["id"])
            for lrow in left.to_rows()
            for rrow in right.to_rows()
            if predicate(lrow, rrow)
        ]
        assert expected  # the synthetic tables must actually join
        cross = RuleBasedBlocker(predicate).block_tables(left, right, "id", "id")
        indexed = RuleBasedBlocker(
            predicate, index_attrs=("num", "num")
        ).block_tables(left, right, "id", "id")
        assert cross.pairs == expected  # same pairs, same order
        assert indexed.pairs == expected

    def test_sorted_neighborhood_matches_window_reference(self):
        left = Table(
            {"id": list(range(30)), "k": [f"n{(i * 7) % 30:03d}" for i in range(30)]},
            name="L",
        )
        right = Table(
            {"id": list(range(100, 125)), "k": [f"n{i * 2:03d}" for i in range(25)]},
            name="R",
        )
        for window in (2, 3, 5):
            merged = sorted(
                [(k, "L", i) for i, k in zip(left["id"], left["k"])]
                + [(k, "R", i) for i, k in zip(right["id"], right["k"])],
                key=lambda e: (e[0], e[1], str(e[2])),
            )
            expected = []
            for i, (_, side_i, id_i) in enumerate(merged):
                for _, side_j, id_j in merged[i + 1 : i + window]:
                    if side_i != side_j:
                        expected.append(
                            (id_i, id_j) if side_i == "L" else (id_j, id_i)
                        )
            got = SortedNeighborhoodBlocker("k", "k", window=window).block_tables(
                left, right, "id", "id"
            )
            assert got.pairs == expected

    def test_down_sample_keeps_most_shared_tokens(self, case_study):
        tables = case_study.projected
        a, b = tables.umetrics, tables.usda
        sampled_a, sampled_b = down_sample(
            a, b, ["AwardTitle"], b_size=50, a_size=60,
            rng=np.random.default_rng(11),
        )
        b_indices = np.random.default_rng(11).choice(b.num_rows, 50, replace=False)
        assert sampled_b[tables.r_key] == [b[tables.r_key][int(i)] for i in b_indices]

        def tokens(value):
            return set() if value is None else set(
                whitespace(normalize_title(str(value)))
            )

        b_tokens = set().union(*(tokens(b["AwardTitle"][int(i)]) for i in b_indices))
        shared = [len(tokens(v) & b_tokens) for v in a["AwardTitle"]]
        order = sorted(range(a.num_rows), key=lambda i: -shared[i])  # stable
        keep = sorted(order[:60])
        assert sampled_a[tables.l_key] == [a[tables.l_key][i] for i in keep]
