"""Tests for positive (sure-match) and negative (flip) rules."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import CandidateSet
from repro.errors import RuleError
from repro.rules import (
    ComparableMismatchRule,
    ExactNumberRule,
    apply_negative_rules,
    award_project_rule,
    default_negative_rules,
    m1_rule,
    sure_matches,
)
from repro.table import Table


def projected_tables():
    left = Table(
        {
            "RecordId": ["u1", "u2", "u3"],
            "AwardNumber": [
                "10.200 2008-34103-19449",  # federal
                "10.203 WIS01040",          # state
                "10.100 03-CS-11231300-031",  # forest
            ],
        },
        name="UMETRICSProjected",
    )
    right = Table(
        {
            "RecordId": [100, 200, 300],
            "AwardNumber": ["2008-34103-19449", None, None],
            "ProjectNumber": ["WIS09999", "WIS01040", "WIS04509"],
        },
        name="USDAProjected",
    )
    return left, right


class TestPositiveRules:
    def test_m1_fires_on_suffix_equality(self):
        left, right = projected_tables()
        pairs = m1_rule().pairs(left, right, "RecordId", "RecordId")
        assert pairs.pairs == [("u1", 100)]

    def test_award_project_rule(self):
        left, right = projected_tables()
        pairs = award_project_rule().pairs(left, right, "RecordId", "RecordId")
        assert pairs.pairs == [("u2", 200)]

    def test_matches_on_rows(self):
        left, right = projected_tables()
        rule = m1_rule()
        assert rule.matches(left.row(0), right.row(0))
        assert not rule.matches(left.row(1), right.row(0))

    def test_missing_values_never_fire(self):
        rule = m1_rule()
        assert not rule.matches({"AwardNumber": None}, {"AwardNumber": "X"})
        assert not rule.matches({"AwardNumber": "10.1 X"}, {"AwardNumber": None})

    def test_non_cfda_left_value_never_fires(self):
        rule = m1_rule()
        assert not rule.matches(
            {"AwardNumber": "2008-34103-19449"}, {"AwardNumber": "2008-34103-19449"}
        )

    def test_unknown_attr_rejected(self):
        left, right = projected_tables()
        rule = ExactNumberRule("bad", "Nope", "AwardNumber")
        with pytest.raises(RuleError):
            rule.pairs(left, right, "RecordId", "RecordId")

    def test_sure_matches_union(self):
        left, right = projected_tables()
        combined = sure_matches(
            [m1_rule(), award_project_rule()], left, right, "RecordId", "RecordId"
        )
        assert set(combined.pairs) == {("u1", 100), ("u2", 200)}

    def test_sure_matches_needs_rules(self):
        left, right = projected_tables()
        with pytest.raises(RuleError):
            sure_matches([], left, right, "RecordId", "RecordId")


def _suffix_or_none(value):
    """Extractor: ``None`` for cells starting with ``x``, else the last two
    characters, so distinct right cells share extracted values."""
    return None if value.startswith("x") else value[-2:]


#: Cells: missing (None, NaN), extractor-rejected ("x..."), and short
#: strings whose two-character suffixes collide on the right.
CELLS = st.one_of(
    st.none(),
    st.just(math.nan),
    st.sampled_from(["x1", "xa9", "a1", "b1", "ca1", "a2", "b2", "12", "x2"]),
)


@st.composite
def rule_worlds(draw):
    def table(name, first_id):
        n = draw(st.integers(min_value=0, max_value=8))
        return Table(
            {
                "k": list(range(first_id, first_id + n)),
                "p": [draw(CELLS) for _ in range(n)],
                "q": [draw(CELLS) for _ in range(n)],
            },
            name=name,
        )

    left, right = table("L", 0), table("R", 100)
    extractors = st.sampled_from([lambda v: v, _suffix_or_none])
    rules = [
        ExactNumberRule(
            f"r{i}", draw(st.sampled_from("pq")), draw(st.sampled_from("pq")),
            l_extract=draw(extractors), r_extract=draw(extractors),
        )
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    return left, right, rules


class TestRuleIndexDifferential:
    """A prebuilt right index, probed, gives what the one-shot paths give."""

    @settings(max_examples=200, deadline=None)
    @given(rule_worlds())
    def test_probe_equals_pairs_and_sure_matches(self, world):
        left, right, rules = world
        probed = []
        for rule in rules:
            pairs = rule.right_index(right, "k").probe(left, "k")
            # brute-force reference: left-row order, then right-row order
            reference = [
                (l_row["k"], r_row["k"])
                for l_row in left.rows()
                for r_row in right.rows()
                if rule.matches(l_row, r_row)
            ]
            assert pairs == reference
            assert pairs == rule.pairs(left, right, "k", "k").pairs
            probed.extend(pairs)
        expected = sure_matches(rules, left, right, "k", "k").pairs
        assert list(dict.fromkeys(probed)) == expected

    @settings(max_examples=100, deadline=None)
    @given(rule_worlds())
    def test_indexed_sure_stage_equals_plain_stage(self, world):
        from repro.blocking.candidate_set import row_index
        from repro.obs.provenance import MatchProvenance
        from repro.store.stages import IndexedSureMatchStage, SureMatchStage

        left, right, rules = world
        plain = SureMatchStage(rules, left, right, "k", "k", name="C1")
        indexed = IndexedSureMatchStage(
            [rule.right_index(right, "k") for rule in rules],
            left, right, "k", "k", row_index(right["k"]), name="C1",
        )
        # the inherited fingerprint reads these, so store keys are shared
        assert indexed.rules == plain.rules
        assert indexed.label() == plain.label()
        expected, got = plain.compute(None), indexed.compute(None)
        assert (got.name, got.pairs) == (expected.name, expected.pairs)
        assert indexed.counters(got) == plain.counters(expected)
        recorded = []
        for stage, result in ((plain, expected), (indexed, got)):
            collector = MatchProvenance("C1")
            stage.record(collector, result)
            recorded.append(collector.rule_pairs)
        assert recorded[0] == recorded[1]

    def test_one_index_serves_many_probes(self):
        left, right = projected_tables()
        index = m1_rule().right_index(right, "RecordId")
        for i in range(len(left)):
            one = left.take([i])
            assert index.probe(one, "RecordId") == m1_rule().pairs(
                one, right, "RecordId", "RecordId"
            ).pairs

    def test_missing_columns_rejected(self):
        left, right = projected_tables()
        with pytest.raises(RuleError, match="right table"):
            ExactNumberRule("bad", "AwardNumber", "Nope").right_index(right, "RecordId")
        index = ExactNumberRule("bad", "Nope", "AwardNumber").right_index(
            right, "RecordId"
        )
        with pytest.raises(RuleError, match="left table"):
            index.probe(left, "RecordId")


class TestNegativeRules:
    def test_comparable_differs_fires(self):
        rules = default_negative_rules()
        l_row = {"AwardNumber": "10.203 WIS01040"}
        r_row = {"AwardNumber": None, "ProjectNumber": "WIS04509"}
        assert any(rule.fires(l_row, r_row) for rule in rules)

    def test_equal_numbers_do_not_fire(self):
        rules = default_negative_rules()
        l_row = {"AwardNumber": "10.203 WIS01040"}
        r_row = {"AwardNumber": None, "ProjectNumber": "WIS01040"}
        assert not any(rule.fires(l_row, r_row) for rule in rules)

    def test_incomparable_patterns_do_not_fire(self):
        # the paper's example: forest-service vs federal numbers differ in
        # pattern, so the rule must NOT flip
        rules = default_negative_rules()
        l_row = {"AwardNumber": "10.100 03-CS-11231300-031"}
        r_row = {"AwardNumber": "2001-34101-10526", "ProjectNumber": None}
        assert not any(rule.fires(l_row, r_row) for rule in rules)

    def test_missing_values_do_not_fire(self):
        rules = default_negative_rules()
        assert not any(
            rule.fires({"AwardNumber": None}, {"AwardNumber": "X", "ProjectNumber": "Y"})
            for rule in rules
        )

    def test_apply_negative_rules_splits_matches(self):
        left, right = projected_tables()
        cs = CandidateSet(
            left, right, "RecordId", "RecordId",
            [("u2", 200), ("u2", 300), ("u1", 100)],
        )
        kept, flipped = apply_negative_rules(
            [("u2", 200), ("u2", 300), ("u1", 100)], cs, default_negative_rules()
        )
        assert ("u2", 200) in kept          # equal project numbers
        assert ("u1", 100) in kept          # equal award numbers
        flipped_pairs = [p for p, _ in flipped]
        assert flipped_pairs == [("u2", 300)]  # WIS01040 vs WIS04509

    def test_flip_report_names_rule(self):
        left, right = projected_tables()
        cs = CandidateSet(left, right, "RecordId", "RecordId", [("u2", 300)])
        _, flipped = apply_negative_rules([("u2", 300)], cs, default_negative_rules())
        assert flipped[0][1] == "comparable_project_numbers_differ"

    def test_custom_known_patterns(self):
        rule = ComparableMismatchRule(
            name="strict",
            l_attr="a",
            r_attr="b",
            known_patterns=frozenset({"XXX#####"}),
        )
        assert rule.fires({"a": "WIS00001"}, {"b": "WIS00002"})
        assert not rule.fires({"a": "2008-11111-22222"}, {"b": "2008-11111-22223"})
