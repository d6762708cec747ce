"""Blocker registry / config factory, and the CLI ``--plan`` parsing.

The load-bearing assertion: building the Section-7 plan from
:func:`default_plan_configs` through the registry reproduces the
hand-written ``make_blockers`` recipe *exactly* — same candidate counts
as the committed golden snapshot — so config-driven construction can
never silently drift from the paper's plan.
"""

import json

import pytest

from repro.blocking import (
    AttrEquivalenceBlocker,
    BlockerConfig,
    BLOCKER_REGISTRY,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    ShardedOverlapBlocker,
    ShardedOverlapCoefficientBlocker,
    UNCAPPED,
    BlockSizePolicy,
    create_blocker,
    create_blockers,
    default_plan_configs,
    register_blocker,
    resolve_policy,
)
from repro.casestudy.blocking_plan import run_blocking
from repro.errors import BlockingError
from repro.text import normalize_title, whitespace


class TestPolicy:
    def test_resolve_none_is_uncapped(self):
        assert resolve_policy(None) is UNCAPPED
        assert not UNCAPPED.capped
        assert UNCAPPED.keeps(10**9)

    def test_resolve_int_shorthand(self):
        policy = resolve_policy(5)
        assert policy == BlockSizePolicy(max_block_size=5)
        assert policy.keeps(5) and not policy.keeps(6)

    def test_resolve_rejects_bool_and_garbage(self):
        with pytest.raises(BlockingError):
            resolve_policy(True)
        with pytest.raises(BlockingError):
            resolve_policy("5")

    def test_cap_below_one_rejected(self):
        with pytest.raises(BlockingError):
            BlockSizePolicy(max_block_size=0)


class TestConfigParsing:
    def test_flat_and_nested_forms_agree(self):
        flat = BlockerConfig.parse(
            {"kind": "overlap", "l_attr": "a", "r_attr": "b", "threshold": 2}
        )
        nested = BlockerConfig.parse(
            {"kind": "overlap",
             "params": {"l_attr": "a", "r_attr": "b", "threshold": 2}}
        )
        assert flat == nested

    def test_missing_kind_rejected(self):
        with pytest.raises(BlockingError, match="kind"):
            BlockerConfig.parse({"l_attr": "a"})

    def test_mixed_params_and_flat_keys_rejected(self):
        with pytest.raises(BlockingError, match="mixes"):
            BlockerConfig.parse(
                {"kind": "overlap", "params": {}, "l_attr": "a"}
            )

    def test_non_mapping_rejected(self):
        with pytest.raises(BlockingError):
            BlockerConfig.parse(["overlap"])


class TestCreateBlocker:
    def test_builds_each_registered_kind(self):
        built = create_blocker(
            {"kind": "overlap", "l_attr": "t", "r_attr": "t", "threshold": 2,
             "normalizer": "normalize_title", "tokenizer": "ws"}
        )
        assert isinstance(built, OverlapBlocker)
        assert built.normalizer is normalize_title
        assert built.tokenizer is whitespace

    def test_sharded_kinds(self):
        sharded = create_blocker(
            {"kind": "sharded_overlap", "l_attr": "t", "r_attr": "t",
             "threshold": 2, "shards": 4, "block_size_policy": 50}
        )
        assert isinstance(sharded, ShardedOverlapBlocker)
        assert sharded.shards == 4
        assert sharded.block_size_policy.max_block_size == 50
        coeff = create_blocker(
            {"kind": "sharded_overlap_coefficient", "l_attr": "t",
             "r_attr": "t", "threshold": 0.5, "shards": 3}
        )
        assert isinstance(coeff, ShardedOverlapCoefficientBlocker)
        assert (coeff.shards, coeff.threshold) == (3, 0.5)

    def test_unknown_kind_lists_available(self):
        with pytest.raises(BlockingError, match="available"):
            create_blocker({"kind": "nope", "l_attr": "a"})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(BlockingError, match="bad parameters"):
            create_blocker({"kind": "overlap", "l_attr": "a", "r_attr": "b",
                            "zzz": 1})

    def test_unknown_normalizer_rejected(self):
        with pytest.raises(BlockingError, match="normalizer"):
            create_blocker({"kind": "overlap", "l_attr": "a", "r_attr": "b",
                            "normalizer": "nope"})

    def test_create_blockers_coerces_single_mapping(self):
        out = create_blockers({"kind": "attr_equivalence", "l_attr": "a",
                               "r_attr": "b"})
        assert len(out) == 1 and isinstance(out[0], AttrEquivalenceBlocker)

    def test_register_blocker_refuses_overwrite(self):
        with pytest.raises(BlockingError, match="already registered"):
            register_blocker("overlap", lambda p: OverlapBlocker(**p))

    def test_registry_covers_every_shipped_blocker(self):
        assert {
            "attr_equivalence", "overlap", "overlap_coefficient",
            "sharded_overlap", "sharded_overlap_coefficient",
            "sorted_neighborhood",
        } <= set(BLOCKER_REGISTRY)


class TestDefaultPlanGolden:
    def test_configs_are_json_safe(self):
        configs = default_plan_configs()
        assert json.loads(json.dumps(configs)) == configs

    def test_factory_plan_matches_golden_counts(self, case_study):
        """create_blockers(default_plan_configs()) ≡ the hand-written
        recipe: strict-count diff against the committed golden snapshot."""
        with open("tests/golden/case_study_small.json") as fh:
            golden = json.load(fh)["blocking"]
        outcome = run_blocking(
            case_study.projected_v2,
            blockers=create_blockers(default_plan_configs()),
        )
        assert {
            "c1_attr_equiv": len(outcome.c1),
            "c2_overlap": len(outcome.c2),
            "c3_coefficient": len(outcome.c3),
            "candidates": len(outcome.candidates),
        } == golden

    def test_run_blocking_requires_exactly_three(self, case_study):
        with pytest.raises(BlockingError, match="exactly 3"):
            run_blocking(
                case_study.projected_v2,
                blockers=[OverlapBlocker("AwardTitle", "AwardTitle")],
            )


class TestCLIBlockerFlag:
    """Blocker configs reach the CLI folded into a ``--plan`` spec."""

    def test_inline_json_and_file_agree(self, tmp_path):
        from repro.__main__ import _parse_plan_spec
        from repro.plan import figure10_spec, recipe_from_spec

        raw = figure10_spec(blockers=default_plan_configs()).to_json()
        inline = _parse_plan_spec(raw)
        path = tmp_path / "plan.json"
        path.write_text(raw)
        from_file = _parse_plan_spec(f"@{path}")
        assert inline == from_file == figure10_spec()
        assert [type(b) for b in recipe_from_spec(inline).blockers] == [
            AttrEquivalenceBlocker, OverlapBlocker, OverlapCoefficientBlocker
        ]

    def test_bad_json_fails_loudly(self):
        from repro.__main__ import _parse_plan_spec

        with pytest.raises(Exception):
            _parse_plan_spec("{not json")
