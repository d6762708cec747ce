"""The declarative pipeline plan layer: spec IR, compiler, parity.

Four groups:

* spec mechanics — JSON round-trips, canonicalization, the committed
  ``examples/figure10.json`` staying in lockstep with
  :func:`repro.plan.figure10_spec`;
* compile-time validation — unknown kinds, duplicate ids/producers,
  missing edges and cycles all raise typed :class:`PlanError`\\ s;
* the per-family registries (matchers, rules, features, samplers) the
  node runners resolve configs through;
* bit parity — a :class:`CaseStudyRun` driven by the *loaded* example
  spec reproduces the golden snapshot exactly, a warm-store replay of a
  plan is all hits, and manifest diffs attribute count drift to plan
  node edits.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from repro.errors import PlanError
from repro.plan import (
    NODE_KINDS,
    NodeSpec,
    PipelineSpec,
    compile_plan,
    figure10_spec,
    figure10_workflow,
    recipe_from_spec,
    register_node_kind,
    strip_negative_rules,
)

EXAMPLE_SPEC = Path(__file__).parent.parent / "examples" / "figure10.json"


def _two_node_spec(**overrides) -> PipelineSpec:
    fields = dict(
        name="toy",
        nodes=(
            NodeSpec(
                id="a", kind="combine", params={"op": "union"},
                inputs={"c1": "in"}, outputs={"candidates": "mid"},
            ),
            NodeSpec(
                id="b", kind="combine",
                params={"op": "difference"},
                inputs={"left": "mid", "right": "in"},
                outputs={"candidates": "out"},
            ),
        ),
        inputs=("in",),
        outputs={"result": "out"},
    )
    fields.update(overrides)
    return PipelineSpec(**fields)


class TestSpecRoundTrip:
    def test_json_round_trip(self):
        spec = figure10_spec()
        assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_dump_load_round_trip(self, tmp_path):
        spec = figure10_spec()
        path = spec.dump(tmp_path / "spec.json")
        assert PipelineSpec.load(path) == spec

    def test_committed_example_matches_builder(self):
        # examples/figure10.json is the CLI-facing copy of the recipe;
        # regenerating it (spec.dump) must be part of any recipe change
        assert PipelineSpec.load(EXAMPLE_SPEC) == figure10_spec()

    def test_canonical_is_deterministic(self):
        assert figure10_spec().canonical() == figure10_spec().canonical()

    def test_object_mode_params_refuse_canonical(self):
        class Opaque:
            pass

        spec = _two_node_spec()
        spec = spec.replace_node("a", params={"op": "union", "x": Opaque()})
        with pytest.raises(PlanError, match="not JSON"):
            spec.canonical()

    def test_unknown_spec_field_rejected(self):
        data = figure10_spec().to_dict()
        data["surprise"] = 1
        with pytest.raises(PlanError):
            PipelineSpec.from_dict(data)

    def test_fingerprint_attributes_node_edits(self):
        base = figure10_spec()
        edited = base.replace_node(
            "orig_c", params={"op": "difference", "name": "C",
                              "count_left": "renamed"},
        )
        before = base.node_fingerprints()
        after = edited.node_fingerprints()
        changed = [k for k in before if before[k] != after.get(k)]
        assert changed == ["orig_c"]
        assert base.fingerprint() != edited.fingerprint()


class TestPlanValidation:
    def test_unknown_node_kind(self):
        spec = _two_node_spec(nodes=(
            NodeSpec(id="a", kind="quantum", outputs={"x": "out"}),
        ), inputs=(), outputs={"result": "out"})
        with pytest.raises(PlanError, match="quantum"):
            compile_plan(spec)

    def test_duplicate_node_id(self):
        node = NodeSpec(id="a", kind="combine", params={"op": "union"},
                        inputs={"c1": "in"}, outputs={"candidates": "out"})
        with pytest.raises(PlanError, match="duplicate"):
            PipelineSpec(name="dup", nodes=(node, node), inputs=("in",),
                         outputs={"result": "out"})

    def test_duplicate_producer(self):
        spec = _two_node_spec(nodes=(
            NodeSpec(id="a", kind="combine", params={"op": "union"},
                     inputs={"c1": "in"}, outputs={"candidates": "out"}),
            NodeSpec(id="b", kind="combine", params={"op": "union"},
                     inputs={"c1": "in"}, outputs={"candidates": "out"}),
        ))
        with pytest.raises(PlanError):
            compile_plan(spec)

    def test_missing_edge(self):
        spec = _two_node_spec(inputs=())  # "in" now comes from nowhere
        with pytest.raises(PlanError, match="missing"):
            compile_plan(spec)

    def test_cycle(self):
        spec = _two_node_spec(nodes=(
            NodeSpec(id="a", kind="combine", params={"op": "union"},
                     inputs={"c1": "out"}, outputs={"candidates": "mid"}),
            NodeSpec(id="b", kind="combine", params={"op": "union"},
                     inputs={"c1": "mid"}, outputs={"candidates": "out"}),
        ), inputs=())
        with pytest.raises(PlanError, match="cycle"):
            compile_plan(spec)

    def test_bad_blocker_config_fails_at_compile_time(self):
        spec = _two_node_spec(nodes=(
            NodeSpec(id="a", kind="block",
                     params={"blocker": {"kind": "antigravity"}},
                     inputs={"tables": "in"},
                     outputs={"candidates": "out"}),
        ))
        with pytest.raises(PlanError, match="antigravity"):
            compile_plan(spec)

    def test_missing_plan_input_at_execute_time(self):
        compiled = compile_plan(_two_node_spec())
        with pytest.raises(PlanError, match="in"):
            compiled.execute(inputs={})

    def test_register_node_kind_refuses_overwrite(self):
        with pytest.raises(PlanError, match="already registered"):
            register_node_kind("block", lambda node, ins, ctx: {})

    def test_all_paper_kinds_registered(self):
        assert {
            "preprocess", "block", "down_sample", "label", "extract",
            "rules", "train", "predict", "cluster", "combine",
        } <= set(NODE_KINDS)


class TestRegistries:
    def test_matcher_registry_mirrors_defaults(self):
        from repro.matchers.factory import MATCHER_REGISTRY, create_matcher
        from repro.matchers.select import default_matchers

        by_name = {m.name: m for m in default_matchers()}
        assert len(MATCHER_REGISTRY) == len(by_name)
        for kind in MATCHER_REGISTRY:
            built = create_matcher(kind)
            assert built.name in by_name

    def test_unknown_matcher_kind(self):
        from repro.errors import MatcherError
        from repro.matchers.factory import create_matcher

        with pytest.raises(MatcherError, match="available"):
            create_matcher("perceptron9000")

    def test_rule_registries(self):
        from repro.rules.factory import (
            create_negative_rules,
            create_positive_rules,
        )

        positives = create_positive_rules(["m1", "award_project"])
        assert [r.name for r in positives] == [
            "M1", "award_number=project_number",
        ]
        negatives = create_negative_rules(["default"])
        assert len(negatives) == 2

    def test_unknown_rule_kind(self):
        from repro.errors import RuleError
        from repro.rules.factory import create_positive_rules

        with pytest.raises(RuleError):
            create_positive_rules(["m99"])

    def test_sampler_registry(self):
        from repro.errors import LabelingError
        from repro.labeling.factory import create_sampler

        sampler = create_sampler(
            {"kind": "corleone", "attrs": ["name"], "b_size": 5,
             "a_size": 10, "seed": 7}
        )
        assert sampler.mode == "tables"
        pairs = create_sampler("random_pairs")
        assert pairs.mode == "pairs"
        with pytest.raises(LabelingError):
            create_sampler({"kind": "census"})

    def test_feature_registry(self, people_tables):
        from repro.errors import FeatureError
        from repro.features.factory import create_feature_set

        left, right = people_tables
        fs = create_feature_set(
            {"generator": "auto", "exclude_attrs": ["id"]}, left, right
        )
        assert len(fs)
        with pytest.raises(FeatureError):
            create_feature_set({"generator": "psychic"}, left, right)


class TestSyntheticExecution:
    def _people_plan(self) -> PipelineSpec:
        return PipelineSpec(
            name="people",
            nodes=(
                NodeSpec(
                    id="by_city", kind="block",
                    params={"blocker": {"kind": "attr_equivalence",
                                        "l_attr": "city", "r_attr": "city"},
                            "l_key": "id", "r_key": "id"},
                    inputs={"ltable": "left", "rtable": "right"},
                    outputs={"candidates": "city_pairs"},
                ),
                NodeSpec(
                    id="by_name", kind="block",
                    params={"blocker": {"kind": "overlap", "l_attr": "name",
                                        "r_attr": "name", "threshold": 1},
                            "l_key": "id", "r_key": "id"},
                    inputs={"ltable": "left", "rtable": "right"},
                    outputs={"candidates": "name_pairs"},
                ),
                NodeSpec(
                    id="all", kind="combine",
                    params={"op": "union", "name": "union"},
                    inputs={"a": "city_pairs", "b": "name_pairs"},
                    outputs={"candidates": "all_pairs"},
                ),
                NodeSpec(
                    id="clusters", kind="cluster",
                    params={"method": "connected_components"},
                    inputs={"matches": "all_pairs"},
                    outputs={"clusters": "groups"},
                ),
            ),
            inputs=("left", "right"),
            outputs={"pairs": "all_pairs", "clusters": "groups"},
        )

    def test_end_to_end_over_people(self, people_tables):
        left, right = people_tables
        result = compile_plan(self._people_plan()).execute(
            inputs={"left": left, "right": right}
        )
        pairs = set(map(tuple, result["all_pairs"].pairs))
        assert (1, 10) in pairs and (3, 20) in pairs
        assert result.outputs["clusters"]

    def test_declaration_order_stable_topology(self):
        compiled = compile_plan(self._people_plan())
        assert [n.id for n in compiled.order] == [
            "by_city", "by_name", "all", "clusters",
        ]

    def test_warm_store_replay_is_all_hits(self, people_tables, tmp_path):
        from repro.runtime import EngineSession
        from repro.store import ArtifactStore

        left, right = people_tables
        compiled = compile_plan(self._people_plan())
        store = ArtifactStore(tmp_path / "store")
        with EngineSession(store=store) as session:
            compiled.execute(session, inputs={"left": left, "right": right})
            cold = store.stats()
            compiled.execute(session, inputs={"left": left, "right": right})
            warm = store.stats()
        assert cold.misses == 2 and cold.hits == 0  # one per block stage
        assert warm.misses == cold.misses, "replay must add zero new misses"
        assert warm.hits == cold.hits + 2


class TestFigure10Recipe:
    def test_recipe_matches_legacy_constructors(self):
        from repro.casestudy.blocking_plan import make_blockers
        from repro.store.fingerprint import fingerprint_blocker

        recipe = recipe_from_spec(figure10_spec())
        # identical store fingerprints ⇒ warm stores built before the
        # plan refactor stay valid
        assert [fingerprint_blocker(b) for b in recipe.blockers] == [
            fingerprint_blocker(b) for b in make_blockers()
        ]
        assert [r.name for r in recipe.positive_rules] == [
            "M1", "award_number=project_number",
        ]
        assert len(recipe.negative_rules) == 2

    def test_figure9_variant_empties_negative_rules(self):
        spec = strip_negative_rules(figure10_spec())
        assert spec.name == "figure9"
        assert recipe_from_spec(spec).negative_rules == ()

    def test_figure10_workflow_wraps_recipe(self):
        workflow = figure10_workflow()
        assert workflow.name == "figure10"
        assert len(workflow.blockers) == 3
        assert len(workflow.positive_rules) == 2
        assert len(workflow.negative_rules) == 2

    def test_port_wired_recipe_raises(self):
        spec = figure10_spec()
        spec = spec.replace_node(
            "orig_c1", params={"mode": "positive"},
            inputs={"tables": "tables", "rules": "wired_rules"},
        )
        with pytest.raises(PlanError, match="input port"):
            recipe_from_spec(spec)


class TestCLI:
    def test_blocker_flag_is_rejected(self, capsys):
        from repro.__main__ import main

        configs = json.dumps([
            {"kind": "attr_equivalence", "l_attr": "AwardNumber",
             "r_attr": "AwardNumber"},
        ])
        with pytest.raises(SystemExit) as exc:
            main(["casestudy", "--small", "--blocker", configs])
        assert exc.value.code == 2  # argparse usage error, nothing ran
        assert "--blocker" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["casestudy", "serve"])
    def test_workers_flag_is_rejected(self, capsys, command):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main([command, "--small", "--workers", "2"])
        assert exc.value.code == 2  # argparse usage error, nothing ran
        assert "--workers" in capsys.readouterr().err

    def test_plan_flag_loads_example_spec(self):
        from repro.__main__ import _plan_from_args

        ns = argparse.Namespace(plan=f"@{EXAMPLE_SPEC}")
        assert _plan_from_args(ns) == figure10_spec()


class TestManifestPlanRecord:
    def _manifest(self, name, node_fps, counts):
        from repro.obs.manifest import RunManifest

        return RunManifest(
            name=name, counts=dict(counts),
            plan={"name": "figure10",
                  "fingerprints": {"plan": "p", "nodes": dict(node_fps)}},
        )

    def test_diff_attributes_counts_to_node_edits(self):
        from repro.obs.manifest import diff_manifests

        old = self._manifest("a", {"train": "t1", "orig_c": "c1"},
                             {"final_matches": 10})
        new = self._manifest("b", {"train": "t1", "orig_c": "c2"},
                             {"final_matches": 12})
        diff = diff_manifests(old, new)
        edited = [r.key for r in diff.plan_rows if not r.equal]
        assert edited == ["orig_c"]
        assert "orig_c" in diff.render()
        assert not diff.counts_match  # plan rows never mask count drift

    def test_plan_rows_empty_without_both_plans(self):
        from repro.obs.manifest import RunManifest, diff_manifests

        old = RunManifest(name="pre-plan", counts={"x": 1})
        new = self._manifest("b", {"train": "t"}, {"x": 1})
        diff = diff_manifests(old, new)
        assert diff.plan_rows == ()
        assert diff.counts_match

    def test_old_manifests_still_load(self):
        from repro.obs.manifest import RunManifest

        data = {"name": "legacy", "counts": {"x": 1}, "retired_field": True}
        manifest = RunManifest.from_dict(data)
        assert manifest.plan == {}


class TestCaseStudyParity:
    @pytest.fixture(scope="class")
    def plan_run(self):
        from repro.casestudy import CaseStudyRun
        from tests.conftest import small_config

        return CaseStudyRun(
            config=small_config(), plan=PipelineSpec.load(EXAMPLE_SPEC)
        )

    def test_plan_driven_run_matches_golden(self, plan_run):
        from tests.test_golden import GOLDEN_PATH, snapshot

        expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert snapshot(plan_run) == expected

    def test_plan_record_lands_in_manifest(self, plan_run):
        record = plan_run.plan_record()
        assert record["name"] == "figure10"
        assert record["fingerprints"]["nodes"]
        assert record["fingerprints"]["plan"] == figure10_spec().fingerprint()
