"""The paper's Figure-9/10 combined workflow as a single pipeline spec.

This is *the* recipe — previously hand-wired in three places
(``run_combined_workflow``, the ``MatchService`` CLI bootstrap, and the
benches) — now declared once. :func:`figure10_spec` grows PR 9's
``default_plan_configs()`` (blockers only) into the full pipeline: train
the Section-9 matcher, run rules + blocking + prediction + negative
rules over the original and extra table slices, and merge the final
match sets.

The default spec is pure config (JSON-serializable; committed as
``examples/figure10.json``); callers may substitute live blocker
instances, which keeps execution identical but makes the spec
object-mode only.

:func:`recipe_from_spec` walks a spec back into the (blockers, positive
rules, negative rules) triple that slice-level consumers like
:class:`repro.serving.MatchService` need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from ..errors import PlanError
from .spec import NodeSpec, PipelineSpec

_SLICES = (
    ("orig", "tables", "original_slice"),
    ("extra", "extra_tables", "extra_slice"),
)

#: the two Section-12 negative-rule clauses, in recipe order.
DEFAULT_NEGATIVE_RULES = (
    "comparable_award_numbers_differ",
    "comparable_project_numbers_differ",
)

#: the revised (Section-10) positive match definition.
DEFAULT_POSITIVE_RULES = ("m1", "award_project")


def _slice_nodes(
    prefix: str,
    tables_artifact: str,
    group: str,
    blockers: Sequence[Any],
    negative_rules: Sequence[Any],
) -> list[NodeSpec]:
    """One table slice of the combined workflow (Figure 10, steps 1-6)."""
    a = lambda suffix: f"{prefix}.{suffix}"  # noqa: E731 - artifact namer
    nodes = [
        NodeSpec(
            id=f"{prefix}_c1",
            kind="rules",
            params={
                "mode": "positive",
                "rules": list(DEFAULT_POSITIVE_RULES),
                "name": "C1",
                "trace": "positive_rules",
            },
            inputs={"tables": tables_artifact},
            outputs={"matches": a("c1")},
            group=group,
        )
    ]
    for i, blocker in enumerate(blockers):
        nodes.append(
            NodeSpec(
                id=f"{prefix}_block_{i}",
                kind="block",
                params={"blocker": blocker},
                inputs={"tables": tables_artifact},
                outputs={"candidates": a(f"b{i}")},
                group=group,
            )
        )
    union_inputs = {"c1": a("c1")}
    union_inputs.update({f"b{i}": a(f"b{i}") for i in range(len(blockers))})
    nodes += [
        NodeSpec(
            id=f"{prefix}_c2",
            kind="combine",
            params={"op": "union", "name": "C2"},
            inputs=union_inputs,
            outputs={"candidates": a("c2")},
            group=group,
        ),
        NodeSpec(
            id=f"{prefix}_c",
            kind="combine",
            # count_left records the legacy "candidates" counter: |C2|.
            params={"op": "difference", "name": "C", "count_left": "candidates"},
            inputs={"left": a("c2"), "right": a("c1")},
            outputs={"candidates": a("c")},
            group=group,
        ),
        NodeSpec(
            id=f"{prefix}_extract",
            kind="extract",
            params={"skip_empty": True},
            inputs={"candidates": a("c"), "feature_set": "feature_set"},
            outputs={"matrix": a("matrix")},
            group=group,
        ),
        NodeSpec(
            id=f"{prefix}_predict",
            kind="predict",
            inputs={"matcher": "matcher", "matrix": a("matrix")},
            outputs={"matches": a("predicted")},
            group=group,
        ),
        NodeSpec(
            id=f"{prefix}_negative",
            kind="rules",
            params={"mode": "negative", "rules": list(negative_rules)},
            inputs={"matches": a("predicted"), "candidates": a("c")},
            outputs={"kept": a("kept"), "flipped": a("flipped")},
            group=group,
        ),
        NodeSpec(
            id=f"{prefix}_final",
            kind="combine",
            params={"op": "finalize_matches"},
            inputs={
                "sure": a("c1"),
                "kept": a("kept"),
                "predicted": a("predicted"),
                "flipped": a("flipped"),
            },
            outputs={"matches": a("final")},
            group=group,
        ),
    ]
    return nodes


def figure10_spec(
    with_negative_rules: bool = True,
    blockers: Sequence[Any] | None = None,
) -> PipelineSpec:
    """The combined Figure-10 (or, without negative rules, Figure-9) plan.

    *blockers* substitutes the Section-7 blocking plan — a list of
    factory configs (JSON mode) or live blocker instances (object
    mode); ``None`` uses the paper recipe
    (:func:`repro.blocking.factory.default_plan_configs`).
    """
    if blockers is None:
        from ..blocking.factory import default_plan_configs

        blockers = default_plan_configs()
    blockers = list(blockers)
    negative = list(DEFAULT_NEGATIVE_RULES) if with_negative_rules else []
    nodes = [
        NodeSpec(
            id="train",
            kind="train",
            params={"protocol": "workflow_matcher"},
            inputs={
                "candidates": "candidates",
                "labels": "labels",
                "feature_set": "feature_set",
                "matcher": "matcher_proto",
            },
            outputs={"matcher": "matcher"},
        )
    ]
    for prefix, tables_artifact, group in _SLICES:
        nodes += _slice_nodes(prefix, tables_artifact, group, blockers, negative)
    nodes.append(
        NodeSpec(
            id="merge",
            kind="combine",
            params={"op": "merge_match_sets"},
            inputs={
                "sure_original": "orig.c1",
                "sure_extra": "extra.c1",
                "kept_original": "orig.kept",
                "kept_extra": "extra.kept",
            },
            outputs={"matches": "matches"},
        )
    )
    outputs = {"matches": "matches", "trained_matcher": "matcher"}
    for prefix, _, _ in _SLICES:
        name = "original" if prefix == "orig" else prefix
        outputs.update(
            {
                f"{name}_sure": f"{prefix}.c1",
                f"{name}_blocked": f"{prefix}.c2",
                f"{name}_to_predict": f"{prefix}.c",
                f"{name}_predicted": f"{prefix}.predicted",
                f"{name}_flipped": f"{prefix}.flipped",
                f"{name}_matches": f"{prefix}.final",
            }
        )
    return PipelineSpec(
        name="figure10" if with_negative_rules else "figure9",
        nodes=tuple(nodes),
        inputs=(
            "tables", "extra_tables", "candidates", "labels",
            "feature_set", "matcher_proto",
        ),
        outputs=outputs,
    )


def strip_negative_rules(spec: PipelineSpec) -> PipelineSpec:
    """The Figure-9 variant of *spec*: negative-rule nodes become no-ops.

    Emptying the rule list (rather than removing the nodes) keeps the
    artifact wiring — and with it every downstream edge — untouched;
    ``apply_negative_rules`` with no rules keeps every match, exactly
    like the legacy ``with_negative_rules=False`` path.
    """
    nodes = tuple(
        replace(n, params={**dict(n.params), "rules": []})
        if n.kind == "rules" and n.params.get("mode", "positive") == "negative"
        else n
        for n in spec.nodes
    )
    name = "figure9" if spec.name == "figure10" else spec.name
    return replace(spec, nodes=nodes, name=name)


def drop_train_nodes(spec: PipelineSpec) -> PipelineSpec:
    """Strip every ``train`` node, promoting its outputs to plan inputs.

    Used when the caller supplies an already-fitted matcher (the legacy
    ``run_combined_workflow(matcher=...)`` contract)."""
    train_ids = [n.id for n in spec.nodes if n.kind == "train"]
    return spec.without_nodes(train_ids) if train_ids else spec


@dataclass(frozen=True)
class PlanRecipe:
    """A spec's per-slice recipe: what slice-level consumers need."""

    blockers: tuple
    positive_rules: tuple
    negative_rules: tuple


def recipe_from_spec(spec: PipelineSpec) -> PlanRecipe:
    """Extract (blockers, positive rules, negative rules) from a spec.

    Reads the *first* slice containing block nodes (node declaration
    order), resolving configs through the family registries — the single
    source the ``MatchService`` bootstrap and the Section-7 blocking plan
    derive from. Rules wired through input ports (rather than params)
    cannot be resolved statically and raise :class:`PlanError`.
    """
    block_nodes = [n for n in spec.nodes if n.kind == "block"]
    if not block_nodes:
        raise PlanError(f"plan {spec.name!r} has no block nodes")
    slice_group = block_nodes[0].group
    in_slice = [n for n in spec.nodes if n.group == slice_group]
    from ..blocking.factory import create_blocker
    from ..rules.factory import create_negative_rules, create_positive_rules

    blockers = tuple(
        create_blocker(
            n.params.get("blocker")
            if n.params.get("blocker") is not None
            else _port_error(n, "blocker")
        )
        for n in in_slice
        if n.kind == "block"
    )

    def _rules(mode: str, create) -> tuple:
        for node in in_slice:
            if node.kind == "rules" and node.params.get("mode", "positive") == mode:
                if "rules" in node.inputs:
                    _port_error(node, "rules")
                configs = node.params.get("rules", [])
                if configs and not isinstance(configs[0], str) and not isinstance(
                    configs[0], Mapping
                ):
                    return tuple(configs)  # live rule objects
                return tuple(create(configs))
        return ()

    return PlanRecipe(
        blockers=blockers,
        positive_rules=_rules("positive", create_positive_rules),
        negative_rules=_rules("negative", create_negative_rules),
    )


def _port_error(node: NodeSpec, what: str) -> Any:
    raise PlanError(
        f"node {node.id!r} wires {what!r} through an input port; "
        f"a static recipe needs it in params"
    )


def figure10_workflow(spec: PipelineSpec | None = None, *, name: str | None = None):
    """One table slice of *spec* as an :class:`~repro.core.EMWorkflow`.

    The slice-level consumers (packaging, the serving-vs-rerun bench)
    need an ``EMWorkflow`` object; deriving it from the spec via
    :func:`recipe_from_spec` keeps the recipe single-sourced instead of
    re-wiring blockers and rules by hand at each call site.
    """
    from ..core.workflow import EMWorkflow

    spec = spec if spec is not None else figure10_spec()
    recipe = recipe_from_spec(spec)
    return EMWorkflow(
        name=name if name is not None else spec.name,
        positive_rules=list(recipe.positive_rules),
        blockers=list(recipe.blockers),
        negative_rules=list(recipe.negative_rules),
    )
