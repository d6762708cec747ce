"""Node-kind registry: how each :class:`~repro.plan.spec.NodeSpec` runs.

Every node kind is a :class:`NodeKind` — a ``run(node, ins, ctx)``
function plus an optional compile-time ``prepare(node)`` validator —
registered in :data:`NODE_KINDS`. Runners resolve declarative params
through the per-family registries (blockers, matchers, rules, features,
samplers) and delegate the actual work to the *existing*
:class:`~repro.runtime.context.StageOperator` objects in
:mod:`repro.store.stages` via ``ctx.session.run_stage`` — so store
fingerprints, trace names and counters are byte-for-byte those of the
legacy hand-wired pipeline.

Input ports may carry either live objects (wired in by in-process
wrappers, or supplied as plan inputs) or be absent in favor of
JSON params (``{"blocker": {...config...}}``); both paths build
value-equal stage operators.

Third-party stages join via :func:`register_node_kind` — ROADMAP items 4
(weak supervision) and 5 (collective EM) are "register a node kind and
write a spec", not new plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..errors import PlanError, WorkflowError
from .spec import NodeSpec


@dataclass(frozen=True)
class ExecContext:
    """What a node runner sees beyond its own inputs."""

    session: Any
    collector: Any = None  # provenance collector for this node's group
    plan_name: str = ""


Runner = Callable[[NodeSpec, dict[str, Any], ExecContext], Mapping[str, Any]]


@dataclass(frozen=True)
class NodeKind:
    """A registered node kind: runner + optional eager validator."""

    name: str
    run: Runner
    prepare: Callable[[NodeSpec], None] | None = None


#: kind name -> NodeKind. Extend via :func:`register_node_kind`.
NODE_KINDS: dict[str, NodeKind] = {}


def register_node_kind(
    name: str,
    run: Runner,
    prepare: Callable[[NodeSpec], None] | None = None,
) -> None:
    """Register a node kind (overwriting an existing kind fails)."""
    if name in NODE_KINDS:
        raise PlanError(f"node kind {name!r} is already registered")
    NODE_KINDS[name] = NodeKind(name=name, run=run, prepare=prepare)


# ---------------------------------------------------------------------
# shared input plumbing


def _require(ins: Mapping[str, Any], node: NodeSpec, port: str) -> Any:
    if port not in ins:
        raise PlanError(
            f"node {node.id!r} ({node.kind}) needs an input wired to port "
            f"{port!r}; wired ports: {sorted(node.inputs)}"
        )
    return ins[port]


def _table_pair(node: NodeSpec, ins: Mapping[str, Any]) -> tuple:
    """Resolve ``(ltable, rtable, l_key, r_key)`` from a node's inputs.

    Accepts either one ``tables`` port carrying a
    :class:`~repro.casestudy.preprocess.ProjectedTables`-style object
    (``umetrics``/``usda``/``l_key``/``r_key``) or separate
    ``ltable``/``rtable`` ports with keys from params or a ``keys`` port.
    """
    if "tables" in ins:
        t = ins["tables"]
        return t.umetrics, t.usda, t.l_key, t.r_key
    ltable = _require(ins, node, "ltable")
    rtable = _require(ins, node, "rtable")
    keys = ins.get("keys")
    if keys is not None:
        l_key, r_key = keys
    else:
        l_key = node.params.get("l_key")
        r_key = node.params.get("r_key")
    if l_key is None or r_key is None:
        raise PlanError(
            f"node {node.id!r} ({node.kind}) needs keys: wire a 'keys' "
            f"input or set 'l_key'/'r_key' params"
        )
    return ltable, rtable, l_key, r_key


def _feature_set(node: NodeSpec, ins: Mapping[str, Any], ltable, rtable) -> Any:
    if "feature_set" in ins:
        return ins["feature_set"]
    config = node.params.get("features")
    if config is None:
        raise PlanError(
            f"node {node.id!r} ({node.kind}) needs a feature set: wire a "
            f"'feature_set' input or set a 'features' param"
        )
    from ..features.factory import create_feature_set

    return create_feature_set(config, ltable, rtable)


# ---------------------------------------------------------------------
# node runners


def _run_preprocess(node, ins, ctx):
    from ..casestudy.preprocess import preprocess, preprocess_extra

    scenario = _require(ins, node, "scenario")
    variant = node.params.get("variant", "projected")
    include_pn = bool(node.params.get("include_project_number", True))
    if variant in ("projected", "projected_v2"):
        if variant == "projected":
            include_pn = bool(node.params.get("include_project_number", False))
        tables = preprocess(scenario, include_project_number=include_pn)
    elif variant == "projected_extra":
        tables = preprocess_extra(scenario, include_project_number=include_pn)
    else:
        raise PlanError(
            f"node {node.id!r}: unknown preprocess variant {variant!r}"
        )
    return {"tables": tables}


def _run_block(node, ins, ctx):
    from ..store.stages import BlockStage

    ltable, rtable, l_key, r_key = _table_pair(node, ins)
    blocker = ins.get("blocker")
    if blocker is None:
        blocker = node.params.get("blocker")
    if blocker is None:
        raise PlanError(
            f"node {node.id!r} (block) needs a blocker: wire a 'blocker' "
            f"input or set a 'blocker' param (config or instance)"
        )
    from ..blocking.factory import create_blocker

    blocker = create_blocker(blocker)
    trace = node.params.get("trace", f"block:{blocker.short_name}")
    candidates = ctx.session.run_stage(
        BlockStage(
            blocker, ltable, rtable, l_key, r_key,
            name=node.params.get("name", ""), trace_name=trace,
        ),
        provenance=ctx.collector,
    )
    return {"candidates": candidates}


def _prepare_block(node: NodeSpec) -> None:
    blocker = node.params.get("blocker")
    if isinstance(blocker, Mapping):
        from ..blocking.factory import BLOCKER_REGISTRY, BlockerConfig

        cfg = BlockerConfig.parse(blocker)
        if cfg.kind not in BLOCKER_REGISTRY:
            raise PlanError(
                f"node {node.id!r}: unknown blocker kind {cfg.kind!r}; "
                f"available: {sorted(BLOCKER_REGISTRY)}"
            )


def _resolve_rules(node: NodeSpec, ins: Mapping[str, Any], mode: str) -> list:
    if "rules" in ins:
        return list(ins["rules"])
    configs = node.params.get("rules", [])
    from ..rules.factory import create_negative_rules, create_positive_rules

    if mode == "negative":
        return create_negative_rules(configs)
    return create_positive_rules(configs)


def _run_rules(node, ins, ctx):
    mode = node.params.get("mode", "positive")
    rules = _resolve_rules(node, ins, mode)
    if mode == "positive":
        from ..store.stages import SureMatchStage

        ltable, rtable, l_key, r_key = _table_pair(node, ins)
        matches = ctx.session.run_stage(
            SureMatchStage(
                rules, ltable, rtable, l_key, r_key,
                name=node.params.get("name", "sure_matches"),
                trace_name=node.params.get("trace"),
            ),
            provenance=ctx.collector,
        )
        return {"matches": matches}
    if mode == "negative":
        from ..rules.negative import apply_negative_rules

        matches = _require(ins, node, "matches")
        candidates = _require(ins, node, "candidates")
        if rules:
            kept, flipped = apply_negative_rules(matches, candidates, rules)
        else:
            kept, flipped = list(matches), []
        return {"kept": kept, "flipped": flipped}
    raise PlanError(f"node {node.id!r}: unknown rules mode {mode!r}")


def _run_down_sample(node, ins, ctx):
    from ..labeling.factory import create_sampler

    table_a = _require(ins, node, "table_a")
    table_b = _require(ins, node, "table_b")
    params = dict(node.params)
    params.setdefault("kind", "corleone")
    params.setdefault("seed", ctx.session.seed)
    sampler = create_sampler(params)
    if getattr(sampler, "mode", None) != "tables":
        raise PlanError(
            f"node {node.id!r}: down_sample needs a 'tables'-mode sampler"
        )
    sampled_a, sampled_b = sampler.sample_tables(
        table_a, table_b, session=ctx.session
    )
    return {"table_a": sampled_a, "table_b": sampled_b}


def _run_label(node, ins, ctx):
    protocol = node.params.get("protocol", "section8")
    if protocol != "section8":
        raise PlanError(
            f"node {node.id!r}: unknown labeling protocol {protocol!r}"
        )
    from ..casestudy.sampling import run_sampling_and_labeling

    candidates = _require(ins, node, "candidates")
    truth = _require(ins, node, "truth")
    ltable = getattr(candidates, "ltable", None)
    rtable = getattr(candidates, "rtable", None)
    feature_set = _feature_set(node, ins, ltable, rtable)
    seed = node.params.get("seed", ctx.session.seed)
    rounds = tuple(node.params.get("rounds", (100, 100, 100)))
    outcome = run_sampling_and_labeling(
        candidates, truth, feature_set, seed=seed, rounds=rounds
    )
    return {"labels": outcome.labels, "outcome": outcome}


def _run_extract(node, ins, ctx):
    from ..store.stages import ExtractStage

    candidates = _require(ins, node, "candidates")
    pairs = ins.get("pairs")
    feature_set = _feature_set(
        node, ins, getattr(candidates, "ltable", None),
        getattr(candidates, "rtable", None),
    )
    if node.params.get("skip_empty") and pairs is None and not len(candidates):
        # The legacy workflow never touches the store (or opens the
        # extract stage) for an empty prediction set; mirror that so
        # store ledgers and traces stay bit-identical.
        return {"matrix": None, "feature_set": feature_set}
    matrix = ctx.session.run_stage(
        ExtractStage(candidates, feature_set, pairs=pairs)
    )
    return {"matrix": matrix, "feature_set": feature_set}


def _resolve_matcher(node: NodeSpec, ins: Mapping[str, Any]) -> Any:
    if "matcher" in ins:
        return ins["matcher"]
    config = node.params.get("matcher")
    if config is None:
        raise PlanError(
            f"node {node.id!r} ({node.kind}) needs a matcher: wire a "
            f"'matcher' input or set a 'matcher' param"
        )
    from ..matchers.factory import create_matcher

    return create_matcher(config)


def _run_train(node, ins, ctx):
    protocol = node.params.get("protocol", "fit")
    matcher = _resolve_matcher(node, ins)
    if protocol == "workflow_matcher":
        # Section 9 / train_workflow_matcher semantics: drop Unsure pairs
        # and the M1 sure matches, extract over the surviving pairs, fit
        # a clone under the fit_matcher stage.
        from ..casestudy.matching import sure_match_pairs, training_labels
        from ..runtime.instrument import stage
        from ..store.stages import ExtractStage

        candidates = _require(ins, node, "candidates")
        labels = _require(ins, node, "labels")
        feature_set = _feature_set(
            node, ins, getattr(candidates, "ltable", None),
            getattr(candidates, "rtable", None),
        )
        sure = sure_match_pairs(candidates)
        pairs, y = training_labels(labels, sure)
        matrix = ctx.session.run_stage(
            ExtractStage(candidates, feature_set, pairs=pairs)
        )
        with stage(ctx.session.instrumentation, "fit_matcher"):
            trained = matcher.clone()
            trained.fit(matrix, y)
        return {"matcher": trained}
    if protocol == "fit":
        from ..runtime.instrument import stage

        matrix = _require(ins, node, "matrix")
        y = _require(ins, node, "labels")
        with stage(ctx.session.instrumentation, "fit_matcher"):
            trained = matcher.clone()
            trained.fit(matrix, y)
        return {"matcher": trained}
    raise PlanError(f"node {node.id!r}: unknown train protocol {protocol!r}")


def _run_predict(node, ins, ctx):
    from ..store.stages import PredictStage

    matcher = _resolve_matcher(node, ins)
    matrix = _require(ins, node, "matrix")
    if not getattr(matcher, "is_fitted", True):
        raise WorkflowError(
            f"node {node.id!r} needs a trained matcher; "
            f"{matcher.name!r} is unfitted"
        )
    if matrix is None:
        return {"matches": []}
    predicted = ctx.session.run_stage(
        PredictStage(
            matcher, matrix,
            trace_name=node.params.get("trace", "predict"),
            cached=bool(node.params.get("cached", True)),
        )
    )
    if ctx.collector is not None:
        ctx.collector.record_scores(matcher.predict_proba(matrix))
    return {"matches": predicted}


def _run_combine(node, ins, ctx):
    op = node.params.get("op")
    if op == "union":
        from ..blocking.combiner import union_candidates

        parts = [ins[port] for port in node.inputs]
        return {
            "candidates": union_candidates(
                parts, name=node.params.get("name", "")
            )
        }
    if op == "difference":
        from ..runtime.instrument import count

        left = _require(ins, node, "left")
        right = _require(ins, node, "right")
        result = left.difference(right, name=node.params.get("name", ""))
        counter = node.params.get("count_left")
        if counter:
            count(ctx.session.instrumentation, counter, len(left))
        return {"candidates": result}
    if op == "finalize_matches":
        sure = _require(ins, node, "sure")
        kept = _require(ins, node, "kept")
        final = list(sure.pairs) + [p for p in kept if p not in sure]
        if ctx.collector is not None:
            ctx.collector.record_outcome(
                ins.get("predicted", ()), ins.get("flipped", ()), final
            )
        return {"matches": final}
    if op == "merge_match_sets":
        from ..core.patch import merge_match_sets

        parts = []
        for port in node.inputs:
            value = ins[port]
            parts.append(getattr(value, "pairs", value))
        return {"matches": merge_match_sets(parts)}
    raise PlanError(f"node {node.id!r}: unknown combine op {op!r}")


def _prepare_combine(node: NodeSpec) -> None:
    if node.params.get("op") not in (
        "union", "difference", "finalize_matches", "merge_match_sets"
    ):
        raise PlanError(
            f"node {node.id!r}: combine needs an 'op' param of "
            f"union/difference/finalize_matches/merge_match_sets, got "
            f"{node.params.get('op')!r}"
        )


def _run_cluster(node, ins, ctx):
    method = node.params.get("method", "connected_components")
    matches = _require(ins, node, "matches")
    matches = getattr(matches, "pairs", matches)
    if method == "connected_components":
        from ..clustering.cluster_match import cluster_by_links

        ids = sorted({x for pair in matches for x in pair})
        return {"clusters": cluster_by_links(ids, [tuple(p) for p in matches])}
    if method == "one_to_one":
        from ..clustering.graph import optimal_one_to_one

        return {"clusters": optimal_one_to_one(matches)}
    raise PlanError(f"node {node.id!r}: unknown cluster method {method!r}")


register_node_kind("preprocess", _run_preprocess)
register_node_kind("block", _run_block, prepare=_prepare_block)
register_node_kind("rules", _run_rules)
register_node_kind("down_sample", _run_down_sample)
register_node_kind("label", _run_label)
register_node_kind("extract", _run_extract)
register_node_kind("train", _run_train)
register_node_kind("predict", _run_predict)
register_node_kind("combine", _run_combine, prepare=_prepare_combine)
register_node_kind("cluster", _run_cluster)
