"""Sections 10 & 12 — the updated (Figure 9) and final (Figure 10) workflows.

Section 10 brought two complications without a redo:

* a *new positive rule* (UMETRICS award number = USDA project number) was
  discovered; the paper checks how the existing pipeline handles it (411 of
  473 rule pairs were already in C; the matcher already predicted most as
  matches) and then patches the workflow rather than re-labeling;
* 496 *extra UMETRICS records* surfaced; the same patched workflow is run
  over them with the already-trained matcher.

The Figure-9 procedure: sure matches C1/D1 from both rules; blocking ->
C2/D2; predict on C2-C1 and D2-D1 with the matcher trained on the existing
labels (minus Unsure, minus sure matches); final matches = C1 ∪ D1 ∪ R1 ∪
R2. Figure 10 adds the negative rules to R1/R2 (S1/S2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blocking.candidate_set import CandidateSet, Pair
from ..core.workflow import WorkflowResult
from ..features.generate import FeatureSet
from ..labeling.labels import LabeledPairs
from ..matchers.ml_matcher import MLMatcher
from ..plan.compile import compile_plan
from ..plan.figure10 import drop_train_nodes, figure10_spec, strip_negative_rules
from ..plan.spec import NodeSpec, PipelineSpec
from ..rules.positive import award_project_rule, m1_rule
from ..runtime.context import EngineSession
from ..table.ops import concat
from .matching import sure_match_pairs
from .preprocess import ProjectedTables


def positive_rules() -> list:
    """Both positive rules of the revised match definition."""
    return [m1_rule(), award_project_rule()]


@dataclass(frozen=True)
class RuleCoverage:
    """Section 10's pre-patch check of the new positive rule."""

    pairs_in_product: int     # rule pairs in A x B (paper: 473)
    pairs_in_candidates: int  # of those, already in C (paper: 411)
    predicted_as_match: int   # of those, already predicted matches (397)


def check_new_rule_coverage(
    tables: ProjectedTables,
    candidates: CandidateSet,
    predicted_matches: list[Pair],
) -> RuleCoverage:
    """Would a redo be needed? The paper's three-step audit of the new rule."""
    rule_pairs = award_project_rule().pairs(
        tables.umetrics, tables.usda, tables.l_key, tables.r_key
    )
    in_c = [p for p in rule_pairs if p in candidates]
    predicted = set(map(tuple, predicted_matches))
    sure = sure_match_pairs(candidates)  # M1 pairs were matches by definition
    covered = [p for p in in_c if p in predicted or p in set(sure)]
    return RuleCoverage(
        pairs_in_product=len(rule_pairs),
        pairs_in_candidates=len(in_c),
        predicted_as_match=len(covered),
    )


@dataclass(frozen=True)
class CombinedWorkflowOutcome:
    """Results of the Figure 9 / Figure 10 combined workflow."""

    original: WorkflowResult
    extra: WorkflowResult
    matches: tuple[Pair, ...]
    consolidated_candidates: CandidateSet  # E = C2 ∪ D2 (over merged tables)

    def summary(self) -> str:
        return (
            f"original: [{self.original.summary()}]; "
            f"extra: [{self.extra.summary()}]; "
            f"final matches={len(self.matches)}"
        )

    def explain_pair(self, a, b):
        """Lineage of pair ``(a, b)`` from whichever table slice saw it.

        The combined match set is the union of the two slices' final
        matches, so the slice that knows the pair owns its lineage;
        unknown pairs explain through the original slice (an all-negative
        lineage). Requires ``provenance=True`` at workflow time.
        """
        from ..obs.provenance import require_provenance

        for result in (self.original, self.extra):
            provenance = require_provenance(result.provenance)
            if provenance.knows((a, b)):
                return provenance.explain_pair(a, b)
        return require_provenance(self.original.provenance).explain_pair(a, b)


def train_workflow_matcher(
    candidates: CandidateSet,
    labels: LabeledPairs,
    feature_set: FeatureSet,
    matcher: MLMatcher,
    *,
    session: EngineSession | None = None,
) -> MLMatcher:
    """Train (a clone of) *matcher* exactly as Section 9 did: drop Unsure
    pairs and the *M1* sure matches, keep the project-number-rule pairs.

    The paper verified the Section-9 matcher "was already learning the
    above positive rule from the labeled data" — i.e. rule-2 pairs were in
    its training set; removing them as well would strip nearly every clean
    high-similarity positive from the sample. The rules still take
    precedence at prediction time (the workflow only predicts on C minus
    the sure matches of *both* rules).

    A thin wrapper over a single plan ``train`` node (protocol
    ``workflow_matcher``) — the same node the Figure-10 spec runs."""
    spec = PipelineSpec(
        name="train_workflow_matcher",
        nodes=(
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
            ),
        ),
        inputs=("candidates", "labels", "feature_set", "matcher_proto"),
        outputs={"matcher": "matcher"},
    )
    result = compile_plan(spec).execute(
        session,
        inputs={
            "candidates": candidates,
            "labels": labels,
            "feature_set": feature_set,
            "matcher_proto": matcher,
        },
    )
    return result.artifacts["matcher"]


def merged_candidate_universe(
    original: ProjectedTables,
    extra: ProjectedTables,
    original_result: WorkflowResult,
    extra_result: WorkflowResult,
) -> CandidateSet:
    """E = all candidate pairs from both slices, over a merged left table.

    Corleone estimation needs one finite population containing every
    matcher's predictions, so the two slices' candidate sets are re-keyed
    onto a concatenated UMETRICS table.
    """
    merged_left = concat(
        [original.umetrics, extra.umetrics], name="UMETRICSProjectedAll"
    )
    return CandidateSet.merged(
        [original_result.blocked, extra_result.blocked],
        merged_left, original.usda, name="E",
    )


def _slice_result(outputs: dict, prefix: str, collector) -> WorkflowResult:
    """Assemble one slice's :class:`WorkflowResult` from plan outputs."""
    return WorkflowResult(
        sure_matches=outputs[f"{prefix}_sure"],
        blocked=outputs[f"{prefix}_blocked"],
        to_predict=outputs[f"{prefix}_to_predict"],
        predicted_matches=tuple(outputs[f"{prefix}_predicted"]),
        flipped=tuple(outputs[f"{prefix}_flipped"]),
        matches=tuple(outputs[f"{prefix}_matches"]),
        provenance=collector,
    )


def run_combined_workflow(
    original: ProjectedTables,
    extra: ProjectedTables,
    labels: LabeledPairs,
    feature_set: FeatureSet,
    matcher: MLMatcher,
    with_negative_rules: bool = False,
    *,
    provenance: "bool | object | None" = None,
    session: EngineSession | None = None,
    plan: PipelineSpec | None = None,
) -> CombinedWorkflowOutcome:
    """Run the Figure-9 (or, with negative rules, Figure-10) workflow.

    A thin wrapper over ``compile_plan(spec).execute(session)``: the
    default *plan* is :func:`repro.plan.figure10.figure10_spec` — the one
    shared recipe — with its ``train`` node dropped (*matcher* is already
    trained) and, when ``with_negative_rules`` is false, the negative-rule
    nodes emptied (the Figure-9 variant). A custom *plan* must export the
    same output names (``matches``, ``original_*``/``extra_*``) and group
    its slice nodes under ``original_slice``/``extra_slice``.

    The resolved session's instrumentation collects a stage tree (one
    subtree per slice) renderable via
    :meth:`~repro.runtime.instrument.Instrumentation.report`; its store
    makes the run incremental: re-running with added negative rules (the
    Figure-10 patch) reuses every blocking, extraction and prediction
    artifact, since those stages' input fingerprints are unchanged.
    ``provenance=True`` (or a session with ``provenance=True``) records
    per-pair match lineage on both slices — each slice gets its own fresh
    collector (see :meth:`CombinedWorkflowOutcome.explain_pair`).
    """
    spec = plan if plan is not None else figure10_spec()
    if not with_negative_rules:
        spec = strip_negative_rules(spec)
    spec = drop_train_nodes(spec)
    result = compile_plan(spec).execute(
        session,
        inputs={
            "tables": original,
            "extra_tables": extra,
            "feature_set": feature_set,
            "matcher": matcher,
            "labels": labels,
        },
        provenance=provenance,
    )
    outputs = result.outputs
    original_result = _slice_result(
        outputs, "original", result.collectors.get("original_slice")
    )
    extra_result = _slice_result(
        outputs, "extra", result.collectors.get("extra_slice")
    )
    universe = merged_candidate_universe(original, extra, original_result, extra_result)
    return CombinedWorkflowOutcome(
        original=original_result,
        extra=extra_result,
        matches=tuple(outputs["matches"]),
        consolidated_candidates=universe,
    )
