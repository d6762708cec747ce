"""The end-to-end case study, section by section.

:class:`CaseStudyRun` executes the whole pipeline once (scenario ->
pre-processing -> blocking -> labeling -> matching -> updated/final
workflows -> accuracy estimation) with lazily-computed, cached stages, so
examples, tests and benches can share one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from ..blocking.candidate_set import Pair
from ..datasets.iris import iris_matcher
from ..datasets.scenario import Scenario, ScenarioConfig, generate_scenario
from ..labeling.oracle import ExpertOracle
from ..runtime.context import EngineSession
from ..runtime.instrument import stage
from .accuracy import AccuracyOutcome, run_accuracy_estimation
from .blocking_plan import BlockingOutcome, run_blocking, threshold_sweep
from .matching import MatchingOutcome, base_feature_set, run_matching
from .preprocess import ProjectedTables, preprocess, preprocess_extra
from .sampling import LabelingOutcome, run_sampling_and_labeling
from .workflows import (
    CombinedWorkflowOutcome,
    RuleCoverage,
    check_new_rule_coverage,
    run_combined_workflow,
    train_workflow_matcher,
)

__all__ = [
    "AccuracyOutcome",
    "BlockingOutcome",
    "CaseStudyRun",
    "CombinedWorkflowOutcome",
    "LabelingOutcome",
    "MatchingOutcome",
    "ProjectedTables",
    "RuleCoverage",
    "base_feature_set",
    "check_new_rule_coverage",
    "preprocess",
    "preprocess_extra",
    "run_accuracy_estimation",
    "run_blocking",
    "run_combined_workflow",
    "run_matching",
    "run_sampling_and_labeling",
    "threshold_sweep",
    "train_workflow_matcher",
]


def _plan_fingerprints(spec) -> dict:
    """Per-node content fingerprints (empty for object-mode specs)."""
    from ..errors import PlanError

    try:
        return {"plan": spec.fingerprint(), "nodes": spec.node_fingerprints()}
    except PlanError:
        return {}


@dataclass
class CaseStudyRun:
    """One full execution of the case study over the synthetic scenario.

    Stages are cached properties computed on first access, in dependency
    order; a bench that only needs blocking never pays for matching.

    Every capability is carried by one
    :class:`~repro.runtime.context.EngineSession`: pass ``session=`` to
    supply it, or let the run own a default serial
    ``EngineSession(seed=config.seed)``. The session's store makes the run
    incremental *across processes* (a re-run reuses every blocking /
    feature-extraction / prediction artifact whose input fingerprints are
    unchanged); its instrumentation collects one stage subtree per
    section — each stage property materializes its dependencies *before*
    opening its own stage, so the tree shape does not depend on which
    property is accessed first; and its provenance policy records per-pair match
    lineage on the updated/final workflows (see
    :meth:`~repro.casestudy.CombinedWorkflowOutcome.explain_pair`). A
    finished run serializes to a machine-readable record via
    :meth:`repro.obs.manifest.RunManifest.from_case_study`.
    :meth:`close` (or using the run as a context manager) releases the
    run-owned session; a supplied ``session`` is the caller's to close.
    """

    config: ScenarioConfig = field(default_factory=ScenarioConfig)
    session: EngineSession | None = None
    #: Optional full pipeline plan (:class:`repro.plan.PipelineSpec`) —
    #: e.g. ``PipelineSpec.load("examples/figure10.json")``. Drives the
    #: Section-7 blocking recipe *and* the Section-10/12 combined
    #: workflows; ``None`` runs :func:`repro.plan.figure10_spec`.
    plan: "object | None" = None
    _owned_session: EngineSession | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def engine_session(self) -> EngineSession:
        """The session every stage runs under: the injected one, else a
        run-owned serial session created on first use."""
        if self.session is not None:
            return self.session
        if self._owned_session is None:
            self._owned_session = EngineSession(seed=self.config.seed)
        return self._owned_session

    def _stage(self, name: str):
        return stage(self.engine_session.instrumentation, name)

    @property
    def effective_plan(self):
        """The pipeline spec this run executes: ``plan``, else the paper
        recipe."""
        from ..plan.figure10 import figure10_spec

        return self.plan if self.plan is not None else figure10_spec()

    @property
    def _plan_blockers(self) -> "list | None":
        """Section-7 blockers derived from the plan (``None`` = paper
        recipe, letting :func:`run_blocking` use ``make_blockers``)."""
        if self.plan is not None:
            from ..plan.figure10 import recipe_from_spec

            return list(recipe_from_spec(self.plan).blockers)
        return None

    def plan_record(self) -> dict:
        """The plan as manifest data: canonical when JSON-safe, else a
        degraded structural sketch (ids/kinds only) for object-mode specs."""
        from ..errors import PlanError

        spec = self.effective_plan
        try:
            record = spec.canonical()
        except PlanError:
            record = {
                "name": spec.name,
                "nodes": [{"id": n.id, "kind": n.kind} for n in spec.nodes],
                "degraded": True,
            }
        record["fingerprints"] = _plan_fingerprints(spec)
        return record

    def close(self) -> None:
        """Release the run-owned session (idempotent;
        an injected ``session`` is the caller's to close)."""
        owned, self._owned_session = self._owned_session, None
        if owned is not None:
            owned.close()

    def __enter__(self) -> "CaseStudyRun":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @cached_property
    def scenario(self) -> Scenario:
        with self._stage("generate_scenario"):
            return generate_scenario(self.config)

    # ------------------------------------------------------------ §6
    @cached_property
    def projected(self) -> ProjectedTables:
        """First-pass projected tables (no ProjectNumber yet)."""
        scenario = self.scenario
        with self._stage("preprocess"):
            return preprocess(scenario, include_project_number=False)

    @cached_property
    def projected_v2(self) -> ProjectedTables:
        """Section-10 revision: USDAProjected gains ProjectNumber."""
        scenario = self.scenario
        with self._stage("preprocess"):
            return preprocess(scenario, include_project_number=True)

    @cached_property
    def projected_extra(self) -> ProjectedTables:
        scenario = self.scenario
        with self._stage("preprocess"):
            return preprocess_extra(scenario, include_project_number=True)

    # ------------------------------------------------------------ §7
    @cached_property
    def blocking(self) -> BlockingOutcome:
        tables = self.projected
        with self._stage("sec7:blocking"):
            return run_blocking(
                tables, session=self.engine_session, blockers=self._plan_blockers
            )

    @cached_property
    def blocking_v2(self) -> BlockingOutcome:
        """Blocking over the revised projected tables (same blockers)."""
        tables = self.projected_v2
        with self._stage("sec7:blocking"):
            return run_blocking(
                tables, session=self.engine_session, blockers=self._plan_blockers
            )

    # ------------------------------------------------------------ §8
    @cached_property
    def labeling(self) -> LabelingOutcome:
        blocking = self.blocking_v2
        tables = self.projected
        with self._stage("sec8:labeling"):
            return run_sampling_and_labeling(
                blocking.candidates,
                tables.truth,
                base_feature_set(tables),
                seed=self.config.seed,
            )

    # ------------------------------------------------------------ §9
    @cached_property
    def matching(self) -> MatchingOutcome:
        blocking = self.blocking_v2
        labeling = self.labeling
        tables = self.projected_v2
        with self._stage("sec9:matching"):
            return run_matching(
                blocking.candidates,
                labeling.labels,
                tables,
                seed=self.config.seed,
                session=self.engine_session,
            )

    # ------------------------------------------------------------ §10/12
    def _combined_workflow(
        self, stage_name: str, with_negative_rules: bool
    ) -> CombinedWorkflowOutcome:
        blocking = self.blocking_v2
        labeling = self.labeling
        matching = self.matching
        original, extra = self.projected_v2, self.projected_extra
        with self._stage(stage_name):
            matcher = train_workflow_matcher(
                blocking.candidates,
                labeling.labels,
                matching.feature_set,
                matching.matcher,
                session=self.engine_session,
            )
            return run_combined_workflow(
                original, extra,
                labeling.labels, matching.feature_set, matcher,
                with_negative_rules=with_negative_rules,
                session=self.engine_session,
                plan=self.effective_plan,
            )

    @cached_property
    def updated_workflow(self) -> CombinedWorkflowOutcome:
        return self._combined_workflow("sec10:updated_workflow", False)

    @cached_property
    def final_workflow(self) -> CombinedWorkflowOutcome:
        return self._combined_workflow("sec12:final_workflow", True)

    # ------------------------------------------------------------ §11
    @cached_property
    def combined_truth(self) -> set[Pair]:
        return self.projected_v2.truth | self.projected_extra.truth

    @cached_property
    def iris_matches(self) -> list[Pair]:
        v2, extra_tables = self.projected_v2, self.projected_extra
        with self._stage("iris_baseline"):
            matcher = iris_matcher()
            original = matcher.predict_tables(
                v2.umetrics, v2.usda, v2.l_key, v2.r_key,
            )
            extra = matcher.predict_tables(
                extra_tables.umetrics, extra_tables.usda,
                extra_tables.l_key, extra_tables.r_key,
            )
            return list(original.pairs) + list(extra.pairs)

    @cached_property
    def accuracy(self) -> AccuracyOutcome:
        from .sampling import make_oracles

        final = self.final_workflow
        updated = self.updated_workflow
        iris = self.iris_matches
        truth = self.combined_truth
        with self._stage("sec11:accuracy"):
            authority, _, _ = make_oracles(truth, self.config.seed)
            return run_accuracy_estimation(
                final.consolidated_candidates,
                predictions={
                    "learning-based": list(updated.matches),
                    "IRIS (rules)": iris,
                    "learning + negative rules": list(final.matches),
                },
                oracle=authority,
                sample_sizes=(200, 400),
                seed=self.config.seed,
            )

    # ------------------------------------------------------------ §12
    @cached_property
    def monitoring(self) -> "AccuracyMonitor":
        """One Section-12 monitoring round over the final match batch.

        The returned :class:`~repro.evaluation.monitor.AccuracyMonitor`
        carries the report history; the run manifest embeds its JSON
        export so drift checks are recorded alongside timings.
        """
        from ..evaluation.monitor import AccuracyMonitor
        from .sampling import make_oracles

        final = self.final_workflow
        truth = self.combined_truth
        with self._stage("sec12:monitoring"):
            authority, _, _ = make_oracles(truth, self.config.seed)
            monitor = AccuracyMonitor(seed=self.config.seed)
            monitor.check_batch(
                "final_workflow",
                final.consolidated_candidates,
                list(final.matches),
                authority,
            )
            return monitor
