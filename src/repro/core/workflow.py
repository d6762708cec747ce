"""Composable EM workflows (Figures 8-10 of the paper).

A :class:`EMWorkflow` bundles the stages the case study's workflows share:

1. apply positive (sure-match) rules to the input tables -> C1;
2. apply the blockers and union their outputs -> C2;
3. C = C2 - C1 is what a matcher will predict over;
4. apply a trained matcher to C -> R;
5. optionally filter R through negative rules;
6. final matches = C1 ∪ (kept R).

Figure 8 is this workflow with only the M1 rule and no negative rules;
Figure 9 adds the award/project-number rule and a second table slice
(handled by running the same workflow on the extra records — see
:mod:`repro.core.patch`); Figure 10 adds the negative rules.

Since the plan IR landed, :class:`EMWorkflow` is a thin wrapper: it
assembles an object-mode :class:`~repro.plan.spec.PipelineSpec` from its
rules/blockers/matcher and delegates to
``compile_plan(spec).execute(session)`` — the same compiler the CLI's
``--plan`` path and the Figure-10 recipe run through — so every stage
still flows through ``session.run_stage`` with unchanged fingerprints,
trace names and counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..blocking.base import Blocker
from ..blocking.candidate_set import CandidateSet, Pair
from ..errors import WorkflowError
from ..features.generate import FeatureSet
from ..matchers.ml_matcher import MLMatcher
from ..plan.compile import compile_plan
from ..plan.spec import NodeSpec, PipelineSpec
from ..rules.negative import ComparableMismatchRule
from ..rules.positive import ExactNumberRule
from ..runtime.context import EngineSession, resolve_session
from ..table import Table


@dataclass(frozen=True)
class WorkflowResult:
    """Everything a workflow run produced, stage by stage.

    ``provenance`` is populated only when the run asked for it
    (``provenance=True``); :meth:`explain_pair` then reports any pair's
    full decision lineage.
    """

    sure_matches: CandidateSet
    blocked: CandidateSet
    to_predict: CandidateSet
    predicted_matches: tuple[Pair, ...]
    flipped: tuple[tuple[Pair, str], ...]
    matches: tuple[Pair, ...]
    provenance: "object | None" = None

    @property
    def num_matches(self) -> int:
        return len(self.matches)

    def explain_pair(self, a, b):
        """Lineage of pair ``(a, b)`` — blockers, rules, score, verdict.

        Requires the workflow to have run with ``provenance=True``."""
        from ..obs.provenance import require_provenance

        return require_provenance(self.provenance).explain_pair(a, b)

    def summary(self) -> str:
        return (
            f"sure={len(self.sure_matches)}, blocked={len(self.blocked)}, "
            f"to_predict={len(self.to_predict)}, "
            f"predicted={len(self.predicted_matches)}, "
            f"flipped={len(self.flipped)}, total_matches={len(self.matches)}"
        )


@dataclass
class EMWorkflow:
    """A rules + blocking + learning (+ negative rules) workflow."""

    name: str
    positive_rules: list[ExactNumberRule] = field(default_factory=list)
    blockers: list[Blocker] = field(default_factory=list)
    negative_rules: list[ComparableMismatchRule] = field(default_factory=list)

    def _resolve_collector(self, provenance, session: EngineSession):
        """Map the run's provenance argument onto a collector (or None).

        ``None`` inherits the session policy; ``False`` is off; ``True``
        builds a fresh per-run collector; anything else is an explicit
        :class:`~repro.obs.provenance.MatchProvenance`-style collector.
        """
        policy = provenance if provenance is not None else session.provenance
        if policy is None or policy is False:
            return None
        if policy is True:
            from ..obs.provenance import MatchProvenance

            return MatchProvenance(self.name)
        return policy

    # -- plan assembly -------------------------------------------------

    def _candidate_nodes(self) -> list[NodeSpec]:
        """Stages 1-3 as plan nodes: C1, the blockers, C2 = union, C.

        Live rule/blocker objects travel as plan *inputs* (artifact
        edges), not params, so the spec stays purely structural.
        """
        table_edges = {"ltable": "ltable", "rtable": "rtable", "keys": "keys"}
        nodes = [
            NodeSpec(
                id="c1",
                kind="rules",
                params={"mode": "positive", "name": "C1",
                        "trace": "positive_rules"},
                inputs={**table_edges, "rules": "positive_rules"},
                outputs={"matches": "c1"},
            )
        ]
        for i in range(len(self.blockers)):
            nodes.append(
                NodeSpec(
                    id=f"block_{i}",
                    kind="block",
                    inputs={**table_edges, "blocker": f"blocker_{i}"},
                    outputs={"candidates": f"b{i}"},
                )
            )
        if self.blockers:
            union_inputs = {"c1": "c1"}
            union_inputs.update(
                {f"b{i}": f"b{i}" for i in range(len(self.blockers))}
            )
            nodes.append(
                NodeSpec(
                    id="c2",
                    kind="combine",
                    params={"op": "union", "name": "C2"},
                    inputs=union_inputs,
                    outputs={"candidates": "c2"},
                )
            )
        nodes.append(
            NodeSpec(
                id="c",
                kind="combine",
                # count_left records the legacy "candidates" counter: |C2|
                # (|C1| when there is nothing to union, exactly as before).
                params={"op": "difference", "name": "C",
                        "count_left": "candidates"},
                inputs={"left": "c2" if self.blockers else "c1", "right": "c1"},
                outputs={"candidates": "c"},
            )
        )
        return nodes

    def _plan_inputs(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str
    ) -> dict:
        env = {
            "ltable": ltable,
            "rtable": rtable,
            "keys": (l_key, r_key),
            "positive_rules": list(self.positive_rules),
        }
        for i, blocker in enumerate(self.blockers):
            env[f"blocker_{i}"] = blocker
        return env

    def build_candidates(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        provenance=None,
        session: EngineSession | None = None,
    ) -> tuple[CandidateSet, CandidateSet, CandidateSet]:
        """Stages 1-3: returns (C1 sure matches, C2 blocked, C = C2 - C1).

        The sure-match pairs are force-included in C2 (the case study's
        blocking step 1 exists precisely to keep every M1 pair in the
        candidate set) and then carved out of C for prediction.

        Each stage runs through ``session.run_stage``: with a store on
        the resolved session, the rule pass and every blocker are
        memoized by the content fingerprints of their inputs, and with a
        provenance collector (explicit, or carried by the session), each
        positive rule's pair set and each blocker's output are recorded
        so ``explain_pair`` can name the exact emitters of any candidate.
        """
        if not self.blockers and not self.positive_rules:
            raise WorkflowError(f"workflow {self.name!r} has no rules and no blockers")
        resolved = resolve_session(session)
        collector = self._resolve_collector(provenance, resolved)
        env = self._plan_inputs(ltable, rtable, l_key, r_key)
        spec = PipelineSpec(
            name=self.name,
            nodes=tuple(self._candidate_nodes()),
            inputs=tuple(env),
        )
        result = compile_plan(spec).execute(
            resolved,
            inputs=env,
            provenance=collector if collector is not None else False,
        )
        c1 = result.artifacts["c1"]
        c2 = result.artifacts["c2"] if self.blockers else c1
        return c1, c2, result.artifacts["c"]

    def run(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        matcher: MLMatcher,
        feature_set: FeatureSet,
        *,
        provenance: "bool | object | None" = None,
        session: EngineSession | None = None,
    ) -> WorkflowResult:
        """Run all stages with a *trained* matcher.

        With a store on the resolved session, blocking, feature
        extraction and prediction are each memoized by input
        fingerprints, so a patched re-run (say, added negative rules)
        reuses every unchanged stage.

        *provenance* accepts a
        :class:`~repro.obs.provenance.MatchProvenance` collector (also
        the form a session's ``provenance=`` carries), ``True`` to build
        a fresh per-run collector, ``False`` to force it off, or
        ``None`` to inherit the session policy. A collector records
        per-pair lineage — emitting blockers, firing positive rule,
        matcher score vs threshold, flipping negative rule — at the cost
        of one extra ``predict_proba`` pass; the match results are
        unchanged.
        """
        if not self.blockers and not self.positive_rules:
            raise WorkflowError(f"workflow {self.name!r} has no rules and no blockers")
        if not matcher.is_fitted:
            raise WorkflowError(
                f"workflow {self.name!r} needs a trained matcher; "
                f"{matcher.name!r} is unfitted"
            )
        resolved = resolve_session(session)
        collector = self._resolve_collector(provenance, resolved)
        nodes = self._candidate_nodes() + [
            NodeSpec(
                id="extract",
                kind="extract",
                params={"skip_empty": True},
                inputs={"candidates": "c", "feature_set": "feature_set"},
                outputs={"matrix": "matrix"},
            ),
            NodeSpec(
                id="predict",
                kind="predict",
                inputs={"matcher": "matcher", "matrix": "matrix"},
                outputs={"matches": "predicted"},
            ),
            NodeSpec(
                id="negative",
                kind="rules",
                params={"mode": "negative"},
                inputs={"matches": "predicted", "candidates": "c",
                        "rules": "negative_rules"},
                outputs={"kept": "kept", "flipped": "flipped"},
            ),
            NodeSpec(
                id="final",
                kind="combine",
                params={"op": "finalize_matches"},
                inputs={"sure": "c1", "kept": "kept",
                        "predicted": "predicted", "flipped": "flipped"},
                outputs={"matches": "final"},
            ),
        ]
        env = self._plan_inputs(ltable, rtable, l_key, r_key)
        env.update(
            {
                "feature_set": feature_set,
                "matcher": matcher,
                "negative_rules": list(self.negative_rules),
            }
        )
        spec = PipelineSpec(
            name=self.name, nodes=tuple(nodes), inputs=tuple(env),
            outputs={"matches": "final"},
        )
        result = compile_plan(spec).execute(
            resolved,
            inputs=env,
            provenance=collector if collector is not None else False,
        )
        artifacts = result.artifacts
        c1 = artifacts["c1"]
        return WorkflowResult(
            sure_matches=c1,
            blocked=artifacts["c2"] if self.blockers else c1,
            to_predict=artifacts["c"],
            predicted_matches=tuple(artifacts["predicted"]),
            flipped=tuple(artifacts["flipped"]),
            matches=tuple(artifacts["final"]),
            provenance=collector,
        )
