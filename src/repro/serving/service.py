"""The online match service: delta patches + a per-record serving loop.

:class:`MatchService` holds one fixed right table, one trained matcher
and one :class:`~repro.blocking.incremental.IncrementalBlocking` handle
per blocker (the blocker's right index, built once), all resolved
against a long-lived :class:`~repro.runtime.context.EngineSession`. The
handles store nothing about left records; the service alone keeps the
live records and what each one matched. Two entry points:

``apply_patch(upserts, deletes)``
    Executes the batch workflow *restricted to the patch*: positive
    rules over the batch table -> C1, one handle preview per blocker ->
    delta C2 (same union/difference semantics as
    :meth:`~repro.core.workflow.EMWorkflow.build_candidates`), feature
    extraction and prediction over C = C2 - C1, negative rules, final
    delta matches ``C1 + (kept - C1)``. Because every stage is the
    workflow's own code path over the same inputs — a preview's pairs
    are bit-identical to ``block_tables`` on the batch, extraction is
    per-pair pure, prediction is per-row pure — a patch's
    :class:`PatchResult` equals the :class:`~repro.core.workflow.WorkflowResult`
    of a from-scratch run over the batch slice, field for field
    (``tests/test_incremental.py`` proves it differentially, including
    the full Section 10 replay).

    Fault tolerance: nothing is written until every stage succeeded;
    then the service's per-record state is committed in one place. A
    matcher that raises mid-patch leaves the service as it was, the
    session usable and the trace well-formed (``tests/test_serving.py``).

``match(record)``
    Probes the right indexes and positive rules with one record —
    without mutating anything — scores the surviving candidates through
    the trained matcher, flags negative-rule flips, and returns ranked
    :class:`RankedCandidate` rows with per-candidate provenance (which
    blockers emitted it, which rule fired, score vs. flip).

Per-call latency histograms (``serve:match_seconds``,
``serve:patch_seconds`` over :data:`~repro.obs.metrics.LATENCY_BUCKETS`)
and counters land in the session's
:class:`~repro.obs.metrics.MetricsRegistry` (or a service-owned one when
the session carries none).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from ..blocking.candidate_set import CandidateSet, Pair, row_index
from ..blocking.combiner import union_candidates
from ..blocking.factory import create_blocker
from ..core.patch import merge_match_sets
from ..errors import ServingError
from ..features.vectors import extract_feature_vectors
from ..obs.metrics import LATENCY_BUCKETS, MetricsRegistry
from ..runtime.context import EngineSession, resolve_session
from ..table import Table


@dataclass(frozen=True)
class RankedCandidate:
    """One scored candidate from :meth:`MatchService.match`, with lineage."""

    pair: Pair
    #: Matcher probability; ``None`` for sure matches (rules don't score).
    score: float | None
    #: Positive rule that fired, or ``None``.
    sure_rule: str | None
    #: Blockers that emitted the pair, in blocker order.
    blockers: tuple[str, ...]
    #: Negative rule that flipped the pair, or ``None``.
    flipped_by: str | None
    #: Final verdict under workflow semantics: sure, or predicted and
    #: not flipped.
    is_match: bool


@dataclass(frozen=True)
class MatchResponse:
    """Ranked candidates for one probed record."""

    record_id: Any
    candidates: tuple[RankedCandidate, ...]
    seconds: float

    @property
    def matches(self) -> tuple[Pair, ...]:
        return tuple(c.pair for c in self.candidates if c.is_match)


@dataclass(frozen=True)
class PatchResult:
    """The delta a patch produced — the workflow result of its batch.

    ``sure_matches`` through ``matches`` mirror
    :class:`~repro.core.workflow.WorkflowResult` field-for-field for the
    batch slice; ``retired`` lists the match pairs that the touched
    (replaced or deleted) records contributed before the patch and no
    longer do: a pair the patch's ``matches`` still hold is not retired.
    """

    upserted: tuple[Any, ...]
    deleted: tuple[Any, ...]
    sure_matches: tuple[Pair, ...]
    candidates: tuple[Pair, ...]
    to_predict: tuple[Pair, ...]
    predicted_matches: tuple[Pair, ...]
    flipped: tuple[tuple[Pair, str], ...]
    matches: tuple[Pair, ...]
    retired: tuple[Pair, ...]
    provenance: Any = None
    seconds: float = 0.0

    def explain_pair(self, a: Any, b: Any):
        """Lineage of pair ``(a, b)`` (needs ``provenance=True``)."""
        from ..obs.provenance import require_provenance

        return require_provenance(self.provenance).explain_pair(a, b)


class MatchService:
    """A serving loop over one (evolving left, fixed right) table pair.

    Parameters
    ----------
    ltable:
        Initial left records; loaded through the same delta path every
        later patch uses (``apply_patch(upserts=ltable)``), so the
        service starts bit-equal to a batch workflow run over *ltable*.
    rtable:
        The fixed right table the blockers' right indexes are built over.
    matcher:
        A *trained* :class:`~repro.matchers.ml_matcher.MLMatcher`.
    feature_set, blockers, positive_rules, negative_rules:
        The workflow recipe; every blocker must support incremental
        maintenance (:class:`~repro.errors.IncrementalBlockingError`
        otherwise — no silent full re-blocks). Each blocker may be an
        instance or a declarative config (a mapping /
        :class:`~repro.blocking.factory.BlockerConfig`) built through
        the registry, so a service bootstrap can share the exact block
        configs the CLI's ``--plan`` spec carries.
    session:
        The long-lived :class:`~repro.runtime.context.EngineSession` the
        service binds to (ambient session when ``None``). The session
        outlives every call; the service never tears it down.
    """

    def __init__(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        matcher: Any,
        feature_set: Any,
        blockers: Sequence[Any],
        positive_rules: Sequence[Any] = (),
        negative_rules: Sequence[Any] = (),
        name: str = "serve",
        session: EngineSession | None = None,
    ) -> None:
        if not matcher.is_fitted:
            raise ServingError(
                f"match service {name!r} needs a trained matcher; "
                f"{matcher.name!r} is unfitted"
            )
        if not blockers and not positive_rules:
            raise ServingError(
                f"match service {name!r} has no blockers and no positive rules"
            )
        self.name = name
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self.matcher = matcher
        self.feature_set = feature_set
        self.positive_rules = list(positive_rules)
        self.negative_rules = list(negative_rules)
        blockers = [create_blocker(b) for b in blockers]
        self._session = resolve_session(session)
        self.metrics: MetricsRegistry = self._session.metrics or MetricsRegistry()
        self.handles = [
            blocker.incremental(rtable, l_key, r_key, session=self._session)
            for blocker in blockers
        ]
        # Built once: the right table is fixed, so each request pays only
        # for its own records (docs/serving.md, "Per-request cost").
        self._rule_indexes = [
            rule.right_index(rtable, r_key) for rule in self.positive_rules
        ]
        self._r_index = row_index(rtable[r_key])
        # Live per-record state, all keyed by left id in insertion order.
        self._rows: dict[Any, dict[str, Any]] = {}
        self._sure: dict[Any, tuple[Pair, ...]] = {}
        self._kept: dict[Any, tuple[Pair, ...]] = {}
        self._flipped: dict[Any, tuple[tuple[Pair, str], ...]] = {}
        if len(ltable):
            self.apply_patch(upserts=ltable)

    @classmethod
    def from_plan(
        cls,
        plan: Any,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        matcher: Any,
        feature_set: Any,
        name: str = "serve",
        session: EngineSession | None = None,
    ) -> "MatchService":
        """Bootstrap a service from a pipeline spec's slice recipe.

        *plan* is a :class:`repro.plan.PipelineSpec` (e.g. the committed
        ``examples/figure10.json``); its blockers and positive/negative
        rules are extracted via
        :func:`repro.plan.figure10.recipe_from_spec`, so the serving loop
        runs the *same* recipe as the batch case study — no private copy.
        """
        from ..plan.figure10 import recipe_from_spec

        recipe = recipe_from_spec(plan)
        return cls(
            ltable, rtable, l_key, r_key,
            matcher=matcher,
            feature_set=feature_set,
            blockers=list(recipe.blockers),
            positive_rules=list(recipe.positive_rules),
            negative_rules=list(recipe.negative_rules),
            name=name,
            session=session,
        )

    # -- helpers -------------------------------------------------------

    @property
    def session(self) -> EngineSession:
        return self._session

    def live_ids(self) -> tuple[Any, ...]:
        """Ids of the live left records, in insertion order."""
        return tuple(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def _as_rows(self, upserts: "Table | Sequence[Mapping[str, Any]]") -> list[dict]:
        if isinstance(upserts, Table):
            return upserts.to_rows()
        rows = [dict(r) for r in upserts]
        for row in rows:
            if self.l_key not in row:
                raise ServingError(
                    f"upsert record is missing the key column {self.l_key!r}"
                )
        return rows

    def _resolve_collector(self, provenance: Any):
        policy = (
            provenance if provenance is not None else self._session.provenance
        )
        if policy is None or policy is False:
            return None
        if policy is True:
            from ..obs.provenance import MatchProvenance

            return MatchProvenance(self.name)
        return policy

    def _batch_workflow(
        self, batch: Table, collector: Any
    ) -> tuple[CandidateSet, tuple, tuple, tuple, tuple, tuple]:
        """Stages 1-6 of the workflow over the batch table.

        Blocking comes from handle previews; every other stage is the
        workflow's own operator over the same inputs. Nothing here
        mutates the service.
        """
        from ..rules.negative import apply_negative_rules
        from ..store.stages import IndexedSureMatchStage, PredictStage

        session = self._session
        c1 = session.run_stage(
            IndexedSureMatchStage(
                self._rule_indexes, batch, self.rtable, self.l_key, self.r_key,
                self._r_index, name="C1", trace_name="positive_rules",
            ),
            provenance=collector,
        )
        blocked = []
        for handle in self.handles:
            result = c1._derive(handle.preview(batch), handle.blocker.short_name)
            blocked.append(result)
            if collector is not None:
                collector.record_blocker(handle.blocker.short_name, result.pairs)
        c2 = union_candidates([c1] + blocked, name="C2") if blocked else c1
        c = c2.difference(c1, name="C")
        if len(c):
            matrix = extract_feature_vectors(c, self.feature_set, session=session)
            predicted = session.run_stage(
                PredictStage(self.matcher, matrix, trace_name="predict")
            )
            if collector is not None:
                collector.record_scores(self.matcher.predict_proba(matrix))
        else:
            predicted = []
        if self.negative_rules:
            kept, flipped = apply_negative_rules(predicted, c, self.negative_rules)
        else:
            kept, flipped = list(predicted), []
        final = list(c1.pairs) + [p for p in kept if p not in c1]
        if collector is not None:
            collector.record_outcome(predicted, flipped, final)
        return (
            c1,
            tuple(c2.pairs),
            tuple(c.pairs),
            tuple(predicted),
            tuple(flipped),
            tuple(final),
        )

    # -- mutation ------------------------------------------------------

    def apply_patch(
        self,
        upserts: "Table | Sequence[Mapping[str, Any]]" = (),
        deletes: Iterable[Any] = (),
        *,
        provenance: Any = None,
    ) -> PatchResult:
        """Apply a patch (insert-or-replace rows, delete ids) as a delta.

        Returns the batch's workflow result plus the retired pairs. The
        per-record state is committed only after every stage succeeded;
        an exception leaves the service exactly as before the call.
        """
        t0 = perf_counter()
        rows = self._as_rows(upserts)
        delete_ids = list(deletes)
        collector = self._resolve_collector(provenance)
        batch = Table.from_rows(rows, name="patch") if rows else None
        if batch is not None:
            c1, c2_pairs, c_pairs, predicted, flipped, final = (
                self._batch_workflow(batch, collector)
            )
            order = tuple(batch[self.l_key])
            sure_by: dict[Any, list[Pair]] = {lid: [] for lid in order}
            kept_by: dict[Any, list[Pair]] = {lid: [] for lid in order}
            flips_by: dict[Any, list[tuple[Pair, str]]] = {lid: [] for lid in order}
            for pair in c1.pairs:
                sure_by[pair[0]].append(pair)
            in_c1 = set(c1.pairs)
            flipped_pairs = {p for p, _ in flipped}
            for pair in predicted:
                if pair not in in_c1 and pair not in flipped_pairs:
                    kept_by[pair[0]].append(pair)
            for pair, rule in flipped:
                flips_by[pair[0]].append((pair, rule))
        else:
            c1 = None
            c2_pairs, c_pairs, predicted, flipped, final = (), (), (), (), ()
            order = ()
            sure_by, kept_by, flips_by = {}, {}, {}

        # ---- commit point: nothing above mutated the service ----------
        touched = list(delete_ids) + list(order)
        # an old pair the patch matches again stays live: not retired
        rematched = set(final)
        retired = [
            pair
            for pair in dict.fromkeys(
                pair
                for lid in touched
                for pair in self._sure.get(lid, ()) + self._kept.get(lid, ())
            )
            if pair not in rematched
        ]
        deleted = tuple(lid for lid in delete_ids if lid in self._rows)
        for lid in delete_ids:
            for state in (self._rows, self._sure, self._kept, self._flipped):
                state.pop(lid, None)
        for row in rows:
            lid = row[self.l_key]
            # replace = delete + insert: a re-upserted record moves to the
            # end of insertion order
            for state in (self._rows, self._sure, self._kept, self._flipped):
                state.pop(lid, None)
            self._rows[lid] = row
            self._sure[lid] = tuple(sure_by.get(lid, ()))
            self._kept[lid] = tuple(kept_by.get(lid, ()))
            self._flipped[lid] = tuple(flips_by.get(lid, ()))
        seconds = perf_counter() - t0
        metrics = self.metrics
        metrics.histogram("serve:patch_seconds", LATENCY_BUCKETS).observe(seconds)
        metrics.counter("serve:patch_calls").inc()
        metrics.counter("serve:patch_upserts").inc(len(rows))
        metrics.counter("serve:patch_deletes").inc(len(deleted))
        metrics.counter("serve:delta_pairs").inc(len(c2_pairs))
        return PatchResult(
            upserted=order,
            deleted=deleted,
            sure_matches=tuple(c1.pairs) if c1 is not None else (),
            candidates=c2_pairs,
            to_predict=c_pairs,
            predicted_matches=predicted,
            flipped=flipped,
            matches=final,
            retired=tuple(retired),
            provenance=collector,
            seconds=seconds,
        )

    # -- read path -----------------------------------------------------

    def match(self, record: Mapping[str, Any], *, top_k: int | None = None) -> MatchResponse:
        """Rank the right-table candidates for one record (no mutation).

        Candidates come from the positive rules and every blocker's
        right-index probe (handle previews);
        non-sure candidates are scored by the matcher and checked against
        the negative rules. Ranking: sure matches first (rules outrank
        scores, as in the workflow), then by descending score with
        emission order breaking ties.
        """
        t0 = perf_counter()
        row = dict(record)
        if self.l_key not in row:
            raise ServingError(
                f"match record is missing the key column {self.l_key!r}"
            )
        lid = row[self.l_key]
        probe = Table.from_rows([row], name="probe")
        sure_rule_of: dict[Pair, str] = {}
        emitted: dict[Pair, list[str]] = {}
        for index in self._rule_indexes:
            for pair in index.probe(probe, self.l_key):
                sure_rule_of.setdefault(pair, index.rule.name)
                emitted.setdefault(pair, [])
        for handle in self.handles:
            for pair in handle.preview(probe):
                emitted.setdefault(pair, []).append(handle.blocker.short_name)
        ordered_pairs = list(emitted)
        to_score = [p for p in ordered_pairs if p not in sure_rule_of]
        scores: dict[Pair, float] = {}
        predicted: set[Pair] = set()
        if to_score:
            candidates = CandidateSet._over(
                probe, self.rtable, self.l_key, self.r_key,
                row_index(probe[self.l_key]), self._r_index, to_score, "probe",
            )
            matrix = extract_feature_vectors(
                candidates, self.feature_set, session=self._session
            )
            probabilities = self.matcher.predict_proba(matrix)
            scores = {tuple(p): float(s) for p, s in probabilities.items()}
            # every model predicts a match at probability >= 0.5, so the
            # scores give the matches without a second pass over the forest
            predicted = {p for p, s in probabilities.items() if s >= 0.5}
        flipped_by: dict[Pair, str] = {}
        if self.negative_rules and to_score:
            # candidates holds to_score's pairs in order (they are distinct)
            for pair, r in zip(to_score, candidates.right_positions.tolist()):
                if pair not in predicted:
                    continue
                r_row = self.rtable.row(r)
                for rule in self.negative_rules:
                    if rule.fires(row, r_row):
                        flipped_by[pair] = rule.name
                        break
        ranked = [
            RankedCandidate(
                pair=pair,
                score=scores.get(pair),
                sure_rule=sure_rule_of.get(pair),
                blockers=tuple(emitted[pair]),
                flipped_by=flipped_by.get(pair),
                is_match=(
                    pair in sure_rule_of
                    or (pair in predicted and pair not in flipped_by)
                ),
            )
            for pair in ordered_pairs
        ]
        index_of = {pair: i for i, pair in enumerate(ordered_pairs)}
        ranked.sort(
            key=lambda c: (
                c.sure_rule is None,
                -(c.score if c.score is not None else 0.0),
                index_of[c.pair],
            )
        )
        if top_k is not None:
            ranked = ranked[:top_k]
        seconds = perf_counter() - t0
        metrics = self.metrics
        metrics.histogram("serve:match_seconds", LATENCY_BUCKETS).observe(seconds)
        metrics.counter("serve:match_calls").inc()
        metrics.counter("serve:match_candidates").inc(len(ordered_pairs))
        return MatchResponse(record_id=lid, candidates=tuple(ranked), seconds=seconds)

    # -- accumulated view ----------------------------------------------

    def metrics_text(self) -> str:
        """The service's metrics in Prometheus text exposition format.

        Renders the live registry (``serve:*`` histograms/counters, plus
        ``proc:*`` gauges when :meth:`start_resource_monitor` is on) —
        hand this bound method to
        :class:`~repro.obs.export.MetricsServer` as its source.
        """
        from ..obs.export import render_prometheus

        return render_prometheus(self.metrics)

    def start_resource_monitor(self, interval: float = 1.0):
        """Start (or return) the background ``proc:*`` gauge sampler.

        The monitor feeds the service's own registry, so ``/metrics``
        scrapes see process RSS/CPU/GC next to the ``serve:*`` series.
        Idempotent; the thread is a daemon and can also be stopped
        explicitly via :meth:`stop_resource_monitor`.
        """
        from ..obs.resources import ResourceMonitor

        monitor = getattr(self, "_resource_monitor", None)
        if monitor is None:
            monitor = ResourceMonitor(self.metrics, interval=interval)
            self._resource_monitor = monitor
        return monitor.start()

    def stop_resource_monitor(self) -> None:
        """Stop the background resource sampler (no-op when not running)."""
        monitor = getattr(self, "_resource_monitor", None)
        if monitor is not None:
            monitor.stop()

    def current_matches(self) -> list[Pair]:
        """All live matches, deduplicated in first-seen order.

        Sure-match pairs across all live records first, then kept
        predictions — the same precedence
        :func:`~repro.core.patch.merge_match_sets` gives a sequence of
        workflow slices. Set-equal to a from-scratch workflow run over
        the live left table (asserted differentially in the test suite);
        the insertion *order* reflects upsert history, as a log-structured
        view should.
        """
        sure_all = [p for pairs in self._sure.values() for p in pairs]
        kept_all = [p for pairs in self._kept.values() for p in pairs]
        return merge_match_sets([sure_all, kept_all])

    def current_flips(self) -> list[tuple[Pair, str]]:
        """All live negative-rule flips, in insertion order."""
        return [f for flips in self._flipped.values() for f in flips]
