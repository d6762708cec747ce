"""One execution context for the whole pipeline: :class:`EngineSession`.

The runtime capabilities grew one at a time — the token cache, the
artifact store, tracing/metrics/provenance — and each
arrived as another optional keyword argument threaded through blockers,
``extract_feature_vectors``, :class:`~repro.core.workflow.EMWorkflow` and
the case-study entry points. Real EM is iterative (the paper's Section-10
lesson): workflows are patched and re-run many times, and every re-run
should compose *all* of those capabilities without per-call plumbing.

An :class:`EngineSession` is the one object that owns them:

* the :class:`~repro.runtime.cache.TokenCache`;
* the artifact store, instrumentation handle, metrics registry,
  provenance switch and seed;
* the teardown of what it created (the trace writer, the store's
  deferred state) — on exit, including on exceptions.

Every stage runs in the calling process; there is one serial execution
path.

Sessions install themselves as the ambient default via a
:mod:`contextvars` variable, so callers write::

    with EngineSession(store=store):
        run_combined_workflow(...)

and every stage resolves the same store/trace context with zero
keyword threading. Each public entry point takes one keyword-only
``session=`` and passes it to :func:`resolve_session`: the explicit
session, else the ambient one, else a default serial session.

The second half of this module is the **stage-operator protocol**
(:class:`StageOperator` + :meth:`EngineSession.run_stage`): the one
implementation of the store-fingerprint/lookup, tracing, counter and
provenance glue that blocking, down-sampling, feature extraction and
matcher prediction previously each re-implemented.
"""

from __future__ import annotations

import weakref
from contextlib import nullcontext
from contextvars import ContextVar
from typing import Any

from ..errors import UncacheableError, WorkflowError
from .cache import TokenCache, get_default_cache
from .instrument import Instrumentation, count, stage

_CURRENT: ContextVar["EngineSession | None"] = ContextVar(
    "repro_engine_session", default=None
)

DEFAULT_SEED = 45


def current_session() -> "EngineSession | None":
    """The innermost active ``with EngineSession(...)`` block, if any.

    Context variables are per-thread (and per-async-task): a session
    entered in one thread is invisible to others, so concurrent runs
    cannot leak stores or traces into each other.
    """
    return _CURRENT.get()


class StageOperator:
    """One cacheable/traceable unit of pipeline work.

    Implementations describe a stage declaratively — its trace name, its
    artifact kind/codec/fingerprints for the store, its provenance
    recording — and :meth:`EngineSession.run_stage` supplies the single
    shared execution path. Default implementations make every aspect
    optional: an operator with ``cache_kind = None`` never touches the
    store, one with ``trace_name = None`` adds no stage node, and the
    ``counters``/``record`` hooks default to no-ops.
    """

    #: Stage-tree node name; ``None`` adds no node (the operator's
    #: ``compute`` may still open its own internal stages).
    trace_name: str | None = None
    #: Artifact kind for the store (``"candidates"``, ``"feature_matrix"``,
    #: ``"pairs"``); ``None`` marks the stage uncacheable by design.
    cache_kind: str | None = None
    #: Codec used to encode/decode the stage's artifact.
    codec: Any = None

    def label(self) -> str:
        """Human-readable stage label for the store's explain ledger."""
        raise NotImplementedError

    def fingerprint(self) -> dict[str, str]:
        """Input-name -> content-fingerprint parts for the cache key.

        Raise :class:`~repro.errors.UncacheableError` when an input has no
        stable fingerprint; the session records a store *bypass* and
        computes unconditionally.
        """
        raise UncacheableError(f"{type(self).__name__} declares no fingerprint")

    def store_context(self) -> dict[str, Any]:
        """Extra kwargs for ``codec.decode`` (live objects a payload
        cannot embed, e.g. the base tables of a candidate set)."""
        return {}

    def compute(self, session: "EngineSession") -> Any:
        """Do the actual work, using the session for dispatch/telemetry."""
        raise NotImplementedError

    def counters(self, result: Any) -> dict[str, float]:
        """Counters to record on the stage node once *result* exists."""
        return {}

    def record(self, provenance: Any, result: Any) -> None:
        """Record *result* into a provenance collector (no-op default)."""


class EngineSession:
    """The execution context every pipeline layer resolves uniformly.

    Parameters
    ----------
    workers:
        Accepted only as ``None`` or ``1``: every stage runs in the
        calling process. Any other value raises
        :class:`~repro.errors.WorkflowError` (parallel execution was
        removed).
    store:
        Optional :class:`~repro.store.store.ArtifactStore`; stages run
        through :meth:`run_stage` are memoized by content fingerprints.
    instrumentation:
        Optional :class:`~repro.runtime.instrument.Instrumentation` (or
        :class:`~repro.obs.trace.TracingInstrumentation`). Mutually
        exclusive with *trace_path*.
    trace_path:
        Convenience: build a session-owned
        :class:`~repro.obs.trace.TracingInstrumentation` streaming to a
        JSONL file at this path; the writer is flushed per event and
        closed by :meth:`close` — also when a stage raises.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`, fed live
        when the session builds its own tracing instrumentation.
    provenance:
        Default provenance policy for workflow runs: ``False`` (off),
        ``True`` (each workflow run builds its own collector), or a
        :class:`~repro.obs.provenance.MatchProvenance` collector shared
        by every run in the session.
    seed:
        The session's random seed (CLI and case-study default).
    resources:
        When ``True``, attach a
        :class:`~repro.obs.resources.ResourceSampler` to the session's
        instrumentation (building a plain
        :class:`~repro.runtime.instrument.Instrumentation` if the session
        has none), so every stage records CPU/RSS/GC deltas — and traced
        sessions stream them as ``resource`` events. Off by default:
        resource probing never engages unless asked for.
    token_cache:
        Tokenization memo-cache; defaults to the process-wide cache so
        independent sessions still share tokenization work.
    """

    def __init__(
        self,
        *,
        workers: int | None = None,
        store: Any = None,
        instrumentation: Instrumentation | None = None,
        trace_path: Any = None,
        metrics: Any = None,
        provenance: Any = False,
        seed: int = DEFAULT_SEED,
        resources: bool = False,
        token_cache: TokenCache | None = None,
    ) -> None:
        if workers not in (None, 1):
            raise WorkflowError(
                f"EngineSession(workers={workers!r}): parallel execution was "
                "removed; every stage runs serially in the calling process "
                "(pass workers=1 or omit it)"
            )
        self.store = store
        self.metrics = metrics
        self.provenance = provenance
        self.seed = seed
        self.token_cache = token_cache if token_cache is not None else get_default_cache()
        #: table -> {key column: (its values, key -> row position)}; tables
        #: are held weakly, as the token cache holds them
        self._key_indexes: "weakref.WeakKeyDictionary[Any, dict]" = (
            weakref.WeakKeyDictionary()
        )
        self._owned_writer: Any = None
        self._tokens: list[Any] = []
        self._closed = False
        if trace_path is not None:
            if instrumentation is not None:
                raise ValueError(
                    "pass either instrumentation= or trace_path=, not both"
                )
            from ..obs.trace import TraceWriter, TracingInstrumentation

            self._owned_writer = TraceWriter(trace_path)
            instrumentation = TracingInstrumentation(
                writer=self._owned_writer, metrics=metrics
            )
        if resources:
            from ..obs.resources import ResourceSampler

            if instrumentation is None:
                instrumentation = Instrumentation()
            if instrumentation.resources is None:
                instrumentation.attach_resources(ResourceSampler())
        self.instrumentation = instrumentation

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release everything the session owns (idempotent).

        Closes the session-created trace writer and flushes the store
        (writing the state its hits deferred and ending its run);
        externally built instrumentation is the caller's to manage.
        """
        was_closed, self._closed = self._closed, True
        if self.store is not None and not was_closed:
            self.store.flush()
        writer, self._owned_writer = self._owned_writer, None
        if writer is not None:
            writer.close()

    def __enter__(self) -> "EngineSession":
        self._tokens.append(_CURRENT.set(self))
        return self

    def __exit__(self, *exc_info) -> None:
        # Teardown runs on exceptions too: a raising stage must not leave
        # an unflushed trace file or store state behind.
        if self._tokens:
            _CURRENT.reset(self._tokens.pop())
        if not self._tokens:
            self.close()

    def key_index(self, table: Any, column: str) -> dict[Any, int]:
        """``{key: row position}`` of ``table[column]``, built once per
        session: every candidate set over the table maps its ids through
        it. A column replaced in place since is indexed afresh."""
        keys = table[column]
        per_table = self._key_indexes.setdefault(table, {})
        held = per_table.get(column)
        if held is None or held[0] is not keys:
            from ..blocking.candidate_set import row_index

            held = per_table[column] = (keys, row_index(keys))
        return held[1]

    # ------------------------------------------------------------------
    # the one stage-execution path
    # ------------------------------------------------------------------
    def run_stage(self, op: StageOperator, provenance: Any = None) -> Any:
        """Execute *op* with the session's store/trace/provenance glue.

        One implementation of what blocking, feature extraction,
        down-sampling and prediction previously each re-implemented:

        * open the operator's stage node (when it declares one);
        * fingerprint the inputs and memoize through the artifact store
          (bypassing — never failing — on unfingerprintable inputs);
        * record the operator's counters on the stage node;
        * record provenance when a collector is passed.
        """
        cm = (
            self.instrumentation.stage(op.trace_name)
            if self.instrumentation is not None and op.trace_name is not None
            else nullcontext()
        )
        with cm:
            result = self._stage_result(op)
            for key, value in op.counters(result).items():
                count(self.instrumentation, key, value)
            if provenance is not None:
                op.record(provenance, result)
        return result

    def _stage_result(self, op: StageOperator) -> Any:
        store = self.store
        if store is None or op.cache_kind is None or op.codec is None:
            return op.compute(self)
        try:
            parts = op.fingerprint()
        except UncacheableError as exc:
            store.bypass(op.label(), str(exc), self.instrumentation)
            return op.compute(self)
        return store.memoize(
            op.cache_kind,
            op.label(),
            parts,
            lambda: op.compute(self),
            op.codec,
            instrumentation=self.instrumentation,
            context=op.store_context(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = []
        if self.store is not None:
            bits.append("store")
        if self.instrumentation is not None:
            bits.append("traced")
        return f"EngineSession({', '.join(bits)})"


def resolve_session(session: EngineSession | None = None) -> EngineSession:
    """The session an entry point executes under: the explicit *session*,
    else the ambient :func:`current_session`, else a default serial
    ``EngineSession()`` (no store, no instrumentation)."""
    if session is not None:
        return session
    ambient = current_session()
    return ambient if ambient is not None else EngineSession()
