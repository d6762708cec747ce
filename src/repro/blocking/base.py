"""Blocker interface.

A blocker takes two tables (plus their key columns) and produces a
:class:`~repro.blocking.candidate_set.CandidateSet` of pairs that survive
its heuristic. Blockers are deliberately *recall-oriented*: their job is to
drop obvious non-matches, never plausible matches.
"""

from __future__ import annotations

from typing import Any

from ..errors import BlockingError, IncrementalBlockingError
from ..runtime.context import EngineSession, resolve_session
from ..table import Table
from ..table.catalog import validate_key
from .candidate_set import CandidateSet


class Blocker:
    """Abstract base class for blockers.

    Subclasses implement :meth:`_compute_blocking`, which receives the
    resolved :class:`~repro.runtime.context.EngineSession` and returns the
    candidate set. The public :meth:`block_tables` is the shared driver:
    it resolves the session (the explicit ``session=``, else the ambient
    ``with EngineSession(...)`` scope, else a default serial session) and
    executes through ``session.run_stage`` — one implementation of the
    store memoization (see :class:`repro.store.stages.BlockStage`) and
    tracing glue. Blocking runs in the calling process.
    """

    #: Subclasses set this for nicer candidate-set names.
    short_name = "blocker"

    #: True when :meth:`incremental` vends a handle. Implies the
    #: blocker's emission is independent per left row (the property
    #: :func:`repro.store.segments.segmented_block`, which only tests and
    #: the benchmark tracer use, also checks) and that the blocker defines
    #: the three hooks the handle and the batch path share:
    #: ``_records(session, table, key, left=...)`` reads a side's
    #: blocking values, ``_right_index(session, r_records)`` indexes the
    #: right side and ``_probe(session, l_records, right, capped)`` probes
    #: it.
    supports_incremental = False

    def incremental(
        self,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> "Any":
        """Vend an :class:`~repro.blocking.incremental.IncrementalBlocking`
        handle over a fixed right table.

        Blockers without the shared index-and-probe hooks, and capped
        ones, raise a typed :class:`~repro.errors.IncrementalBlockingError`
        — never a silent fallback to a full re-block, whose cost callers
        must opt into explicitly via :meth:`block_tables`.
        """
        if not self.supports_incremental:
            raise IncrementalBlockingError(
                f"{type(self).__name__} does not support incremental blocking: "
                "it has no right index to probe per batch; run "
                "block_tables() for a full re-block instead"
            )
        if self.block_size_policy.capped:
            raise IncrementalBlockingError(
                "incremental blocking does not support block-size caps; "
                "use an uncapped blocker for delta handles"
            )
        from .incremental import IncrementalBlocking

        return IncrementalBlocking(self, rtable, l_key, r_key, session=session)

    def block_tables(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str = "",
        *,
        session: EngineSession | None = None,
    ) -> CandidateSet:
        """Produce the candidate set for (ltable, rtable)."""
        # Lazy import: repro.store depends on blocking (codecs rebuild
        # candidate sets), so the reverse edge must not exist at import
        # time.
        from ..store.stages import BlockStage

        return resolve_session(session).run_stage(
            BlockStage(self, ltable, rtable, l_key, r_key, name=name)
        )

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        """Produce the candidate set (no store/trace glue — the session
        already applied it)."""
        raise NotImplementedError

    def _validate_inputs(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str, attrs: list[tuple[Table, str]]
    ) -> None:
        validate_key(ltable, l_key)
        validate_key(rtable, r_key)
        for table, attr in attrs:
            _require_attr(table, attr)

    def _validate_table(self, table: Table, key: str, attr: str) -> None:
        """:meth:`_validate_inputs` for one table: an incremental handle
        checks the fixed right table once and each batch on its own."""
        validate_key(table, key)
        _require_attr(table, attr)


def _require_attr(table: Table, attr: str) -> None:
    if attr not in table:
        raise BlockingError(f"blocking attribute {attr!r} not in table {table.name!r}")
