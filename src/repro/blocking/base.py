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

    #: True when :meth:`incremental` vends a delta-maintained handle.
    #: Implies the blocker's emission is independent per left row (the
    #: property the segmented store layer also relies on).
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

        Blockers without posting-index maintenance raise a typed
        :class:`~repro.errors.IncrementalBlockingError` — never a silent
        fallback to a full re-block, whose cost callers must opt into
        explicitly via :meth:`block_tables`.
        """
        raise IncrementalBlockingError(
            f"{type(self).__name__} does not support incremental blocking: "
            "no posting-index maintenance is defined for it; run "
            "block_tables() for a full re-block instead"
        )

    def upsert(self, records: "Any", *_args: Any, **_kwargs: Any) -> "Any":
        """Guard rail: upserts live on incremental *handles*, not on the
        stateless blocker config.

        Raises :class:`~repro.errors.IncrementalBlockingError` always —
        with a pointer to :meth:`incremental` when this blocker supports
        delta maintenance, and an explicit "not supported, re-block
        instead" otherwise. Silently falling back to ``block_tables``
        here would hide a full re-run behind an O(delta)-looking call.
        """
        if not self.supports_incremental:
            raise IncrementalBlockingError(
                f"{type(self).__name__} does not support incremental blocking: "
                "no posting-index maintenance is defined for it; run "
                "block_tables() for a full re-block instead"
            )
        raise IncrementalBlockingError(
            f"{type(self).__name__} is a stateless blocker config; build a "
            "delta-maintained handle with incremental(rtable, l_key, r_key) "
            "and upsert on the handle"
        )

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
        """:meth:`_validate_inputs` for one table: the incremental handles
        check the fixed right table once and each upsert batch on its own."""
        validate_key(table, key)
        _require_attr(table, attr)


def _require_attr(table: Table, attr: str) -> None:
    if attr not in table:
        raise BlockingError(f"blocking attribute {attr!r} not in table {table.name!r}")
