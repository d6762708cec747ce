"""Incremental blocking: a blocker's right side, indexed once, probed per batch.

The batch blockers answer "which pairs survive?" by re-reading both whole
tables. A serving loop asks a narrower question many times over: *which
pairs does this batch of left records emit against the fixed right
table?* — the paper's Section 10 patch (496 late-arriving records) run as
an index probe rather than a rerun.

A :class:`~repro.blocking.base.Blocker` that sets ``supports_incremental``
vends an :class:`IncrementalBlocking` handle via ``blocker.incremental(
rtable, l_key, r_key)``. The handle validates the right table and builds
the blocker's right index once, through the same ``_records`` and
``_right_index`` hooks the batch ``_compute_blocking`` calls: for the
overlap-family blockers the inverted index (rid lists in right-row order)
with its document frequencies, for the equivalence blocker the equi-join
hash index. ``preview(batch)`` then validates only the batch and runs the
blocker's ``_probe`` hook, so its pairs are **bit-identical** (values and
order) to ``blocker.block_tables(batch, rtable)``.
``tests/test_incremental.py`` asserts this differentially,
property-style.

The handle stores nothing about left records, so a preview depends on its
batch alone. Which left records are live, and what they matched, is the
caller's state: :class:`~repro.serving.service.MatchService` keeps it and
commits it only after a whole patch succeeded.
"""

from __future__ import annotations

from typing import Any

from ..runtime.context import EngineSession, resolve_session
from ..table import Table

Pair = tuple[Any, Any]


class IncrementalBlocking:
    """One blocker's right index over a fixed right table, probed per batch."""

    def __init__(
        self,
        blocker: Any,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> None:
        self.blocker = blocker
        self.l_key = l_key
        self._session = resolve_session(session)
        blocker._validate_table(rtable, r_key, blocker.r_attr)
        self._right = blocker._right_index(
            blocker._records(self._session, rtable, r_key, left=False)
        )

    def preview(self, batch: Table) -> list[Pair]:
        """The pairs *batch* emits against the right table, in
        ``block_tables`` order; the batch alone is validated."""
        blocker = self.blocker
        blocker._validate_table(batch, self.l_key, blocker.l_attr)
        l_records = blocker._records(self._session, batch, self.l_key, left=True)
        return blocker._probe(self._session, l_records, self._right)
