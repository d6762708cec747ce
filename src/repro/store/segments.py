"""Delta-aware store layer: blocking memoized per table *segment*.

The whole-table :class:`~repro.store.stages.BlockStage` key is all-or-
nothing: patch one row of a 100k-row left table and the store recomputes
all 100k. This module splits the left table into fixed row-range
segments (:func:`~repro.store.fingerprint.fingerprint_table_segments`)
and memoizes one pair-list artifact per ``(blocker, left segment, right
table)``. A table that changed in k rows re-blocks only the segments
containing them — ~1% changed invalidates ~1% of the artifacts — while
every untouched segment hits, even across *different table objects* that
share row ranges (the original and its patched copy).

Validity rests on the property
:attr:`~repro.blocking.base.Blocker.supports_incremental` implies: the
blocker's emission for a left row must not depend on any *other* left
row. All three case-study blockers qualify — the overlap blockers'
global prefix order ``(doc_freq, token)`` is computed from the *right*
table only, and rank-sorting a segment's tokens equals sorting by that
global key restricted to them — so concatenating per-segment pair lists
in segment order reproduces the full-table run's pairs **bit-identically**
(``tests/test_prop_store.py`` asserts this). Blockers whose output mixes
left rows (e.g. sorted neighborhood) raise a typed error instead of
silently caching wrong slices.

No program path runs this layer: the batch workflow keeps the
whole-table stage and the serving path probes incremental handles. Its
only importers are ``tests/test_prop_store.py`` and the benchmark
harness's tracer (``perfbench/tracing.py``), which wraps
:meth:`SegmentBlockStage.compute` by name and would fail at import
without it.
"""

from __future__ import annotations

from typing import Any

from ..errors import IncrementalBlockingError
from ..runtime.context import EngineSession, StageOperator, resolve_session
from ..table import Table
from .codecs import PAIR_LIST
from .fingerprint import (
    SEGMENT_ROWS,
    fingerprint_blocker,
    fingerprint_table,
    fingerprint_table_segments,
    fingerprint_value,
    segment_bounds,
)


class SegmentBlockStage(StageOperator):
    """One blocker application over a single left-table segment.

    Cached as a plain pair list (:data:`~repro.store.codecs.PAIR_LIST`):
    the artifact must be reusable from a *different* table object whose
    matching segment has the same content, so it cannot embed the live
    candidate-set tables the way :class:`~repro.store.stages.BlockStage`
    artifacts do. The key is content-only — blocker recipe, the
    segment's digest, the right table and the key columns; deliberately
    **not** the segment's position, so a row block that merely moved
    (e.g. rows appended before it) still hits.
    """

    cache_kind = "pairs"
    codec = PAIR_LIST
    trace_name = None

    def __init__(
        self,
        blocker: Any,
        segment: Table,
        segment_digest: str,
        rtable: Table,
        l_key: str,
        r_key: str,
    ) -> None:
        self.blocker = blocker
        self.segment = segment
        self.segment_digest = segment_digest
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key

    def label(self) -> str:
        return f"block_segment:{self.blocker.short_name}:{self.segment_digest[:12]}"

    def fingerprint(self) -> dict[str, str]:
        return {
            "blocker": fingerprint_blocker(self.blocker),
            "lsegment": self.segment_digest,
            "rtable": fingerprint_table(self.rtable),
            "keys": fingerprint_value((self.l_key, self.r_key)),
        }

    def compute(self, session: EngineSession) -> list:
        result = self.blocker._compute_blocking(
            session, self.segment, self.rtable, self.l_key, self.r_key, ""
        )
        return list(result.pairs)


def segmented_block(
    blocker: Any,
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    *,
    name: str = "",
    rows_per_segment: int = SEGMENT_ROWS,
    session: EngineSession | None = None,
) -> "Any":
    """Block ``(ltable, rtable)`` segment-by-segment through the store.

    Returns the same :class:`~repro.blocking.candidate_set.CandidateSet`
    (same pairs, same order) as ``blocker.block_tables(ltable, rtable)``,
    but memoized per left segment: re-running after a k-row patch misses
    only the changed segments. Without a store on the session this is
    just a segmented recompute.
    """
    from ..blocking.candidate_set import CandidateSet

    if not getattr(blocker, "supports_incremental", False):
        raise IncrementalBlockingError(
            f"{type(blocker).__name__} cannot be segment-cached: its emission "
            "may mix left rows, so per-segment artifacts would be wrong; run "
            "block_tables() for a whole-table artifact instead"
        )
    resolved = resolve_session(session)
    digests = fingerprint_table_segments(ltable, rows_per_segment)
    bounds = segment_bounds(len(ltable), rows_per_segment)
    pairs: list = []
    for (start, stop), digest in zip(bounds, digests):
        segment = ltable.take(range(start, stop))
        pairs.extend(
            resolved.run_stage(
                SegmentBlockStage(blocker, segment, digest, rtable, l_key, r_key)
            )
        )
    return CandidateSet(
        ltable, rtable, l_key, r_key, pairs, name=name or blocker.short_name
    )
