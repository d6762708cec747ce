"""Attribute-equivalence (AE) blocker.

Keeps a pair only when the blocking attributes of both records agree
exactly. Section 7 step 1 of the case study applies this blocker to the
M1 rule: it first derives a temporary column holding the suffix of the
UMETRICS ``UniqueAwardNumber`` (via *l_preprocess*) and AE-blocks it
against USDA's ``AwardNumber``. Missing values never join.
"""

from __future__ import annotations

from typing import Any, Callable

from ..runtime.context import EngineSession
from ..runtime.instrument import count
from ..table import Table
from ..table.column import is_missing
from .base import Blocker
from .candidate_set import CandidateSet, Pair
from .policy import BlockSizePolicy, capped_keys, resolve_policy

Preprocess = Callable[[Any], Any]


class AttrEquivalenceBlocker(Blocker):
    """Equi-join blocker on one attribute per side.

    Parameters
    ----------
    l_attr, r_attr:
        Blocking attributes of the left/right tables.
    l_preprocess, r_preprocess:
        Optional cell transforms applied before comparison (e.g. extracting
        the award-number suffix). A transform returning ``None`` removes the
        record from consideration, mirroring a missing value.
    """

    short_name = "attr_equiv"
    supports_incremental = True

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        l_preprocess: Preprocess | None = None,
        r_preprocess: Preprocess | None = None,
        *,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        self.l_attr = l_attr
        self.r_attr = r_attr
        self.l_preprocess = l_preprocess
        self.r_preprocess = r_preprocess
        self.block_size_policy = resolve_policy(block_size_policy)

    def _records(
        self, session: EngineSession, table: Table, key: str, *, left: bool
    ) -> list[tuple[Any, Any]]:
        """``(id, preprocessed value)`` per row whose value is not missing,
        in row order."""
        attr, preprocess = (
            (self.l_attr, self.l_preprocess) if left else (self.r_attr, self.r_preprocess)
        )
        values = table[attr]
        if preprocess is not None:
            values = [None if is_missing(v) else preprocess(v) for v in values]
        return [(rid, v) for rid, v in zip(table[key], values) if not is_missing(v)]

    def _right_index(
        self, session: EngineSession, r_records: list[tuple[Any, Any]]
    ) -> dict[Any, list[Any]]:
        """The equi-join hash index: value -> rids in right-row order."""
        index: dict[Any, list[Any]] = {}
        for rid, value in r_records:
            index.setdefault(value, []).append(rid)
        return index

    def _probe(
        self,
        session: EngineSession,
        l_records: list[tuple[Any, Any]],
        index: dict[Any, list[Any]],
        capped: frozenset = frozenset(),
    ) -> list[Pair]:
        """Each left record joined with its value's rids; values in
        *capped* join nothing."""
        return [
            (lid, rid)
            for lid, value in l_records
            if value not in capped
            for rid in index.get(value, ())
        ]

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        # The equi-join is a single hash pass.
        instrumentation = session.instrumentation
        self._validate_inputs(
            ltable, rtable, l_key, r_key, [(ltable, self.l_attr), (rtable, self.r_attr)]
        )
        l_records = self._records(session, ltable, l_key, left=True)
        index = self._right_index(
            session, self._records(session, rtable, r_key, left=False)
        )
        capped = capped_keys(
            {v: len(rids_) for v, rids_ in index.items()},
            self.block_size_policy,
            instrumentation,
        )
        pairs = self._probe(session, l_records, index, capped)
        count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)
