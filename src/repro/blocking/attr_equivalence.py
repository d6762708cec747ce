"""Attribute-equivalence (AE) blocker.

Keeps a pair only when the blocking attributes of both records agree
exactly. Section 7 step 1 of the case study applies this blocker to the
M1 rule: it first derives a temporary column holding the suffix of the
UMETRICS ``UniqueAwardNumber`` (via *l_preprocess*) and AE-blocks it
against USDA's ``AwardNumber``. Missing values never join.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import IncrementalBlockingError
from ..runtime.context import EngineSession
from ..runtime.instrument import count
from ..table import Table
from ..table.column import is_missing
from .base import Blocker
from .candidate_set import CandidateSet
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

    def incremental(
        self,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> "Any":
        """Delta-maintained handle; see :mod:`repro.blocking.incremental`."""
        if self.block_size_policy.capped:
            raise IncrementalBlockingError(
                "incremental blocking does not support block-size caps; "
                "use an uncapped blocker for delta handles"
            )
        from .incremental import AttrEquivalenceIncremental

        return AttrEquivalenceIncremental(self, rtable, l_key, r_key, session=session)

    def _values(self, table: Table, attr: str, preprocess: Preprocess | None):
        values = table[attr]
        if preprocess is not None:
            values = [None if is_missing(v) else preprocess(v) for v in values]
        return values

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
        l_values = self._values(ltable, self.l_attr, self.l_preprocess)
        r_values = self._values(rtable, self.r_attr, self.r_preprocess)
        l_ids = ltable[l_key]
        r_ids = rtable[r_key]
        index: dict[Any, list[Any]] = {}
        for rid, value in zip(r_ids, r_values):
            if not is_missing(value):
                index.setdefault(value, []).append(rid)
        capped = capped_keys(
            {v: len(rids_) for v, rids_ in index.items()},
            self.block_size_policy,
            instrumentation,
        )
        pairs = []
        for lid, value in zip(l_ids, l_values):
            if is_missing(value):
                continue
            if value in capped:
                continue
            for rid in index.get(value, ()):
                pairs.append((lid, rid))
        count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)
