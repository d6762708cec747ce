"""Rule-based blocker: keep pairs satisfying an arbitrary record predicate.

Used for "patching" blocking when the match definition changes (Section 10:
the new award-number/project-number positive rule had to be added to the
blocking pipeline). An optional *index_attrs* pair turns the evaluation
from a full cross product into an equi-join pre-grouping when the rule is
known to require equality on those attributes.
"""

from __future__ import annotations

from typing import Any, Callable

from ..runtime.context import EngineSession
from ..runtime.instrument import count, stage
from ..table import Table
from ..table.column import is_missing
from .base import Blocker
from .candidate_set import CandidateSet

PairPredicate = Callable[[dict[str, Any], dict[str, Any]], bool]


class RuleBasedBlocker(Blocker):
    """Keep pairs with ``predicate(l_row, r_row)`` true.

    Parameters
    ----------
    predicate:
        Boolean function of the two records.
    index_attrs:
        Optional ``(l_attr, r_attr)``; when given, only pairs whose values
        agree on these attributes are evaluated (a correct shortcut iff the
        predicate implies that equality).
    """

    short_name = "rule"

    def __init__(
        self,
        predicate: PairPredicate,
        index_attrs: tuple[str, str] | None = None,
    ) -> None:
        self.predicate = predicate
        self.index_attrs = index_attrs

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        attrs = []
        if self.index_attrs is not None:
            attrs = [(ltable, self.index_attrs[0]), (rtable, self.index_attrs[1])]
        self._validate_inputs(ltable, rtable, l_key, r_key, attrs)
        instrumentation = session.instrumentation
        with stage(instrumentation, "evaluate"):
            if self.index_attrs is not None:
                pairs = self._block_indexed(ltable, rtable, l_key, r_key)
            else:
                pairs = self._block_cross(ltable, rtable, l_key, r_key)
            count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)

    def _block_indexed(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str
    ) -> list[tuple[Any, Any]]:
        """Evaluate the predicate only within equi-join groups."""
        l_attr, r_attr = self.index_attrs
        r_ids = rtable[r_key]
        r_groups: dict[Any, list[tuple[Any, dict[str, Any]]]] = {}
        for j, v in enumerate(rtable[r_attr]):
            if not is_missing(v):
                r_groups.setdefault(v, []).append((r_ids[j], rtable.row(j)))
        l_ids = ltable[l_key]
        predicate = self.predicate
        pairs: list[tuple[Any, Any]] = []
        for i, v in enumerate(ltable[l_attr]):
            if is_missing(v) or v not in r_groups:
                continue
            lid, lrow = l_ids[i], ltable.row(i)
            for rid, rrow in r_groups[v]:
                if predicate(lrow, rrow):
                    pairs.append((lid, rid))
        return pairs

    def _block_cross(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str
    ) -> list[tuple[Any, Any]]:
        """Evaluate the predicate over the full cross product."""
        r_rows = rtable.to_rows()
        predicate = self.predicate
        pairs: list[tuple[Any, Any]] = []
        for lrow in ltable.to_rows():
            for rrow in r_rows:
                if predicate(lrow, rrow):
                    pairs.append((lrow[l_key], rrow[r_key]))
        return pairs
