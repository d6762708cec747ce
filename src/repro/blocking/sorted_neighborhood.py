"""Sorted-neighborhood blocker.

A classic alternative to token blocking (Hernandez & Stolfo): sort all
records of both tables by a key expression and pair up records that fall
within a sliding window of each other. Useful when a lexicographic
ordering clusters duplicates — e.g. award numbers sharing long prefixes —
and as a cheap extra recall source to union with the token blockers.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import BlockingError
from ..runtime.context import EngineSession
from ..runtime.instrument import count
from ..table import Table
from ..table.column import is_missing
from .base import Blocker
from .candidate_set import CandidateSet

KeyFunction = Callable[[Any], Any]


def _window_pairs(
    entries: list[tuple[str, str, Any]], w: int
) -> list[tuple[Any, Any]]:
    """Left-with-right pairs within *w* - 1 positions in the merged order.

    Each pair is emitted once, by its window's first position, with the
    left id first.
    """
    pairs: list[tuple[Any, Any]] = []
    for i in range(len(entries)):
        _, side_i, rid_i = entries[i]
        for j in range(i + 1, min(i + w, len(entries))):
            _, side_j, rid_j = entries[j]
            if side_i == side_j:
                continue
            if side_i == "L":
                pairs.append((rid_i, rid_j))
            else:
                pairs.append((rid_j, rid_i))
    return pairs


class SortedNeighborhoodBlocker(Blocker):
    """Slide a window over the merged sort order of both tables.

    Parameters
    ----------
    l_attr, r_attr:
        Attributes supplying the sort key on each side.
    window:
        Window size w >= 2: records within w-1 positions of each other in
        the merged order are paired (left-with-right only).
    key:
        Optional transform applied to the attribute before sorting (e.g.
        :func:`repro.text.patterns.award_number_suffix`). Records whose
        key is missing (or transformed to ``None``) are skipped.
    """

    short_name = "sorted_neighborhood"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        window: int = 3,
        key: KeyFunction | None = None,
    ) -> None:
        if window < 2:
            raise BlockingError(f"window must be >= 2, got {window}")
        self.l_attr = l_attr
        self.r_attr = r_attr
        self.window = window
        self.key = key

    def _entries(
        self, table: Table, attr: str, key_column: str, side: str
    ) -> list[tuple[str, Any, Any]]:
        out = []
        for rid, value in zip(table[key_column], table[attr]):
            if is_missing(value):
                continue
            sort_key = self.key(value) if self.key is not None else value
            if sort_key is None:
                continue
            out.append((str(sort_key), side, rid))
        return out

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        instrumentation = session.instrumentation
        self._validate_inputs(
            ltable, rtable, l_key, r_key, [(ltable, self.l_attr), (rtable, self.r_attr)]
        )
        merged = self._entries(ltable, self.l_attr, l_key, "L") + self._entries(
            rtable, self.r_attr, r_key, "R"
        )
        merged.sort(key=lambda e: (e[0], e[1], str(e[2])))
        pairs = _window_pairs(merged, self.window)
        count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)
