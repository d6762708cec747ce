"""Columnar token-set columns for the batch scoring kernels.

The batch scoring kernels in :mod:`repro.similarity.batch` consume whole
*columns* of token sets — one entry per candidate pair — instead of one
pair at a time. :class:`TokenColumn` is that column. Built from the
:class:`~repro.runtime.cache.InternedTokens` entries the
:class:`~repro.runtime.cache.TokenCache` already holds, it never copies
token data (rows with equal cells keep sharing one ``frozenset[int]``
object).

Missing cells (``None`` in the cache column) are distinct from *empty*
token sets: a missing row comes back as ``None`` from
:meth:`TokenColumn.sets`. Batch kernels map missing rows to NaN and score
empty sets by the reference expressions, exactly like the per-pair path.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

#: One row of a column: a frozenset of interned ids, or None when missing.
RowSet = "frozenset[int] | None"


class TokenColumn:
    """A column of interned token sets (see module docstring).

    Construct with :meth:`from_entries` (zero-copy over cached
    :class:`~repro.runtime.cache.InternedTokens`) or :meth:`from_sets`
    (tests and ad-hoc columns).
    """

    __slots__ = ("_entries", "_sets")

    def __init__(self) -> None:
        self._entries: tuple | None = None
        self._sets: tuple | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(cls, entries: Iterable[Any]) -> "TokenColumn":
        """Wrap cached ``InternedTokens | None`` entries (no copying)."""
        column = cls()
        column._entries = tuple(entries)
        return column

    @classmethod
    def from_sets(cls, sets: Iterable[Any]) -> "TokenColumn":
        """Wrap ``frozenset[int] | None`` rows directly."""
        column = cls()
        column._sets = tuple(
            s if (s is None or isinstance(s, frozenset)) else frozenset(s)
            for s in sets
        )
        return column

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._entries is not None:
            return len(self._entries)
        return len(self._sets)

    def sets(self) -> tuple:
        """Per-row ``frozenset[int] | None`` views (cached after first call)."""
        if self._sets is None:
            self._sets = tuple(
                entry.ids if entry is not None else None for entry in self._entries
            )
        return self._sets

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "entries" if self._entries is not None else "sets"
        return f"TokenColumn(n={len(self)}, backing={backing})"


def gather_column(column: Sequence[Any], indices: Sequence[int]) -> TokenColumn:
    """A :class:`TokenColumn` over ``column[i] for i in indices``.

    *column* is a cached :meth:`~repro.runtime.cache.TokenCache.column_token_ids`
    tuple; *indices* are the row positions of one side of the candidate
    pairs (feature extraction gathers by pair order, blockers by record
    order).
    """
    return TokenColumn.from_entries(column[i] for i in indices)
