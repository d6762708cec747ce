"""Columnar chunk plumbing: token-set columns with a CSR wire format.

The batch scoring kernels in :mod:`repro.similarity.batch` consume whole
*columns* of token sets — one entry per candidate pair — instead of one
pair at a time. :class:`TokenColumn` is that column. It has two lives:

* **in the parent process** it wraps the
  :class:`~repro.runtime.cache.InternedTokens` entries the
  :class:`~repro.runtime.cache.TokenCache` already holds, so building and
  slicing a column never copies token data (rows with equal cells keep
  sharing one ``frozenset[int]`` object);
* **on the wire** it pickles to CSR form — one flat ``array('i')`` of
  sorted ids plus an ``array('i')`` of row offsets and the indices of
  missing rows — so a :class:`~repro.runtime.executor.WorkerPool` chunk
  ships as three compact buffers instead of thousands of small frozenset
  pickles. Workers materialize the per-row ``frozenset[int]`` views once
  per chunk, lazily.

Missing cells (``None`` in the cache column) are distinct from *empty*
token sets: an empty set occupies a zero-length CSR segment, a missing
row is listed in ``missing`` and comes back as ``None`` from
:meth:`TokenColumn.sets`. Batch kernels map missing rows to NaN and score
empty sets by the reference expressions, exactly like the per-pair path.

Set views are only ever used for size/intersection arithmetic, which is
iteration-order independent, so rebuilding frozensets from sorted CSR
data in a worker cannot perturb any bit-identity contract.
"""

from __future__ import annotations

from array import array
from typing import Any, Iterable, Sequence

from ..text.intern import ID_TYPECODE

#: One row of a column: a frozenset of interned ids, or None when missing.
RowSet = "frozenset[int] | None"


class TokenColumn:
    """A chunk-sized column of interned token sets (see module docstring).

    Construct with :meth:`from_entries` (parent side, zero-copy over
    cached :class:`~repro.runtime.cache.InternedTokens`),
    :meth:`from_sets` (tests and ad-hoc columns), or :meth:`from_csr`
    (the unpickled wire form).
    """

    __slots__ = ("_entries", "_sets", "_offsets", "_data", "_missing")

    def __init__(self) -> None:
        self._entries: tuple | None = None
        self._sets: tuple | None = None
        self._offsets: "array[int] | None" = None
        self._data: "array[int] | None" = None
        self._missing: tuple[int, ...] | None = None

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

    @classmethod
    def from_csr(
        cls,
        offsets: "array[int]",
        data: "array[int]",
        missing: tuple[int, ...] = (),
    ) -> "TokenColumn":
        """Rebuild a column from its wire form (``offsets`` has n+1 ends)."""
        column = cls()
        column._offsets = offsets
        column._data = data
        column._missing = tuple(missing)
        return column

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._entries is not None:
            return len(self._entries)
        if self._sets is not None:
            return len(self._sets)
        return len(self._offsets) - 1

    def sets(self) -> tuple:
        """Per-row ``frozenset[int] | None`` views (cached after first call)."""
        if self._sets is None:
            if self._entries is not None:
                self._sets = tuple(
                    entry.ids if entry is not None else None
                    for entry in self._entries
                )
            else:
                offsets, data = self._offsets, self._data
                rows = [
                    frozenset(data[offsets[i] : offsets[i + 1]])
                    for i in range(len(offsets) - 1)
                ]
                for i in self._missing:
                    rows[i] = None
                self._sets = tuple(rows)
        return self._sets

    def csr(self) -> tuple["array[int]", "array[int]", tuple[int, ...]]:
        """The CSR wire form ``(offsets, data, missing)`` (cached)."""
        if self._offsets is None:
            offsets = array(ID_TYPECODE, [0])
            data = array(ID_TYPECODE)
            missing: list[int] = []
            if self._entries is not None:
                for i, entry in enumerate(self._entries):
                    if entry is None:
                        missing.append(i)
                    else:
                        data.extend(entry.sorted)
                    offsets.append(len(data))
            else:
                for i, row in enumerate(self._sets):
                    if row is None:
                        missing.append(i)
                    else:
                        data.extend(sorted(row))
                    offsets.append(len(data))
            self._offsets, self._data = offsets, data
            self._missing = tuple(missing)
        return self._offsets, self._data, self._missing

    def slice(self, start: int, stop: int) -> "TokenColumn":
        """Rows ``[start, stop)`` as a new column (chunk boundaries)."""
        if self._entries is not None:
            return TokenColumn.from_entries(self._entries[start:stop])
        if self._sets is not None:
            return TokenColumn.from_sets(self._sets[start:stop])
        offsets, data, missing = self._offsets, self._data, self._missing
        base = offsets[start]
        sub_offsets = array(
            ID_TYPECODE, (offsets[i] - base for i in range(start, stop + 1))
        )
        sub_data = data[offsets[start] : offsets[stop]]
        sub_missing = tuple(i - start for i in missing if start <= i < stop)
        return TokenColumn.from_csr(sub_offsets, sub_data, sub_missing)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Always ship CSR: three buffers instead of per-row set pickles.
        return (TokenColumn.from_csr, self.csr())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = (
            "entries"
            if self._entries is not None
            else "sets" if self._sets is not None and self._offsets is None else "csr"
        )
        return f"TokenColumn(n={len(self)}, backing={backing})"


def gather_column(column: Sequence[Any], indices: Sequence[int]) -> TokenColumn:
    """A :class:`TokenColumn` over ``column[i] for i in indices``.

    *column* is a cached :meth:`~repro.runtime.cache.TokenCache.column_token_ids`
    tuple; *indices* are the row positions of one side of a candidate
    chunk (feature extraction gathers by pair order, blockers by record
    order).
    """
    return TokenColumn.from_entries(column[i] for i in indices)
