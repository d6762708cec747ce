"""Candidate sets: the output of blocking, input to sampling and matching.

A :class:`CandidateSet` is an ordered, duplicate-free, immutable collection
of (left-id, right-id) pairs together with references to the two base
tables and their key columns — enough provenance to recover full records
for labeling, feature extraction and debugging.

The pairs are held as two int64 arrays of row positions into the base
tables, plus their packed keys ``l_pos * len(rtable) + r_pos``: set
algebra is array work, and columnar consumers (feature extraction,
serving) read the positions directly. The id tuples that :attr:`pairs`,
iteration and :meth:`sample` hand out are built from the key columns on
first use, once per set.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import BlockingError
from ..runtime.context import current_session
from ..table import Table

Pair = tuple[Any, Any]

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.setflags(write=False)
_LEFT, _RIGHT = itemgetter(0), itemgetter(1)


def row_index(keys: Sequence[Any]) -> dict[Any, int]:
    """Key value -> row position (a key column's values are unique)."""
    return {v: i for i, v in enumerate(keys)}


def key_index(table: Table, column: str) -> dict[Any, int]:
    """:func:`row_index` of ``table[column]``, built once per ambient
    :class:`~repro.runtime.context.EngineSession` (once per call outside
    one)."""
    session = current_session()
    if session is None:
        return row_index(table[column])
    return session.key_index(table, column)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _sorted_member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the *keys* present in the ascending array *sorted_keys*."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    at = np.searchsorted(sorted_keys, keys)
    at[at == len(sorted_keys)] = 0
    return sorted_keys[at] == keys


def _rows_onto(keys: list, target_keys: list, target_index: dict[Any, int]) -> np.ndarray:
    """For each row of a key column *keys*, the row of *target_keys* that
    holds its id (``-1`` where none does)."""
    if (keys is target_keys or keys == target_keys) and len(target_index) == len(keys):
        return np.arange(len(keys), dtype=np.int64)
    return np.fromiter(map(target_index.get, keys, repeat(-1)), np.int64, len(keys))


def _unknown_id(
    pairs: Sequence[Pair], l_index: dict, r_index: dict, ltable: Table, rtable: Table
) -> BlockingError:
    """The error naming the first of *pairs*, in order, that holds an id
    missing from its table."""
    return next(
        BlockingError(f"left id {lid!r} not present in {ltable.name!r}")
        if lid not in l_index
        else BlockingError(f"right id {rid!r} not present in {rtable.name!r}")
        for lid, rid in pairs
        if lid not in l_index or rid not in r_index
    )


def _first_seen(keys: np.ndarray) -> np.ndarray | None:
    """Ascending positions of the first occurrence of each key, or
    ``None`` when *keys* has no duplicates."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return np.sort(order[np.concatenate(([True], ordered[1:] != ordered[:-1]))])


class CandidateSet:
    """A set of candidate record pairs between two tables.

    Parameters
    ----------
    ltable, rtable:
        The base tables the pair ids refer to.
    l_key, r_key:
        Key columns of the base tables.
    pairs:
        Iterable of (left-id, right-id); duplicates are dropped, first-seen
        order is preserved (so sampling is deterministic given a seed). An
        id absent from its table's key column raises
        :class:`~repro.errors.BlockingError`.
    name:
        Optional label, e.g. ``"C2"``.

    Sets are immutable: combining, filtering and subsetting return new
    sets over the same tables.
    """

    def __init__(
        self,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        pairs: Iterable[Pair] = (),
        name: str = "",
    ) -> None:
        self._bind_ids(
            ltable, rtable, l_key, r_key,
            key_index(ltable, l_key), key_index(rtable, r_key), pairs, name,
        )

    @classmethod
    def _over(
        cls, ltable: Table, rtable: Table, l_key: str, r_key: str,
        l_index: dict[Any, int], r_index: dict[Any, int],
        pairs: Iterable[Pair] = (), name: str = "",
    ) -> "CandidateSet":
        """A set over prebuilt key indexes (:func:`row_index` of the key
        columns; shared, not copied), so building it costs O(pairs), not
        O(tables). A :class:`~repro.serving.MatchService` indexes its
        fixed right table once."""
        self = cls.__new__(cls)
        self._bind_ids(ltable, rtable, l_key, r_key, l_index, r_index, pairs, name)
        return self

    @classmethod
    def merged(
        cls, parts: Sequence["CandidateSet"], ltable: Table, rtable: Table,
        name: str = "",
    ) -> "CandidateSet":
        """The pairs of every set in *parts*, in order and deduplicated,
        over *ltable*/*rtable* (keyed as the parts are; e.g. a
        concatenation of their left tables).

        Equal to a :class:`CandidateSet` of the parts' chained id pairs,
        but each part's table rows, not its pairs, are mapped onto the new
        tables, and no id tuple is built.
        """
        l_key, r_key = parts[0].l_key, parts[0].r_key
        l_index, r_index = key_index(ltable, l_key), key_index(rtable, r_key)
        l_pos = np.concatenate([_NO_ROWS] + [
            _rows_onto(p.ltable[l_key], ltable[l_key], l_index)[p._l_pos] for p in parts
        ])
        r_pos = np.concatenate([_NO_ROWS] + [
            _rows_onto(p.rtable[r_key], rtable[r_key], r_index)[p._r_pos] for p in parts
        ])
        if (l_pos < 0).any() or (r_pos < 0).any():
            pairs = [pair for p in parts for pair in p]
            raise _unknown_id(pairs, l_index, r_index, ltable, rtable)
        self = cls.__new__(cls)
        self._bind_positions(
            ltable, rtable, l_key, r_key, l_pos, r_pos, name, l_index, r_index
        )
        return self

    def _bind_ids(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str,
        l_index: dict[Any, int], r_index: dict[Any, int],
        pairs: Iterable[Pair], name: str,
    ) -> None:
        """Map id pairs to row positions, validating every id."""
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        n = len(pairs)
        try:
            # itemgetter, not zip(*pairs): no iterator object per pair for
            # the garbage collector to count
            l_pos = np.fromiter(map(l_index.__getitem__, map(_LEFT, pairs)), np.int64, n)
            r_pos = np.fromiter(map(r_index.__getitem__, map(_RIGHT, pairs)), np.int64, n)
        except KeyError:
            raise _unknown_id(pairs, l_index, r_index, ltable, rtable) from None
        self._bind_positions(
            ltable, rtable, l_key, r_key, l_pos, r_pos, name, l_index, r_index,
            pairs,
        )

    def _bind_positions(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str,
        l_pos: np.ndarray, r_pos: np.ndarray, name: str,
        l_index: dict[Any, int], r_index: dict[Any, int],
        pairs: Sequence[Pair] = (),
    ) -> None:
        """Bind row positions, keeping the first occurrence of each pair.
        *pairs* are the id pairs the positions came from, if the caller
        holds them."""
        keys = l_pos * len(rtable) + r_pos
        first = _first_seen(keys)
        tuples = None
        if first is not None:
            l_pos, r_pos, keys = l_pos[first], r_pos[first], keys[first]
        elif type(pairs) is list and all(type(p) is tuple for p in pairs):
            # a blocker's deduplicated tuple list: keep it (a copy, so the
            # caller's list stays theirs) rather than rebuild it on demand
            tuples = list(pairs)
        self._bind(
            ltable, rtable, l_key, r_key, l_pos, r_pos, keys, name,
            l_index, r_index, tuples,
        )

    def _bind(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str,
        l_pos: np.ndarray, r_pos: np.ndarray, keys: np.ndarray, name: str,
        l_index: dict[Any, int] | None, r_index: dict[Any, int] | None,
        tuples: list[Pair] | None = None,
    ) -> None:
        self.ltable = ltable
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self.name = name
        self._l_pos = _frozen(l_pos)
        self._r_pos = _frozen(r_pos)
        self._keys = _frozen(keys)
        self._l_index = l_index
        self._r_index = r_index
        self._tuples = tuples
        self._sorted: np.ndarray | None = None
        self._key_set: set[int] | None = None

    def _take(self, rows: np.ndarray | slice, name: str) -> "CandidateSet":
        """A new set of this set's pairs at *rows*, over the same tables
        and key indexes."""
        out = CandidateSet.__new__(CandidateSet)
        out._bind(
            self.ltable, self.rtable, self.l_key, self.r_key,
            self._l_pos[rows], self._r_pos[rows], self._keys[rows], name,
            self._l_index, self._r_index,
        )
        return out

    def _derive(self, pairs: Iterable[Pair], name: str = "") -> "CandidateSet":
        """A new set of id *pairs* over this set's tables and key indexes."""
        return CandidateSet._over(
            self.ltable, self.rtable, self.l_key, self.r_key,
            self._left_index(), self._right_index(), pairs, name,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._keys)

    def _pair_list(self) -> list[Pair]:
        if self._tuples is None:
            lk, rk = self.ltable[self.l_key], self.rtable[self.r_key]
            self._tuples = list(zip(
                map(lk.__getitem__, self._l_pos.tolist()),
                map(rk.__getitem__, self._r_pos.tolist()),
            ))
        return self._tuples

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pair_list())

    def __contains__(self, pair: Pair) -> bool:
        try:
            lid, rid = pair
        except (TypeError, ValueError):
            return False
        row = self._left_index().get(lid)
        col = self._right_index().get(rid)
        if row is None or col is None:
            return False
        if self._key_set is None:
            self._key_set = set(self._keys.tolist())
        return row * len(self.rtable) + col in self._key_set

    @property
    def pairs(self) -> list[Pair]:
        return list(self._pair_list())

    def pair_set(self) -> set[Pair]:
        return set(self._pair_list())

    @property
    def left_positions(self) -> np.ndarray:
        """Row position in ``ltable`` of each pair's left record (read-only).

        Columnar consumers (feature extraction, serving) read attribute
        values straight out of the table columns through these instead of
        materialising a row dict per pair via :meth:`record_pair`.
        """
        return self._l_pos

    @property
    def right_positions(self) -> np.ndarray:
        """Row position in ``rtable`` of each pair's right record (read-only)."""
        return self._r_pos

    def _left_index(self) -> dict[Any, int]:
        if self._l_index is None:
            self._l_index = key_index(self.ltable, self.l_key)
        return self._l_index

    def _right_index(self) -> dict[Any, int]:
        if self._r_index is None:
            self._r_index = key_index(self.rtable, self.r_key)
        return self._r_index

    def left_row(self, lid: Any) -> dict[str, Any]:
        """Full left record for an id."""
        return self.ltable.row(self._left_index()[lid])

    def right_row(self, rid: Any) -> dict[str, Any]:
        """Full right record for an id."""
        return self.rtable.row(self._right_index()[rid])

    def record_pair(self, pair: Pair) -> tuple[dict[str, Any], dict[str, Any]]:
        """(left record, right record) for a candidate pair."""
        lid, rid = pair
        return self.left_row(lid), self.right_row(rid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "candidates"
        return f"<CandidateSet {label!r}: {len(self)} pairs>"

    # ------------------------------------------------------------------
    # set algebra (all return new candidate sets over the same tables)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "CandidateSet") -> None:
        if (
            self.ltable is not other.ltable
            or self.rtable is not other.rtable
            or self.l_key != other.l_key
            or self.r_key != other.r_key
        ):
            raise BlockingError(
                "candidate sets must share base tables and keys to combine"
            )

    def _sorted_keys(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(self._keys)
        return self._sorted

    def _in(self, other: "CandidateSet") -> np.ndarray:
        """Mask of this set's pairs that are also in *other*."""
        self._check_compatible(other)
        return _sorted_member(self._keys, other._sorted_keys())

    def union(self, other: "CandidateSet", name: str = "") -> "CandidateSet":
        new = ~other._in(self)
        out = CandidateSet.__new__(CandidateSet)
        out._bind(
            self.ltable, self.rtable, self.l_key, self.r_key,
            np.concatenate((self._l_pos, other._l_pos[new])),
            np.concatenate((self._r_pos, other._r_pos[new])),
            np.concatenate((self._keys, other._keys[new])),
            name, self._l_index, self._r_index,
        )
        return out

    def intersection(self, other: "CandidateSet", name: str = "") -> "CandidateSet":
        return self._take(self._in(other), name)

    def difference(self, other: "CandidateSet", name: str = "") -> "CandidateSet":
        return self._take(~self._in(other), name)

    def subset(self, pairs: Sequence[Pair], name: str = "") -> "CandidateSet":
        """A candidate set restricted to *pairs* (all must be members)."""
        missing = [p for p in pairs if tuple(p) not in self]
        if missing:
            raise BlockingError(f"{len(missing)} pairs not in candidate set: {missing[:3]}")
        return self._derive(pairs, name)

    def filter(self, predicate: Callable[[dict, dict], bool], name: str = "") -> "CandidateSet":
        """Keep pairs whose records satisfy *predicate(l_row, r_row)*."""
        ltable, rtable = self.ltable, self.rtable
        kept = [
            i
            for i, (li, ri) in enumerate(zip(self._l_pos.tolist(), self._r_pos.tolist()))
            if predicate(ltable.row(li), rtable.row(ri))
        ]
        return self._take(np.array(kept, dtype=np.int64), name)

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    def to_table(
        self,
        l_attrs: Sequence[str] = (),
        r_attrs: Sequence[str] = (),
        name: str = "",
    ) -> Table:
        """Materialise as a table with ``_id``, the two key columns
        (prefixed ``ltable_``/``rtable_``) and any requested attributes."""
        rows = []
        pairs = zip(self._pair_list(), self._l_pos.tolist(), self._r_pos.tolist())
        for i, ((lid, rid), li, ri) in enumerate(pairs):
            lrow, rrow = self.ltable.row(li), self.rtable.row(ri)
            out: dict[str, Any] = {"_id": i, f"ltable_{self.l_key}": lid, f"rtable_{self.r_key}": rid}
            for a in l_attrs:
                out[f"ltable_{a}"] = lrow[a]
            for a in r_attrs:
                out[f"rtable_{a}"] = rrow[a]
            rows.append(out)
        columns = (
            ["_id", f"ltable_{self.l_key}", f"rtable_{self.r_key}"]
            + [f"ltable_{a}" for a in l_attrs]
            + [f"rtable_{a}" for a in r_attrs]
        )
        return Table.from_rows(rows, columns=columns, name=name or self.name)

    def sample(self, n: int, rng) -> list[Pair]:
        """Uniform random sample of *n* pairs without replacement."""
        if n > len(self):
            raise BlockingError(f"cannot sample {n} pairs from {len(self)}")
        indices = rng.choice(len(self), size=n, replace=False)
        pairs = self._pair_list()
        return [pairs[int(i)] for i in indices]


def full_cross_product(
    ltable: Table, rtable: Table, l_key: str, r_key: str, name: str = "AxB"
) -> CandidateSet:
    """The un-blocked Cartesian product (use only on small tables)."""
    pairs = [
        (lid, rid) for lid in ltable[l_key] for rid in rtable[r_key]
    ]
    return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name)
