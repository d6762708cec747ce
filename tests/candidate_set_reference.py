"""A test oracle for :class:`repro.blocking.CandidateSet`.

:class:`ReferenceCandidateSet` is the list-and-set implementation the
columnar candidate set replaced, kept verbatim apart from its name: every
pair is validated with two dict lookups and stored as a tuple, and the set
algebra walks those tuples. ``tests/test_candidate_set_reference.py``
pins the columnar set to it, order included.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import BlockingError
from repro.table import Table

Pair = tuple[Any, Any]


def row_index(keys: Sequence[Any]) -> dict[Any, int]:
    """Key value -> row position (a key column's values are unique)."""
    return {v: i for i, v in enumerate(keys)}


class ReferenceCandidateSet:
    """The tuple implementation of a candidate set: a list of (left-id,
    right-id) pairs in first-seen order, a set of the same tuples, and a
    key -> row index per table.

    Parameters
    ----------
    ltable, rtable:
        The base tables the pair ids refer to.
    l_key, r_key:
        Key columns of the base tables.
    pairs:
        Iterable of (left-id, right-id); duplicates are dropped, first-seen
        order is preserved (so sampling is deterministic given a seed).
    name:
        Optional label, e.g. ``"C2"``.
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
        self._bind(
            ltable, rtable, l_key, r_key,
            row_index(ltable[l_key]), row_index(rtable[r_key]), pairs, name,
        )

    @classmethod
    def _over(
        cls, ltable: Table, rtable: Table, l_key: str, r_key: str,
        l_index: dict[Any, int], r_index: dict[Any, int],
        pairs: Iterable[Pair] = (), name: str = "",
    ) -> "ReferenceCandidateSet":
        """A set over prebuilt key indexes (:func:`row_index` of the key
        columns; shared, not copied), so building it costs O(pairs), not
        O(tables). Derived sets reuse their parent's indexes, and a
        :class:`~repro.serving.MatchService` indexes its fixed right table
        once."""
        self = cls.__new__(cls)
        self._bind(ltable, rtable, l_key, r_key, l_index, r_index, pairs, name)
        return self

    def _bind(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str,
        l_index: dict[Any, int], r_index: dict[Any, int],
        pairs: Iterable[Pair], name: str,
    ) -> None:
        self.ltable = ltable
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self.name = name
        self._l_index = l_index
        self._r_index = r_index
        self._pairs: list[Pair] = []
        self._seen: set[Pair] = set()
        for pair in pairs:
            self.add(pair)

    def _derive(self, pairs: Iterable[Pair], name: str = "") -> "ReferenceCandidateSet":
        """A new set of *pairs* over this set's tables and key indexes."""
        return ReferenceCandidateSet._over(
            self.ltable, self.rtable, self.l_key, self.r_key,
            self._l_index, self._r_index, pairs, name,
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, pair: Pair) -> bool:
        """Add a pair; returns False when it was already present."""
        lid, rid = pair
        if lid not in self._l_index:
            raise BlockingError(f"left id {lid!r} not present in {self.ltable.name!r}")
        if rid not in self._r_index:
            raise BlockingError(f"right id {rid!r} not present in {self.rtable.name!r}")
        key = (lid, rid)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._pairs.append(key)
        return True

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self._pairs)

    def __contains__(self, pair: Pair) -> bool:
        return tuple(pair) in self._seen

    @property
    def pairs(self) -> list[Pair]:
        return list(self._pairs)

    def pair_set(self) -> set[Pair]:
        return set(self._seen)

    @property
    def l_row_index(self) -> dict[Any, int]:
        """Left record id -> row position in ``ltable`` (shared; don't mutate).

        Columnar consumers (kernel feature extraction) use this to read
        attribute values straight out of the table columns instead of
        materializing a row dict per pair via :meth:`record_pair`.
        """
        return self._l_index

    @property
    def r_row_index(self) -> dict[Any, int]:
        """Right record id -> row position in ``rtable`` (shared; don't mutate)."""
        return self._r_index

    def left_row(self, lid: Any) -> dict[str, Any]:
        """Full left record for an id."""
        return self.ltable.row(self._l_index[lid])

    def right_row(self, rid: Any) -> dict[str, Any]:
        """Full right record for an id."""
        return self.rtable.row(self._r_index[rid])

    def record_pair(self, pair: Pair) -> tuple[dict[str, Any], dict[str, Any]]:
        """(left record, right record) for a candidate pair."""
        lid, rid = pair
        return self.left_row(lid), self.right_row(rid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "candidates"
        return f"<ReferenceCandidateSet {label!r}: {len(self)} pairs>"

    # ------------------------------------------------------------------
    # set algebra (all return new candidate sets over the same tables)
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "ReferenceCandidateSet") -> None:
        if (
            self.ltable is not other.ltable
            or self.rtable is not other.rtable
            or self.l_key != other.l_key
            or self.r_key != other.r_key
        ):
            raise BlockingError(
                "candidate sets must share base tables and keys to combine"
            )

    def union(self, other: "ReferenceCandidateSet", name: str = "") -> "ReferenceCandidateSet":
        self._check_compatible(other)
        return self._derive(self._pairs + other._pairs, name)

    def intersection(self, other: "ReferenceCandidateSet", name: str = "") -> "ReferenceCandidateSet":
        self._check_compatible(other)
        return self._derive([p for p in self._pairs if p in other._seen], name)

    def difference(self, other: "ReferenceCandidateSet", name: str = "") -> "ReferenceCandidateSet":
        self._check_compatible(other)
        return self._derive([p for p in self._pairs if p not in other._seen], name)

    def subset(self, pairs: Sequence[Pair], name: str = "") -> "ReferenceCandidateSet":
        """A candidate set restricted to *pairs* (all must be members)."""
        missing = [p for p in pairs if tuple(p) not in self._seen]
        if missing:
            raise BlockingError(f"{len(missing)} pairs not in candidate set: {missing[:3]}")
        return self._derive(pairs, name)

    def filter(self, predicate: Callable[[dict, dict], bool], name: str = "") -> "ReferenceCandidateSet":
        """Keep pairs whose records satisfy *predicate(l_row, r_row)*."""
        kept = [p for p in self._pairs if predicate(*self.record_pair(p))]
        return self._derive(kept, name)

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
        for i, (lid, rid) in enumerate(self._pairs):
            lrow, rrow = self.record_pair((lid, rid))
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
        if n > len(self._pairs):
            raise BlockingError(f"cannot sample {n} pairs from {len(self._pairs)}")
        indices = rng.choice(len(self._pairs), size=n, replace=False)
        return [self._pairs[int(i)] for i in indices]
