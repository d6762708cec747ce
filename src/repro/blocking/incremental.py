"""Incremental (delta) blocking: posting indexes maintained by upserts.

The batch blockers answer "which pairs survive?" by re-reading both whole
tables. This module answers the serving-loop question instead: *given the
pairs we already emitted, what changes when a handful of left records
arrive, change or disappear?* — the paper's Section 10 patch (496
late-arriving records) executed as an index update rather than a rerun.

A :class:`Blocker` that sets ``supports_incremental`` vends a
:class:`IncrementalBlocking` handle via ``blocker.incremental(rtable,
l_key, r_key)``. The handle freezes the *right* table's index (for the
token blockers: the batch layout's inverted index, rid lists in
right-row order, plus the right side's document frequencies) and then
maintains, under ``upsert(records)`` / ``delete(ids)``, each live left
record's blocking state and the kept pairs it currently emits.
``state_snapshot()`` renders the live left records as a canonical
:class:`PostingIndex` on demand, for convergence checks.

``upsert`` is **replace** semantics per record id and emits only the
*delta* pairs for the batch. The token handle runs the batch probe
itself over the batch's records — same tokenization recipe through the
shared :class:`~repro.runtime.cache.TokenCache`, same probe-list hook,
same ``seen``-set insertion sequence, and the same
:mod:`repro.similarity.batch` keep-mask kernel — so the pairs an upsert
emits for a batch are **bit-identical** (values and order) to
``blocker.block_tables(batch_table, rtable)``.
``tests/test_incremental.py`` asserts this differentially,
property-style.

Fault tolerance splits mutation out of computation: ``preview(records)``
computes a :class:`PendingUpsert` (new entries + delta pairs) without
touching the handle, and ``commit(pending)`` applies it; ``upsert`` is
``commit(preview(...))``. :class:`~repro.serving.service.MatchService`
runs the raising-prone downstream stages (extraction, prediction) off
previews and commits only afterwards, so a mid-patch exception leaves
every index uncorrupted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..errors import IncrementalBlockingError
from ..runtime.context import EngineSession, resolve_session
from ..table import Table
from .overlap_family import probe_records, right_index

Pair = tuple[Any, Any]

#: Shared empty posting — never mutated, so it is safe as a probe default.
_EMPTY: dict[Any, None] = {}

#: Sentinel distinguishing "no state for this lid" from a ``None`` payload.
_ABSENT = object()


class PostingIndex:
    """token -> ordered record-id postings.

    Postings are insertion-ordered sets (``dict[rid, None]``): iteration
    replays insertion order, while ``remove`` stays O(tokens) per record
    instead of O(posting length).
    """

    __slots__ = ("_postings",)

    def __init__(self) -> None:
        self._postings: dict[Any, dict[Any, None]] = {}

    def __len__(self) -> int:
        return len(self._postings)

    def __contains__(self, token: Any) -> bool:
        return token in self._postings

    def add(self, rid: Any, tokens: Iterable[Any]) -> None:
        """Add *rid* to every token's posting (idempotent per token)."""
        postings = self._postings
        for token in tokens:
            posting = postings.get(token)
            if posting is None:
                posting = postings[token] = {}
            posting[rid] = None

    def remove(self, rid: Any, tokens: Iterable[Any]) -> None:
        """Drop *rid* from every token's posting; absent entries are no-ops."""
        postings = self._postings
        for token in tokens:
            posting = postings.get(token)
            if posting is None:
                continue
            posting.pop(rid, None)
            if not posting:
                del postings[token]

    def postings(self, token: Any) -> Iterable[Any]:
        """Record ids posted under *token*, in insertion order."""
        return self._postings.get(token, _EMPTY)

    def tokens(self) -> Iterable[Any]:
        """All tokens with a non-empty posting."""
        return self._postings.keys()

    def snapshot(self, token_of: Callable[[Any], Any] | None = None) -> dict[Any, tuple]:
        """Canonical, history-independent view: ``{token: sorted rids}``.

        *token_of* maps interned token ids back to strings so snapshots
        from handles built against different vocabulary states compare
        equal. Rids are sorted (by ``repr`` to tolerate mixed types), so
        delta-evolved and freshly-built indexes — whose posting insertion
        orders legitimately differ — snapshot identically iff they hold
        the same postings.
        """
        decode = token_of if token_of is not None else lambda t: t
        return {
            decode(token): tuple(sorted(posting, key=repr))
            for token, posting in self._postings.items()
        }


@dataclass(frozen=True)
class PendingUpsert:
    """A computed-but-uncommitted upsert batch.

    ``order`` lists the batch's record ids (table row order); ``entries``
    holds each surviving record's new blocking state (records whose cell
    is missing or tokenizes to nothing are absent — committing them just
    clears any previous state); ``pairs`` maps each surviving record to
    the rids it now pairs with; ``delta`` is the flat pair list in batch
    emission order — bit-identical to what ``block_tables`` would emit
    for the batch table.
    """

    order: tuple[Any, ...]
    entries: dict[Any, Any]
    pairs: dict[Any, tuple[Any, ...]]
    delta: tuple[Pair, ...]


class IncrementalBlocking:
    """Base delta-maintained blocking handle (one blocker, fixed rtable).

    Subclasses implement :meth:`preview` (pure computation) and the
    ``_install``/``_discard`` state hooks; everything else — commit,
    replace-on-upsert, graceful deletes, pair/state accessors — is shared.
    """

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
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self._pairs: dict[Any, tuple[Any, ...]] = {}

    # -- computation ---------------------------------------------------

    def preview(self, records: "Table | Sequence[Mapping[str, Any]]") -> PendingUpsert:
        """Compute an upsert's new state + delta pairs without mutating."""
        raise NotImplementedError

    def _as_table(self, records: "Table | Sequence[Mapping[str, Any]]") -> Table | None:
        """Coerce an upsert batch to a Table (``None`` for an empty batch)."""
        if isinstance(records, Table):
            return records if len(records) else None
        rows = list(records)
        if not rows:
            return None
        return Table.from_rows(rows, name="upsert")

    def _validate_batch(self, table: Table) -> None:
        """Check the batch only: the subclass constructors checked the
        fixed right table once, so a preview costs O(batch)."""
        self.blocker._validate_table(table, self.l_key, self.blocker.l_attr)

    # -- mutation ------------------------------------------------------

    def commit(self, pending: PendingUpsert) -> list[Pair]:
        """Apply a previewed upsert; returns its delta pairs."""
        for lid in pending.order:
            self._discard(lid)
            state = pending.entries.get(lid, _ABSENT)
            if state is not _ABSENT:
                self._install(lid, state, pending.pairs.get(lid, ()))
        return list(pending.delta)

    def upsert(self, records: "Table | Sequence[Mapping[str, Any]]") -> list[Pair]:
        """Insert-or-replace a batch of left records; returns delta pairs."""
        return self.commit(self.preview(records))

    def delete(self, ids: Iterable[Any]) -> list[Pair]:
        """Drop left records by id; absent ids are graceful no-ops.

        Returns the retired pairs (the deleted records' former emissions).
        """
        retired: list[Pair] = []
        for lid in ids:
            retired.extend((lid, rid) for rid in self._discard(lid))
        return retired

    def _install(self, lid: Any, state: Any, kept: tuple[Any, ...]) -> None:
        raise NotImplementedError

    def _discard(self, lid: Any) -> tuple[Any, ...]:
        """Remove *lid*'s state; returns the rids it used to pair with."""
        raise NotImplementedError

    # -- accessors -----------------------------------------------------

    def pairs_for(self, lid: Any) -> tuple[Any, ...]:
        """Rids the live record *lid* currently pairs with (may be empty)."""
        return self._pairs.get(lid, ())

    def pairs(self) -> list[Pair]:
        """All live pairs, grouped by left record in insertion order."""
        return [(lid, rid) for lid, rids in self._pairs.items() for rid in rids]

    def pair_state(self) -> dict[Any, tuple[Any, ...]]:
        """``{lid: kept rids}`` — per-record, so it compares equal between
        a delta-evolved handle and a freshly-built one regardless of the
        upsert history's insertion order."""
        return dict(self._pairs)

    def state_snapshot(self) -> dict[str, Any]:
        """Canonical full-state view for differential/convergence tests."""
        raise NotImplementedError


class _TokenIncrementalBlocking(IncrementalBlocking):
    """Delta handle for the overlap-family blockers
    (:mod:`repro.blocking.overlap_family`).

    Freezes the right table's inverted index and document frequencies at
    construction, built by the batch layout's own
    :func:`~repro.blocking.overlap_family.right_index`. An upsert batch is
    tokenized through the same
    :meth:`~repro.runtime.cache.TokenCache.token_ids_by_id` recipe (rows
    whose cell is missing or tokenizes to nothing are dropped, i.e.
    committing them clears previous state), cut into probe lists by the
    blocker's hook and probed by the shared
    :func:`~repro.blocking.overlap_family.probe_records`. The overlap
    blocker ranks only the batch's vocabulary, but its ``(doc_freq,
    token)`` key is a total order, so every record's prefix comes out as
    in a whole-table run.
    """

    def __init__(
        self,
        blocker: Any,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> None:
        super().__init__(blocker, rtable, l_key, r_key, session=session)
        self._session = resolve_session(session)
        self._cache = self._session.token_cache
        blocker._validate_table(rtable, r_key, blocker.r_attr)
        r_entries = self._cache.token_ids_by_id(
            rtable, blocker.r_attr, r_key, blocker.tokenizer, blocker.normalizer
        )
        self._index, self._doc_freq = right_index(r_entries)
        self._r_sets = {rid: entry.ids for rid, entry in r_entries.items()}
        self._entries: dict[Any, Any] = {}

    def preview(self, records: "Table | Sequence[Mapping[str, Any]]") -> PendingUpsert:
        table = self._as_table(records)
        if table is None:
            return PendingUpsert((), {}, {}, ())
        self._validate_batch(table)
        blocker = self.blocker
        cache = self._cache
        l_entries = cache.token_ids_by_id(
            table, blocker.l_attr, self.l_key, blocker.tokenizer, blocker.normalizer
        )
        lids, probes, entries = blocker._left_probes(
            l_entries, self._doc_freq, frozenset(), self._session
        )
        delta = probe_records(
            lids,
            probes,
            [entry.ids for entry in entries],
            self._r_sets,
            self._index,
            blocker._keep_mask,
            blocker.threshold,
        )
        kept: dict[Any, list[Any]] = {lid: [] for lid in l_entries}
        for lid, rid in delta:
            kept[lid].append(rid)
        pairs = {lid: tuple(rids) for lid, rids in kept.items()}
        return PendingUpsert(tuple(table[self.l_key]), dict(l_entries), pairs, tuple(delta))

    def _install(self, lid: Any, state: Any, kept: tuple[Any, ...]) -> None:
        self._entries[lid] = state
        self._pairs[lid] = tuple(kept)

    def _discard(self, lid: Any) -> tuple[Any, ...]:
        self._entries.pop(lid, None)
        return self._pairs.pop(lid, ())

    def state_snapshot(self) -> dict[str, Any]:
        index = PostingIndex()
        for lid, entry in self._entries.items():
            index.add(lid, entry.probe)
        return {
            "index": index.snapshot(self._cache.vocabulary.token_of),
            "pairs": self.pair_state(),
        }


class AttrEquivalenceIncremental(IncrementalBlocking):
    """Delta handle for
    :class:`~repro.blocking.attr_equivalence.AttrEquivalenceBlocker`.

    The "posting index" degenerates to the equi-join hash index
    (preprocessed value -> rids in right-row order); a record's state is
    its preprocessed value. Missing values (including preprocessors
    returning ``None``) never join — upserting such a record clears any
    previous state, exactly like the batch path dropping the row.
    """

    def __init__(
        self,
        blocker: Any,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> None:
        super().__init__(blocker, rtable, l_key, r_key, session=session)
        from ..table.column import is_missing

        blocker._validate_table(rtable, r_key, blocker.r_attr)
        r_values = blocker._values(rtable, blocker.r_attr, blocker.r_preprocess)
        self._r_index: dict[Any, list[Any]] = {}
        for rid, value in zip(rtable[r_key], r_values):
            if not is_missing(value):
                self._r_index.setdefault(value, []).append(rid)
        self._values: dict[Any, Any] = {}

    def preview(self, records: "Table | Sequence[Mapping[str, Any]]") -> PendingUpsert:
        from ..table.column import is_missing

        table = self._as_table(records)
        if table is None:
            return PendingUpsert((), {}, {}, ())
        self._validate_batch(table)
        blocker = self.blocker
        l_values = blocker._values(table, blocker.l_attr, blocker.l_preprocess)
        entries: dict[Any, Any] = {}
        pairs: dict[Any, tuple[Any, ...]] = {}
        delta: list[Pair] = []
        for lid, value in zip(table[self.l_key], l_values):
            if is_missing(value):
                continue
            kept = tuple(self._r_index.get(value, ()))
            entries[lid] = value
            pairs[lid] = kept
            delta.extend((lid, rid) for rid in kept)
        return PendingUpsert(tuple(table[self.l_key]), entries, pairs, tuple(delta))

    def _install(self, lid: Any, state: Any, kept: tuple[Any, ...]) -> None:
        self._values[lid] = state
        self._pairs[lid] = tuple(kept)

    def _discard(self, lid: Any) -> tuple[Any, ...]:
        self._values.pop(lid, None)
        return self._pairs.pop(lid, ())

    def state_snapshot(self) -> dict[str, Any]:
        values = PostingIndex()
        for lid, value in self._values.items():
            values.add(lid, (value,))
        return {"index": values.snapshot(), "pairs": self.pair_state()}
