"""Token-hash-range sharded blocking over the persistent worker pool.

The batch overlap blockers build one inverted index in the parent process
and ship the *whole* index to every worker chunk. That is fine at
case-study scale and fatal at a million rows: the posting dict dominates
RSS, and pickling it per chunk dominates wall clock. This module turns the
layout inside out — **shard the postings, not the records**:

* the token-id space is partitioned into ``shards`` disjoint ranges by a
  64-bit splitmix64 hash of the token id (:func:`_owner_table`);
* each worker receives only *its* range's slice of the probe positions and
  posting entries — five integer arrays, pre-partitioned in the parent
  with one vectorized pass over the
  :class:`~repro.runtime.columnar.TokenColumn` CSR buffers — so the bytes
  shipped scale with the shard's share of the data (nothing is duplicated
  across shards);
* the worker builds its posting shard locally (the dict never crosses the
  wire), probes its positions, and returns its raw intersection hits as
  flat arrays;
* the parent merges shard hits back into ``block_tables``'s exact
  emission order — claiming each candidate at its globally first hitting
  prefix position, then verifying claims with one batch keep-mask kernel
  call over the parent's zero-copy token columns.

The probe tokens and the keep-mask come from the blocker's own hooks
(:mod:`repro.blocking.overlap_family`); only the execution layout
differs. Bit-identity with the batch layout is a hard contract, asserted
property-style in ``tests/test_sharded_blocking.py``. Three invariants
carry it:

1. **Same candidates.** A token's full posting list lives in exactly one
   shard, so probing every owned position touches the same (token, row)
   pairs the single index would; walking the merged hit groups in global
   ``(record, position)`` order reproduces the first-hit structure of
   the serial ``seen``-set build (later cross-shard re-hits of a claimed
   row are dropped as duplicates), and size caps
   (:class:`~repro.blocking.policy.BlockSizePolicy`) are applied to
   complete posting lists in the parent — before the split — so both
   paths skip identical blocks.
2. **Same order.** The batch layout emits each left record's pairs in
   the *iteration order of its ``seen`` set*, which is a function of the
   distinct-insertion sequence (rid objects inserted at first hit, probe
   positions in prefix order, posting lists in right-row order) —
   duplicate ``add`` calls are no-ops for a set's internals. The merge
   replays exactly that distinct-insertion sequence into a fresh set per
   record, so the rebuilt set iterates identically.
3. **Same verification.** The keep-mask kernels are per-element, so
   verifying the merged claim list in the parent equals the batch
   layout's per-chunk calls.

The serial fallback is the same worker function run inline by
``session.map_chunks`` — bit-identical by construction, not by test.

Sharding stays a layout of its own rather than the batch path's
one-shard case: one shard still pays the partition and merge passes,
which made it slower than the batch layout at case-study scale (numbers
in ``docs/blocking.md``).
"""

from __future__ import annotations

from array import array
from typing import Any, Callable

import numpy as np

from ..errors import BlockingError
from ..runtime.columnar import TokenColumn
from ..runtime.context import EngineSession
from ..runtime.instrument import count, stage
from ..text.intern import ID_TYPECODE
from .overlap import OverlapBlocker
from .overlap_coefficient import OverlapCoefficientBlocker
from .overlap_family import Pair
from .policy import capped_keys

#: Default shard count — sized for the 4-worker pool the benchmarks use
#: (2 shards per worker keeps the pool busy when ranges are skewed).
DEFAULT_SHARDS = 8

MAX_SHARDS = 64


def _splitmix64_np(x: "np.ndarray") -> "np.ndarray":
    """The splitmix64 finalizer (public-domain constants) over ``uint64``."""
    x = (x + np.uint64(0x9E3779B97F4A7C15))
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _owner_table(max_id: int, shards: int) -> "np.ndarray":
    """``owner[tid]``: the shard owning token id *tid*, for every id
    ``<= max_id`` (splitmix64 of the id, modulo *shards*).

    One vectorized pass over the dense id space; token ids are small
    dense ints so the table is tiny relative to the CSR buffers.
    """
    ids = np.arange(max_id + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        hashed = _splitmix64_np(ids)
    return (hashed % np.uint64(shards)).astype(np.uint8)


def _as_id_array(values: "np.ndarray") -> "array[int]":
    """A numpy int array as the compact ``array('i')`` wire format."""
    out = array(ID_TYPECODE)
    out.frombytes(np.ascontiguousarray(values, dtype=np.int32).tobytes())
    return out


def _np_i32(buf: "array[int]") -> "np.ndarray":
    """Zero-copy ``int32`` view of an ``array('i')`` (empty-safe)."""
    if len(buf) == 0:
        return np.empty(0, dtype=np.int32)
    return np.frombuffer(buf, dtype=np.int32)


def _shard_probe(
    probe_rec: "array[int]",
    probe_pos: "array[int]",
    probe_tid: "array[int]",
    post_row: "array[int]",
    post_tid: "array[int]",
) -> tuple:
    """One shard's worth of probing (module-level: runs in workers).

    Builds this hash range's posting shard from its pre-partitioned
    ``(row, tid)`` slice of the right column's CSR data and probes the
    owned probe positions in ``(record, position)`` order, emitting each
    hit row at its first hitting position *within this shard*
    (``local_seen``). Cross-shard first-hit resolution and candidate
    verification both happen in the parent's merge — the worker needs
    nothing but these five partitioned integer arrays, so the payload
    crossing the wire scales with the shard's share of the data instead
    of duplicating the token columns into every shard.

    Returns flat arrays only: ``(group_rec, group_pos, group_len, hits)``.
    """
    postings: dict[int, list[int]] = {}
    for row, tid in zip(post_row, post_tid):
        lst = postings.get(tid)
        if lst is None:
            lst = postings[tid] = []
        lst.append(row)
    group_rec = array(ID_TYPECODE)
    group_pos = array(ID_TYPECODE)
    group_len = array(ID_TYPECODE)
    hits = array(ID_TYPECODE)
    current_rec = -1
    local_seen: set[int] = set()
    for rec, pos, tid in zip(probe_rec, probe_pos, probe_tid):
        plist = postings.get(tid)
        if not plist:
            continue
        if rec != current_rec:
            current_rec = rec
            local_seen = set()
        emitted = 0
        for row in plist:
            if row in local_seen:
                continue
            local_seen.add(row)
            hits.append(row)
            emitted += 1
        if emitted:
            group_rec.append(rec)
            group_pos.append(pos)
            group_len.append(emitted)
    return group_rec, group_pos, group_len, hits


def _merge_shard_deltas(
    results: list[tuple],
    lids: list[Any],
    rids: tuple[Any, ...],
    l_col: TokenColumn,
    r_col: TokenColumn,
    keep_mask: Callable,
    threshold: Any,
) -> list[Pair]:
    """Merge shard hit-deltas into ``block_tables``'s emission order.

    Groups — one per probed ``(record, position)`` with hits, unique
    across shards because every position has exactly one owner — are
    sorted globally by ``(record, position)``; walking them in that order
    claims each right row at its globally-first hitting position (a row
    hit again at a later position owned by another shard is a duplicate
    and is dropped here). The claimed candidates are verified with one
    batch keep-mask call over the parent's zero-copy token columns, and
    each record's claimed rids are re-inserted into a fresh set in claim
    order. That replays the batch layout's ``seen`` set distinct-insertion
    sequence exactly (duplicate ``add`` calls are no-ops there too), so
    iterating the rebuilt set emits the same pairs in the same order.
    """
    rec_parts = [np.asarray(_np_i32(res[0])) for res in results]
    pos_parts = [np.asarray(_np_i32(res[1])) for res in results]
    if not rec_parts or not any(len(p) for p in rec_parts):
        return []
    src_parts = [
        np.full(len(part), s, dtype=np.int32) for s, part in enumerate(rec_parts)
    ]
    start_parts = []
    for res in results:
        lens = _np_i32(res[2]).astype(np.int64)
        starts = np.zeros(len(lens), dtype=np.int64)
        if len(lens) > 1:
            np.cumsum(lens[:-1], out=starts[1:])
        start_parts.append(starts)
    all_rec = np.concatenate(rec_parts)
    all_pos = np.concatenate(pos_parts)
    all_len = np.concatenate([_np_i32(res[2]) for res in results])
    all_src = np.concatenate(src_parts)
    all_start = np.concatenate(start_parts)
    order = np.lexsort((all_pos, all_rec))

    rec_rows: list[tuple[int, list[int]]] = []
    current = -1
    claimed: set[int] = set()
    rows: list[int] = []
    for g in order:
        rec = int(all_rec[g])
        if rec != current:
            current = rec
            claimed = set()
            rows = []
            rec_rows.append((rec, rows))
        hits_s = results[int(all_src[g])][3]
        start = int(all_start[g])
        for off in range(start, start + int(all_len[g])):
            row = hits_s[off]
            if row in claimed:
                continue
            claimed.add(row)
            rows.append(row)

    l_sets = l_col.sets()
    r_sets = r_col.sets()
    cand_a: list[Any] = []
    cand_b: list[Any] = []
    for rec, rows in rec_rows:
        a = l_sets[rec]
        for row in rows:
            cand_a.append(a)
            cand_b.append(r_sets[row])
    keep = keep_mask(cand_a, cand_b, threshold)

    pairs: list[Pair] = []
    i = 0
    for rec, rows in rec_rows:
        lid = lids[rec]
        seen: set[Any] = set()
        flags: dict[Any, bool] = {}
        for row in rows:
            rid = rids[row]
            seen.add(rid)
            flags[rid] = bool(keep[i])
            i += 1
        for rid in seen:
            if flags[rid]:
                pairs.append((lid, rid))
    return pairs


def _validate_shards(shards: int) -> int:
    if not 1 <= shards <= MAX_SHARDS:
        raise BlockingError(f"shards must be in [1, {MAX_SHARDS}], got {shards}")
    return shards


class _ShardedLayout:
    """Mixin replacing a token blocker's batch probe with the shard layout."""

    shards: int

    def _probe(
        self,
        session: EngineSession,
        l_entries: dict[Any, Any],
        r_entries: dict[Any, Any],
    ) -> list[Pair]:
        instrumentation = session.instrumentation
        with stage(instrumentation, "index"):
            rids = tuple(r_entries)
            r_col = TokenColumn.from_entries(r_entries.values())
            r_offsets, r_data, _ = r_col.csr()
            r_flat = _np_i32(r_data)
            # CSR rows are the records' sorted unique ids, so the id counts
            # are the document frequencies the batch layout's index holds.
            freq = np.bincount(r_flat) if len(r_flat) else np.zeros(0, dtype=np.int64)
            present = np.flatnonzero(freq)
            doc_freq = dict(zip(present.tolist(), freq[present].tolist()))
            capped = capped_keys(doc_freq, self.block_size_policy, instrumentation)
            lids, probes, entries = self._left_probes(
                l_entries, doc_freq, capped, session
            )
        if not lids:
            count(instrumentation, "pairs_out", 0)
            return []
        with stage(instrumentation, "shard"):
            shards = self.shards
            l_col = TokenColumn.from_entries(entries)
            prefix_offsets = array(ID_TYPECODE, [0])
            prefix_data = array(ID_TYPECODE)
            for p in probes:
                prefix_data.extend(p)
                prefix_offsets.append(len(prefix_data))
            pf = _np_i32(prefix_data)
            max_tid = max(len(freq) - 1, int(pf.max()) if len(pf) else 0, 0)
            owner = _owner_table(max_tid, shards)
            off_np = _np_i32(prefix_offsets).astype(np.int64)
            seg_lens = np.diff(off_np)
            probe_rec = np.repeat(
                np.arange(len(lids), dtype=np.int32), seg_lens
            )
            probe_pos = (
                np.arange(len(pf), dtype=np.int32)
                - np.repeat(off_np[:-1], seg_lens).astype(np.int32)
            )
            probe_owner = owner[pf] if len(pf) else np.empty(0, dtype=np.uint8)
            # Right postings, pre-partitioned: CSR order is (right-row,
            # sorted id) — exactly the insertion order of the single
            # index — and boolean masks preserve it per shard.
            r_off_np = _np_i32(r_offsets).astype(np.int64)
            r_rows = np.repeat(
                np.arange(len(rids), dtype=np.int32), np.diff(r_off_np)
            )
            post_keep = np.ones(len(r_flat), dtype=bool)
            if capped:
                oversized = np.zeros(max_tid + 1, dtype=bool)
                oversized[np.fromiter(capped, dtype=np.int64)] = True
                post_keep = ~oversized[r_flat]
            r_owner = owner[r_flat] if len(r_flat) else np.empty(0, dtype=np.uint8)
            payloads = []
            sizes = []
            for s in range(shards):
                pmask = probe_owner == s
                rmask = (r_owner == s) & post_keep
                payloads.append(
                    (
                        _as_id_array(probe_rec[pmask]),
                        _as_id_array(probe_pos[pmask]),
                        _as_id_array(pf[pmask]),
                        _as_id_array(r_rows[rmask]),
                        _as_id_array(r_flat[rmask]),
                    )
                )
                sizes.append(int(pmask.sum()))
            count(instrumentation, "shards", shards)
        with stage(instrumentation, "probe"):
            results = session.map_chunks(_shard_probe, payloads, sizes=sizes)
        with stage(instrumentation, "merge"):
            pairs = _merge_shard_deltas(
                results, lids, rids, l_col, r_col, self._keep_mask, self.threshold
            )
            count(instrumentation, "pairs_out", len(pairs))
        return pairs


class ShardedOverlapBlocker(_ShardedLayout, OverlapBlocker):
    """:class:`~repro.blocking.overlap.OverlapBlocker`, sharded.

    Emits bit-identical pairs (values and order); only the execution
    layout differs. Extra parameters:

    shards:
        Number of token-hash ranges (and worker payloads). More shards
        than workers keeps the pool busy under range skew.
    block_size_policy:
        Optional :class:`~repro.blocking.policy.BlockSizePolicy` (or bare
        int cap) — posting lists over the cap are skipped at probe time.
    """

    short_name = "sharded_overlap"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: int = 1,
        tokenizer: Any = None,
        normalizer: Any = None,
        *,
        shards: int = DEFAULT_SHARDS,
        block_size_policy: Any = None,
    ) -> None:
        kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}
        super().__init__(
            l_attr,
            r_attr,
            threshold,
            normalizer=normalizer,
            block_size_policy=block_size_policy,
            **kwargs,
        )
        self.shards = _validate_shards(shards)


class ShardedOverlapCoefficientBlocker(_ShardedLayout, OverlapCoefficientBlocker):
    """:class:`~repro.blocking.overlap_coefficient.OverlapCoefficientBlocker`,
    sharded. Same parameters and bit-identity contract as
    :class:`ShardedOverlapBlocker`.
    """

    short_name = "sharded_overlap_coeff"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.7,
        tokenizer: Any = None,
        normalizer: Any = None,
        *,
        shards: int = DEFAULT_SHARDS,
        block_size_policy: Any = None,
    ) -> None:
        kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}
        super().__init__(
            l_attr,
            r_attr,
            threshold,
            normalizer=normalizer,
            block_size_policy=block_size_policy,
            **kwargs,
        )
        self.shards = _validate_shards(shards)
