"""Locality-sensitive-hashing blockers: MinHash-LSH and SimHash.

The overlap family is exact — every pair sharing enough tokens is found —
but its cost tracks posting-list lengths, and at million-row scale even
capped posting lists generate candidates quadratically in block size. The
LSH family trades exactness for *hash-bucket* candidate generation: two
records become a candidate only when a randomized signature collides, so
the candidate count tracks the number of genuinely similar pairs instead
of the token-frequency distribution.

Both blockers hash **interned token ids** (the PR-4 vocabulary substrate)
with splitmix64 — from scratch, no library dependencies — vectorized over
the :class:`~repro.runtime.columnar.TokenColumn` CSR buffers:

* :class:`MinHashLSHBlocker` — ``bands × rows`` MinHash permutations
  (``min`` over ``splitmix64(tid ^ perm_salt)`` per record), banded into
  bucket keys. Colliding pairs are verified with exact Jaccard
  (:func:`repro.similarity.batch.jaccard_batch`) against ``threshold``.
  With ``b`` bands of ``r`` rows, a pair of Jaccard ``s`` becomes a
  candidate with probability ``1 - (1 - s^r)^b`` — the S-curve to tune:
  the default ``32 × 2`` puts the steep part near ``s ≈ 0.18`` and
  catches ``s = 0.33`` pairs with p ≈ 0.975.
* :class:`SimHashBlocker` — one 64-bit simhash per record (sign of the
  per-bit ±1 vote sum over token hashes), cut into ``max_hamming + 1``
  bit-ranges: by pigeonhole, any pair within the Hamming radius collides
  on at least one complete range. Exact Hamming distance (xor +
  popcount) verifies every collision, so the blocker is *exact over the
  signatures* — approximation enters only through simhashing itself.

Determinism: signatures are pure functions of ``(token ids, seed)``, and
candidates are emitted per left record **in left-row order**, buckets
probed in band order, bucket members in right-row order, deduplicated by
an insertion-ordered dict — identical output every run, serial or not.
(The overlap family's set-iteration emission contract does not apply
here; these blockers define their own, simpler order.)

Size caps (:class:`~repro.blocking.policy.BlockSizePolicy`) apply to LSH
buckets exactly as to posting lists: oversized buckets are skipped at
probe time and tallied as ``capped_blocks`` / ``capped_postings``.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import BlockingError
from ..runtime.columnar import TokenColumn
from ..runtime.context import EngineSession
from ..runtime.instrument import count, stage
from ..similarity import batch
from ..table import Table
from ..text.tokenizers import Tokenizer, whitespace
from .base import Blocker
from .candidate_set import CandidateSet
from .policy import BlockSizePolicy, capped_keys, resolve_policy
from .sharded import _splitmix64_np

Normalizer = Callable[[Any], Any]

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """Scalar :func:`~repro.blocking.sharded._splitmix64_np`, for seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)

#: Rows hashed per vectorized signature pass — bounds the temporaries to
#: a few hundred MB at the widest default configuration.
_SIG_CHUNK = 65536


def _csr_arrays(entries: "list[Any]") -> tuple["np.ndarray", "np.ndarray"]:
    """(offsets, flat ids) for a list of interned-token entries."""
    col = TokenColumn.from_entries(entries)
    offsets, data, _ = col.csr()
    return (
        np.frombuffer(offsets, dtype=np.int32).astype(np.int64),
        np.frombuffer(data, dtype=np.int32).astype(np.uint64)
        if len(data)
        else np.empty(0, dtype=np.uint64),
    )


def _perm_salts(seed: int, num_perms: int) -> "np.ndarray":
    """One splitmix64-derived salt per MinHash permutation."""
    base = _splitmix64(seed & _MASK64)
    salts = np.empty(num_perms, dtype=np.uint64)
    x = np.uint64(base)
    for i in range(num_perms):
        with np.errstate(over="ignore"):
            x = _splitmix64_np(x + np.uint64(0x9E3779B97F4A7C15))
        salts[i] = x
    return salts


def _minhash_signatures(
    offsets: "np.ndarray", flat: "np.ndarray", salts: "np.ndarray"
) -> "np.ndarray":
    """``(n_rows, n_perms)`` uint64 MinHash matrix over CSR token ids.

    Rows are processed in :data:`_SIG_CHUNK` batches; each permutation is
    one vectorized splitmix64 pass plus a ``minimum.reduceat``. Empty
    rows never reach here (the token cache drops them).
    """
    n = len(offsets) - 1
    sig = np.empty((n, len(salts)), dtype=np.uint64)
    for start in range(0, n, _SIG_CHUNK):
        stop = min(start + _SIG_CHUNK, n)
        lo, hi = offsets[start], offsets[stop]
        chunk = flat[lo:hi]
        starts = (offsets[start : stop + 1] - lo).astype(np.int64)
        with np.errstate(over="ignore"):
            for p, salt in enumerate(salts):
                hashed = _splitmix64_np(chunk ^ salt)
                sig[start:stop, p] = np.minimum.reduceat(hashed, starts[:-1])
    return sig


def _band_keys(sig: "np.ndarray", bands: int, rows: int) -> "np.ndarray":
    """``(n_rows, bands)`` uint64 bucket keys by folding each band's rows."""
    n = sig.shape[0]
    keys = np.empty((n, bands), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for b in range(bands):
            acc = np.full(n, _splitmix64(b + 0x5EED), dtype=np.uint64)
            for r in range(rows):
                acc = _splitmix64_np(acc ^ sig[:, b * rows + r])
            keys[:, b] = acc
    return keys


def _simhash_signatures(
    offsets: "np.ndarray", flat: "np.ndarray", seed: int
) -> "np.ndarray":
    """One 64-bit simhash per CSR row: sign of the per-bit ±1 vote sums."""
    n = len(offsets) - 1
    out = np.empty(n, dtype=np.uint64)
    salt = np.uint64(_splitmix64(seed & _MASK64) | 1)
    for start in range(0, n, _SIG_CHUNK):
        stop = min(start + _SIG_CHUNK, n)
        lo, hi = offsets[start], offsets[stop]
        with np.errstate(over="ignore"):
            hashed = _splitmix64_np(flat[lo:hi] ^ salt)
        # (nnz, 64) sign matrix: +1 where the hash bit is set, -1 where
        # clear; reduceat sums votes per row in one pass.
        bits = (
            np.unpackbits(hashed.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
            .astype(np.int32)
        )
        votes = np.add.reduceat(bits * 2 - 1, (offsets[start:stop] - lo).astype(np.int64), axis=0)
        packed = np.packbits((votes > 0).astype(np.uint8), axis=1, bitorder="little")
        out[start:stop] = packed.view(np.uint64).reshape(-1)
    return out


def _hamming64(a: "np.ndarray", b: "np.ndarray") -> "np.ndarray":
    return np.bitwise_count(a ^ b)


class _LSHBlockerBase(Blocker):
    """Shared skeleton: tokenize → signatures → buckets → probe → verify."""

    supports_incremental = False

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        *,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        seed: int = 0,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        self.l_attr = l_attr
        self.r_attr = r_attr
        self.tokenizer = tokenizer
        self.normalizer = normalizer
        self.seed = seed
        self.block_size_policy = resolve_policy(block_size_policy)

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        self._validate_inputs(
            ltable, rtable, l_key, r_key, [(ltable, self.l_attr), (rtable, self.r_attr)]
        )
        instrumentation = session.instrumentation
        cache = session.token_cache
        hits_before = cache.hits
        with stage(instrumentation, "tokenize"):
            l_entries = cache.token_ids_by_id(
                ltable, self.l_attr, l_key, self.tokenizer, self.normalizer
            )
            r_entries = cache.token_ids_by_id(
                rtable, self.r_attr, r_key, self.tokenizer, self.normalizer
            )
            count(instrumentation, "l_records", len(l_entries))
            count(instrumentation, "r_records", len(r_entries))
            count(instrumentation, "cache_hits", cache.hits - hits_before)
        lids = list(l_entries.keys())
        rids = list(r_entries.keys())
        if not lids or not rids:
            count(instrumentation, "pairs_out", 0)
            return CandidateSet(
                ltable, rtable, l_key, r_key, [], name=name or self.short_name
            )
        l_off, l_flat = _csr_arrays(list(l_entries.values()))
        r_off, r_flat = _csr_arrays(list(r_entries.values()))
        with stage(instrumentation, "signatures"):
            l_keys = self._bucket_keys(l_off, l_flat)
            r_keys = self._bucket_keys(r_off, r_flat)
        with stage(instrumentation, "index"):
            bands = l_keys.shape[1]
            buckets: list[dict[int, list[int]]] = []
            sizes: dict[Any, int] = {}
            for b in range(bands):
                bucket: dict[int, list[int]] = {}
                col = r_keys[:, b]
                for row, key in enumerate(col.tolist()):
                    lst = bucket.get(key)
                    if lst is None:
                        lst = bucket[key] = []
                    lst.append(row)
                buckets.append(bucket)
                for key, lst in bucket.items():
                    sizes[(b, key)] = len(lst)
            capped = capped_keys(sizes, self.block_size_policy, instrumentation)
        with stage(instrumentation, "probe"):
            group_left: list[int] = []
            group_len: list[int] = []
            cand_rows: list[int] = []
            l_key_list = l_keys.tolist()
            for i in range(len(lids)):
                row_keys = l_key_list[i]
                seen: dict[int, None] = {}
                for b in range(bands):
                    key = row_keys[b]
                    if capped and (b, key) in capped:
                        continue
                    for row in buckets[b].get(key, ()):
                        seen.setdefault(row)
                if seen:
                    group_left.append(i)
                    group_len.append(len(seen))
                    cand_rows.extend(seen)
            count(instrumentation, "candidates", len(cand_rows))
        with stage(instrumentation, "verify"):
            keep = self._verify(
                l_off, l_flat, r_off, r_flat, group_left, group_len, cand_rows
            )
            pairs: list[tuple[Any, Any]] = []
            pos = 0
            for g, i in enumerate(group_left):
                lid = lids[i]
                for _ in range(group_len[g]):
                    if keep[pos]:
                        pairs.append((lid, rids[cand_rows[pos]]))
                    pos += 1
            count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(
            ltable, rtable, l_key, r_key, pairs, name=name or self.short_name
        )

    def _bucket_keys(self, offsets: "np.ndarray", flat: "np.ndarray") -> "np.ndarray":
        """``(n_rows, bands)`` uint64 bucket keys for one side."""
        raise NotImplementedError

    def _verify(
        self,
        l_off: "np.ndarray",
        l_flat: "np.ndarray",
        r_off: "np.ndarray",
        r_flat: "np.ndarray",
        group_left: list[int],
        group_len: list[int],
        cand_rows: list[int],
    ) -> "np.ndarray | bytearray":
        """Keep-mask over the flat candidate list."""
        raise NotImplementedError

    def _token_sets(
        self,
        l_off: "np.ndarray",
        l_flat: "np.ndarray",
        r_off: "np.ndarray",
        r_flat: "np.ndarray",
        group_left: list[int],
        group_len: list[int],
        cand_rows: list[int],
    ) -> tuple[list[frozenset], list[frozenset]]:
        """Aligned (left, right) frozenset columns for batch verification."""
        l_ids = l_flat.astype(np.int64)
        r_ids = r_flat.astype(np.int64)
        l_sets = [
            frozenset(l_ids[l_off[i] : l_off[i + 1]].tolist())
            for i in range(len(l_off) - 1)
        ]
        r_sets = [
            frozenset(r_ids[r_off[i] : r_off[i + 1]].tolist())
            for i in range(len(r_off) - 1)
        ]
        col_a: list[frozenset] = []
        pos = 0
        for g, i in enumerate(group_left):
            col_a.extend([l_sets[i]] * group_len[g])
            pos += group_len[g]
        col_b = [r_sets[row] for row in cand_rows]
        return col_a, col_b


class MinHashLSHBlocker(_LSHBlockerBase):
    """MinHash-LSH blocker with exact-Jaccard verification.

    Parameters
    ----------
    l_attr, r_attr:
        Blocking attributes (tokenized like the overlap family).
    threshold:
        Jaccard floor candidates must reach to survive verification.
    bands, rows:
        Banding configuration; ``bands * rows`` permutations are hashed.
        More bands → higher recall and more candidates; more rows per
        band → sharper S-curve. Defaults (32 × 2) target thresholds
        around 0.3.
    seed:
        Permutation seed — fixed by default so runs are reproducible.
    block_size_policy:
        Optional bucket-size cap (see :mod:`repro.blocking.policy`).
    """

    short_name = "minhash_lsh"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.3,
        *,
        bands: int = 32,
        rows: int = 2,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        seed: int = 0,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise BlockingError(
                f"minhash threshold must be in (0, 1], got {threshold}"
            )
        if bands < 1 or rows < 1:
            raise BlockingError(
                f"bands and rows must be >= 1, got bands={bands} rows={rows}"
            )
        super().__init__(
            l_attr,
            r_attr,
            tokenizer=tokenizer,
            normalizer=normalizer,
            seed=seed,
            block_size_policy=block_size_policy,
        )
        self.threshold = threshold
        self.bands = bands
        self.rows = rows

    def _bucket_keys(self, offsets, flat):
        salts = _perm_salts(self.seed, self.bands * self.rows)
        sig = _minhash_signatures(offsets, flat, salts)
        return _band_keys(sig, self.bands, self.rows)

    def _verify(self, l_off, l_flat, r_off, r_flat, group_left, group_len, cand_rows):
        col_a, col_b = self._token_sets(
            l_off, l_flat, r_off, r_flat, group_left, group_len, cand_rows
        )
        sims = batch.jaccard_batch(col_a, col_b)
        eps = self.threshold - 1e-12
        return bytearray(1 if s >= eps else 0 for s in sims)


class SimHashBlocker(_LSHBlockerBase):
    """SimHash blocker: 64-bit signatures, Hamming-radius candidates.

    Parameters
    ----------
    max_hamming:
        Maximum Hamming distance (0..16) between signatures for a pair to
        survive. The signature is cut into ``max_hamming + 1`` bit-ranges
        for bucketing (pigeonhole guarantees no in-radius pair is
        missed); every collision is verified with an exact xor+popcount.
    """

    short_name = "simhash"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        max_hamming: int = 3,
        *,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        seed: int = 0,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if not 0 <= max_hamming <= 16:
            raise BlockingError(
                f"max_hamming must be in [0, 16], got {max_hamming}"
            )
        super().__init__(
            l_attr,
            r_attr,
            tokenizer=tokenizer,
            normalizer=normalizer,
            seed=seed,
            block_size_policy=block_size_policy,
        )
        self.max_hamming = max_hamming
        self._l_sig: "np.ndarray | None" = None
        self._r_sig: "np.ndarray | None" = None

    def _bucket_keys(self, offsets, flat):
        sig = _simhash_signatures(offsets, flat, self.seed)
        # Stash the raw signatures for verification; left is computed
        # first, right second (the skeleton's call order).
        if self._l_sig is None:
            self._l_sig = sig
        else:
            self._r_sig = sig
        chunks = self.max_hamming + 1
        bounds = np.linspace(0, 64, chunks + 1).astype(np.uint64)
        keys = np.empty((len(sig), chunks), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c in range(chunks):
                lo, hi = int(bounds[c]), int(bounds[c + 1])
                width = hi - lo
                mask = (
                    np.uint64((1 << width) - 1)
                    if width < 64
                    else np.uint64(0xFFFFFFFFFFFFFFFF)
                )
                piece = (sig >> np.uint64(lo)) & mask
                # Salt with the chunk id so identical bit patterns in
                # different ranges never share a bucket.
                keys[:, c] = _splitmix64_np(piece ^ np.uint64(_splitmix64(c + 0xC0FFEE)))
        return keys

    def _compute_blocking(self, session, ltable, rtable, l_key, r_key, name):
        self._l_sig = None
        self._r_sig = None
        try:
            return super()._compute_blocking(
                session, ltable, rtable, l_key, r_key, name
            )
        finally:
            self._l_sig = None
            self._r_sig = None

    def _verify(self, l_off, l_flat, r_off, r_flat, group_left, group_len, cand_rows):
        if self._l_sig is None or self._r_sig is None:
            return bytearray(len(cand_rows))
        left_idx = np.repeat(
            np.asarray(group_left, dtype=np.int64),
            np.asarray(group_len, dtype=np.int64),
        )
        rows = np.asarray(cand_rows, dtype=np.int64)
        dist = _hamming64(self._l_sig[left_idx], self._r_sig[rows])
        return (dist <= self.max_hamming).astype(np.uint8)
