"""Batch-columnar similarity kernels: score whole candidate chunks.

Per-pair kernels pay one Python call per candidate, and on short
tokens (qgm_3) that overhead dominates the arithmetic. These kernels
change the hot-loop *shape*, not the arithmetic: one kernel call scores
an entire chunk.

Every ``*_batch`` kernel takes two parallel columns — a
:class:`~repro.runtime.columnar.TokenColumn` (CSR offsets + flat
``array('i')`` data on the wire, per-row ``frozenset[int]`` views in
memory) or any aligned sequence of id frozensets — and returns one
``array('d')`` of scores. Inside the chunk loop the measure body is
*inlined*: the per-pair cost is one C-level set intersection plus float
arithmetic, with no per-pair Python call, no per-pair allocation beyond
the intersection CPython builds natively, and the output written into a
single preallocated buffer. Benchmarked against the alternatives
(per-pair id-frozenset calls, per-pair two-pointer merges over sorted id
arrays, a vectorized sort-by-key CSR intersection), this shape is the only one that beats the
id-frozenset family on qgm_3 while staying ahead on ws — see
``docs/performance.md`` for the numbers that drove the decision.

Contracts, enforced by the parity suites in ``tests/test_kernels.py``:

* every batch kernel is **bit-identical** to its string reference in
  :mod:`repro.similarity.set_based` (and hence to the per-pair id
  kernels) element for element: the division and multiplication orders
  mirror the reference expression for expression;
* a row whose either side is *missing* (``None``) scores ``nan``,
  matching the per-pair extraction loop's missing-cell handling; empty
  token sets score by the reference expressions (e.g. Jaccard of two
  empty sets is 1.0);
* results are independent of chunk order and chunk boundaries: scoring a
  permuted or re-sliced chunk permutes/re-slices the outputs and nothing
  else.

``levenshtein_bounded_batch`` applies the same shape to the banded
edit-distance DP, reusing two row buffers across the whole chunk instead
of allocating fresh rows per pair.

The blocker verification predicates (:func:`overlap_at_least_batch`,
:func:`overlap_coefficient_at_least_batch`) are the overlap-family
blockers' keep-masks (:mod:`repro.blocking.overlap_family`); they return a
``bytearray`` keep-mask so the caller can filter an ordered candidate
list without perturbing emission order.
"""

from __future__ import annotations

import math
from array import array
from typing import Any, Sequence

from ..runtime.columnar import TokenColumn

NAN = float("nan")

#: Kernel families that are actually routed on the default path; the
#: bench and the CI guard (``tools/check_kernel_families.py``) assert
#: every family listed here beats the string references on both
#: case-study tokenizations.
DEPLOYED_FAMILIES = ("set", "batch", "levenshtein")


def _sets_of(column: Any) -> Sequence:
    """Per-row set views of a column (TokenColumn or aligned sequence)."""
    if isinstance(column, TokenColumn):
        return column.sets()
    return column


def _paired(col_a: Any, col_b: Any) -> tuple[Sequence, Sequence]:
    sa, sb = _sets_of(col_a), _sets_of(col_b)
    if len(sa) != len(sb):
        raise ValueError(
            f"batch columns differ in length: {len(sa)} vs {len(sb)}"
        )
    return sa, sb


# --------------------------------------------------------------------------
# set measures, one chunk per call
# --------------------------------------------------------------------------


def jaccard_batch(col_a: Any, col_b: Any) -> "array[float]":
    """|A ∩ B| / |A ∪ B| per row; 1.0 when both empty, nan when missing."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la or lb:
                inter = len(a & b)
                append(inter / (la + lb - inter))
            else:
                append(1.0)
    return array("d", out)


def dice_batch(col_a: Any, col_b: Any) -> "array[float]":
    """2|A ∩ B| / (|A| + |B|) per row; 1.0 both-empty, 0.0 one-empty."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la and lb:
                append(2.0 * len(a & b) / (la + lb))
            else:
                append(0.0 if la or lb else 1.0)
    return array("d", out)


def cosine_batch(col_a: Any, col_b: Any) -> "array[float]":
    """Ochiai/set cosine |A ∩ B| / sqrt(|A| * |B|) per row."""
    sa, sb = _paired(col_a, col_b)
    sqrt = math.sqrt
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la and lb:
                append(len(a & b) / sqrt(la * lb))
            else:
                append(0.0 if la or lb else 1.0)
    return array("d", out)


def overlap_coefficient_batch(col_a: Any, col_b: Any) -> "array[float]":
    """|A ∩ B| / min(|A|, |B|) per row; 1.0 both-empty, 0.0 one-empty."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            la, lb = len(a), len(b)
            if la and lb:
                append(len(a & b) / (la if la < lb else lb))
            else:
                append(0.0 if la or lb else 1.0)
    return array("d", out)


def overlap_size_batch(col_a: Any, col_b: Any) -> "array[float]":
    """|A ∩ B| per row (exact integer counts as float64; nan when missing)."""
    sa, sb = _paired(col_a, col_b)
    out: list[float] = []
    append = out.append
    for a, b in zip(sa, sb):
        if a is None or b is None:
            append(NAN)
        else:
            append(float(len(a & b)))
    return array("d", out)


#: Batch kernels by the short measure names used in feature specs —
#: the routing table :mod:`repro.features.vectors` dispatches through.
BATCH_KERNELS = {
    "jac": jaccard_batch,
    "cos": cosine_batch,
    "dice": dice_batch,
    "overlap_coeff": overlap_coefficient_batch,
}


def score_batch(measure: str, col_a: Any, col_b: Any) -> "array[float]":
    """Score one chunk with the named set measure (``float[]`` out)."""
    try:
        kernel = BATCH_KERNELS[measure]
    except KeyError:
        raise KeyError(
            f"no batch kernel for measure {measure!r}; "
            f"known: {sorted(BATCH_KERNELS)}"
        ) from None
    return kernel(col_a, col_b)


# --------------------------------------------------------------------------
# blocker verification predicates (keep-masks over ordered candidates)
# --------------------------------------------------------------------------


def overlap_at_least_batch(col_a: Any, col_b: Any, k: int) -> bytearray:
    """``|A ∩ B| >= k`` per row, as a 0/1 keep-mask.

    Chunk twin of :func:`repro.similarity.kernels.overlap_at_least`:
    same ``k <= 0`` short-circuit, same ``isdisjoint`` fast path at
    ``k == 1``, same exact count comparison otherwise — so every keep
    decision matches the per-pair predicate bit for bit.
    """
    sa, sb = _paired(col_a, col_b)
    n = len(sa)
    keep = bytearray(n)
    if k <= 0:
        for i in range(n):
            keep[i] = 1
        return keep
    if k == 1:
        for i, a in enumerate(sa):
            if not a.isdisjoint(sb[i]):
                keep[i] = 1
        return keep
    for i, a in enumerate(sa):
        b = sb[i]
        if len(a & b) >= k:
            keep[i] = 1
    return keep


def overlap_coefficient_at_least_batch(
    col_a: Any, col_b: Any, threshold: float
) -> bytearray:
    """Coefficient-threshold keep-mask for the overlap-coefficient blocker.

    Checks the size-aware count bound
    ``ceil(threshold * min(|A|, |B|) - 1e-9)`` first, then the surviving
    ``inter / min(|A|, |B|)`` coefficient against ``threshold - 1e-12`` —
    the two comparisons the string-set reference makes, over the same
    integers, so the kept candidates are identical.
    """
    sa, sb = _paired(col_a, col_b)
    ceil = math.ceil
    keep = bytearray(len(sa))
    eps = threshold - 1e-12
    for i, a in enumerate(sa):
        b = sb[i]
        la, lb = len(a), len(b)
        smaller = la if la < lb else lb
        if smaller == 0:
            # blockers drop empty token sets before probing, but mirror
            # the reference coefficient anyway: both-empty 1.0, one-empty 0.0
            if la == lb and 1.0 >= eps:
                keep[i] = 1
            continue
        inter = len(a & b)
        if inter < ceil(threshold * smaller - 1e-9):
            continue
        if inter / smaller >= eps:
            keep[i] = 1
    return keep


# --------------------------------------------------------------------------
# threshold-banded Levenshtein over string chunks
# --------------------------------------------------------------------------


def levenshtein_bounded_batch(
    col_a: Sequence[str], col_b: Sequence[str], max_dist: int
) -> "array[int]":
    """``min(dist(a, b), max_dist + 1)`` per row, buffers reused chunk-wide.

    Value-identical to mapping
    :func:`repro.similarity.kernels.levenshtein_bounded` over the rows
    (the parity tests pin that), but the two DP rows are allocated once
    per chunk instead of once per DP row per pair. Cells outside the
    ``|i - j| <= max_dist`` band are re-capped explicitly where the next
    row can read them, which is what makes buffer reuse safe.
    """
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")
    n = len(col_a)
    if len(col_b) != n:
        raise ValueError(f"batch columns differ in length: {n} vs {len(col_b)}")
    cap = max_dist + 1
    out = array("i", [0]) * n  # preallocated; array('i') matches the id typecode
    previous: list[int] = []
    current: list[int] = []
    for idx in range(n):
        a, b = col_a[idx], col_b[idx]
        if a == b:
            out[idx] = 0
            continue
        la, lb = len(a), len(b)
        if la == 0 or lb == 0:
            out[idx] = min(la or lb, cap)
            continue
        if abs(la - lb) > max_dist:
            out[idx] = cap
            continue
        if la < lb:
            a, b = b, a
            la, lb = lb, la
        if len(previous) <= lb:
            grow = lb + 1 - len(previous)
            previous.extend([0] * grow)
            current.extend([0] * grow)
        for j in range(lb + 1):
            previous[j] = j if j < cap else cap
        result = cap
        for i in range(1, la + 1):
            lo = i - max_dist
            if lo < 1:
                lo = 1
            hi = i + max_dist
            if hi > lb:
                hi = lb
            head = i if i < cap else cap
            current[0] = head
            if lo > 1:
                current[lo - 1] = cap
            row_min = head
            ca = a[i - 1]
            for j in range(lo, hi + 1):
                best = previous[j - 1] + (0 if ca == b[j - 1] else 1)
                down = previous[j] + 1
                if down < best:
                    best = down
                left = current[j - 1] + 1
                if left < best:
                    best = left
                if best > cap:
                    best = cap
                current[j] = best
                if best < row_min:
                    row_min = best
            if hi < lb:
                # the band widens by at most one next row; the fresh-row
                # semantics need that cell to read as "over the bound"
                current[hi + 1] = cap
            previous, current = current, previous
            if row_min >= cap:
                break
        else:
            tail = previous[lb]
            result = tail if tail < cap else cap
        out[idx] = result
    return out
