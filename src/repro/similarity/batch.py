"""Batch-columnar similarity kernels: score whole candidate columns.

Per-pair kernels pay one Python call per candidate, and on short
tokens (qgm_3) that overhead dominates the arithmetic. These kernels
change the hot-loop *shape*, not the arithmetic: one kernel call scores
an entire column.

Every set kernel takes two aligned sequences of ``frozenset[int] | None``
(the :attr:`~repro.runtime.cache.InternedTokens.ids` of each row's
cached entry) and returns one ``array('d')`` of scores. Inside the column
loop the measure body is *inlined*: the per-pair cost is one C-level set
intersection plus float arithmetic, with no per-pair Python call, no
per-pair allocation beyond the intersection CPython builds natively, and
the output written into a single preallocated buffer. Benchmarked
against the alternatives (per-pair id-frozenset calls, per-pair
two-pointer merges over sorted id arrays, a vectorized sort-by-key CSR
intersection), this shape beat the per-pair calls on ws and drew level
with them on qgm_3 — see ``docs/performance.md`` for the numbers that
drove the decision.

Contracts, enforced by the parity suites in ``tests/test_kernels.py``:

* every set kernel is **bit-identical** to its string reference in
  :mod:`repro.similarity.set_based` element for element: the division
  and multiplication orders mirror the reference expression for
  expression;
* a row whose either side is *missing* (``None``) scores ``nan``,
  matching the reference extraction loop's missing-cell handling; empty
  token sets score by the reference expressions (e.g. Jaccard of two
  empty sets is 1.0);
* results are independent of row order and column boundaries: scoring a
  permuted or re-sliced column permutes/re-slices the outputs and
  nothing else.

The character measures (:func:`jaro_batch`, :func:`jaro_winkler_batch`,
:func:`levenshtein_similarity_batch`) take the other shape: the strings
become padded code-point arrays, and the loops run over *character
positions*, each step one NumPy operation over every pair at once. Their
integer intermediates (matches, transpositions, prefix lengths, edit
distances) are exact, and the final float expressions mirror
:mod:`repro.similarity.sequence` operation for operation, so the outputs
are bit-identical to the scalar references, which stay the parity oracle.
A call pays a fixed NumPy overhead of a few hundred microseconds, so
callers route small inputs through the scalar references instead (see
:mod:`repro.features.vectors`).

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

import numpy as np

NAN = float("nan")

#: Kernel families that are actually routed on the default path; the
#: bench and the CI guard (``tools/check_kernel_families.py``) assert
#: every family listed here beats the string references on both
#: case-study tokenizations.
DEPLOYED_FAMILIES = ("batch", "character")


def _paired(sa: Sequence, sb: Sequence) -> tuple[Sequence, Sequence]:
    if len(sa) != len(sb):
        raise ValueError(
            f"batch columns differ in length: {len(sa)} vs {len(sb)}"
        )
    return sa, sb


# --------------------------------------------------------------------------
# set measures, one column per call
# --------------------------------------------------------------------------


def jaccard_batch(col_a: Sequence, col_b: Sequence) -> "array[float]":
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


def dice_batch(col_a: Sequence, col_b: Sequence) -> "array[float]":
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


def cosine_batch(col_a: Sequence, col_b: Sequence) -> "array[float]":
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


def overlap_coefficient_batch(col_a: Sequence, col_b: Sequence) -> "array[float]":
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


#: Batch kernels by the short measure names used in feature specs —
#: the routing table :mod:`repro.features.vectors` dispatches through.
BATCH_KERNELS = {
    "jac": jaccard_batch,
    "cos": cosine_batch,
    "dice": dice_batch,
    "overlap_coeff": overlap_coefficient_batch,
}


def score_batch(measure: str, col_a: Sequence, col_b: Sequence) -> "array[float]":
    """Score one column with the named set measure (``float[]`` out)."""
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


def overlap_at_least_batch(col_a: Sequence, col_b: Sequence, k: int) -> bytearray:
    """``|A ∩ B| >= k`` per row, as a 0/1 keep-mask.

    ``k <= 0`` keeps every row; ``k == 1`` goes through ``isdisjoint``,
    which exits on the first shared id; otherwise the exact count is
    compared, so every keep decision is the string sets' ``|A ∩ B| >= k``.
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
    col_a: Sequence, col_b: Sequence, threshold: float
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
# character measures over padded code-point arrays
# --------------------------------------------------------------------------

#: Rows per block of a character kernel. Rows are sorted by length and
#: scored a block at a time, so one long string pads only its own block
#: and the temporaries stay a few MB whatever the input size.
CHARACTER_BLOCK = 4096


def _code_points(strings: list[str], lengths: np.ndarray) -> np.ndarray:
    """One zero-padded row of code points per string.

    NumPy's fixed-width unicode dtype stores one code point per slot
    (non-BMP characters included, as Python indexes them). It drops
    trailing NULs from its *view* of a string, but the padding is NUL
    too, so the codes are exact; the kernels mask by *lengths*, so a real
    NUL never matches the padding.
    """
    width = max(int(lengths.max(initial=0)), 1)
    codes = np.array(strings, dtype=f"<U{width}").view(np.uint32)
    return codes.reshape(len(strings), width)


def _blockwise(col_a: Sequence[str], col_b: Sequence[str], kernel: Any) -> np.ndarray:
    """Run ``kernel(a, la, b, lb)`` over length-sorted blocks of rows."""
    n = len(col_a)
    if len(col_b) != n:
        raise ValueError(f"batch columns differ in length: {n} vs {len(col_b)}")
    la = np.fromiter(map(len, col_a), dtype=np.int64, count=n)
    lb = np.fromiter(map(len, col_b), dtype=np.int64, count=n)
    order = np.argsort(np.maximum(la, lb), kind="stable")
    out = np.empty(n)
    for start in range(0, n, CHARACTER_BLOCK):
        rows = order[start : start + CHARACTER_BLOCK]
        picked = rows.tolist()
        a_len, b_len = la[rows], lb[rows]
        a = _code_points([col_a[i] for i in picked], a_len)
        b = _code_points([col_b[i] for i in picked], b_len)
        out[rows] = kernel(a, a_len, b, b_len)
    return out


def _jaro(a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Jaro per row, step for step :func:`repro.similarity.sequence.jaro`."""
    out = np.zeros(len(la))
    width = min(a.shape[1], b.shape[1])
    equal = (la == lb) & (a[:, :width] == b[:, :width]).all(axis=1)
    out[equal] = 1.0
    live = np.flatnonzero(~equal & (la > 0) & (lb > 0))
    if not len(live):
        return out
    # longest left string first, so the rows still inside the left string
    # at position i are a prefix of the block
    live = live[np.argsort(-la[live], kind="stable")]
    a, la, b, lb = a[live], la[live], b[live], lb[live]
    descending = -la
    window = np.maximum(np.maximum(la, lb) // 2 - 1, 0)
    cols = np.arange(b.shape[1])
    b_free = cols < lb[:, None]  # inside b and not yet matched
    a_matched = np.zeros(a.shape, dtype=bool)
    for i in range(int(la[0])):
        k = int(np.searchsorted(descending, -i, side="left"))  # rows with la > i
        candidate = (
            b_free[:k]
            & (b[:k] == a[:k, i : i + 1])
            & (cols >= (i - window[:k])[:, None])
            & (cols < (i + window[:k] + 1)[:, None])
        )
        # the greedy scan takes the first unmatched equal character
        hit = np.flatnonzero(candidate.any(axis=1))
        b_free[hit, candidate[hit].argmax(axis=1)] = False
        a_matched[hit, i] = True
    b_matched = (cols < lb[:, None]) & ~b_free
    matches = a_matched.sum(axis=1)
    # the k-th matched character of a against the k-th matched one of b
    a_order = np.take_along_axis(a, np.argsort(~a_matched, axis=1, kind="stable"), 1)
    b_order = np.take_along_axis(b, np.argsort(~b_matched, axis=1, kind="stable"), 1)
    ranks = np.arange(width)
    transpositions = (
        (a_order[:, :width] != b_order[:, :width]) & (ranks < matches[:, None])
    ).sum(axis=1) // 2
    scored = np.zeros(len(live))
    some = matches > 0
    m, t = matches[some], transpositions[some]
    scored[some] = (m / la[some] + m / lb[some] + (m - t) / m) / 3.0
    out[live] = scored
    return out


def jaro_batch(col_a: Sequence[str], col_b: Sequence[str]) -> np.ndarray:
    """:func:`~repro.similarity.sequence.jaro` per row, bit for bit."""
    return _blockwise(col_a, col_b, _jaro)


def _jaro_winkler(a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """The reference's defaults: prefix weight 0.1, prefixes up to 4."""
    base = _jaro(a, la, b, lb)
    width = min(a.shape[1], b.shape[1], 4)
    same = (a[:, :width] == b[:, :width]) & (
        np.arange(width) < np.minimum(la, lb)[:, None]
    )
    prefix = np.cumprod(same, axis=1).sum(axis=1)  # shared-prefix run
    return base + prefix * 0.1 * (1.0 - base)


def jaro_winkler_batch(col_a: Sequence[str], col_b: Sequence[str]) -> np.ndarray:
    """:func:`~repro.similarity.sequence.jaro_winkler` per row, bit for bit:
    ``base + prefix * 0.1 * (1.0 - base)`` over the same floats."""
    return _blockwise(col_a, col_b, _jaro_winkler)


def _levenshtein_similarity(
    a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray
) -> np.ndarray:
    """``1.0 - dist / longest`` per row, the distance by the row DP
    vectorised over rows *and* columns.

    With ``x[j] = min(prev[j] + 1, prev[j-1] + cost)`` and ``x[0] = i``,
    the left-to-right term ``cur[j-1] + 1`` unrolls to
    ``cur[j] = min over k <= j of x[k] + (j - k)``, a running minimum of
    ``x - j``. The integers are exact, so any correct DP gives the
    reference's distance.
    """
    n = len(la)
    steps = np.arange(b.shape[1] + 1)
    previous = np.broadcast_to(steps, (n, len(steps))).copy()
    x = np.empty_like(previous)
    for i in range(1, int(la.max(initial=0)) + 1):
        x[:, 0] = i
        np.minimum(
            previous[:, 1:] + 1, previous[:, :-1] + (a[:, i - 1 : i] != b), out=x[:, 1:]
        )
        current = np.minimum.accumulate(x - steps, axis=1) + steps
        inside = i <= la
        previous[inside] = current[inside]
    distance = previous[np.arange(n), lb]
    out = np.ones(n)
    longest = np.maximum(la, lb)
    some = longest > 0
    out[some] = 1.0 - distance[some] / longest[some]
    return out


def levenshtein_similarity_batch(col_a: Sequence[str], col_b: Sequence[str]) -> np.ndarray:
    """:func:`~repro.similarity.sequence.levenshtein_similarity` per row:
    ``1.0 - dist / longest``, and 1.0 for two empty strings."""
    return _blockwise(col_a, col_b, _levenshtein_similarity)


#: Character-measure batch kernels by the string-feature measure names
#: (:data:`repro.features.feature.STRING_MEASURES`) they stand in for.
CHARACTER_KERNELS = {
    "lev_sim": levenshtein_similarity_batch,
    "jaro": jaro_batch,
    "jw": jaro_winkler_batch,
}
