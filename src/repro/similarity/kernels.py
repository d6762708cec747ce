"""Integer-id similarity kernels for interned token sets.

The set-based measures in :mod:`repro.similarity.set_based` hash strings on
every call. These kernels compute the very same values over *interned*
token sets — ``frozenset[int]`` views of the ids a
:class:`~repro.text.intern.Vocabulary` assigns — where CPython's C set
intersection runs over identity-hashed small ints. A threshold-banded
Levenshtein rounds out the module.

Contracts, enforced by the parity tests in ``tests/test_kernels.py``:

* every ``*_id_sets`` kernel returns **bit-identical floats** to its
  string reference on the id sets of the same token sets (the division
  and multiplication orders mirror ``set_based.py`` expression for
  expression);
* results depend only on id *consistency*, never on id values, so any
  vocabulary produces the same numbers;
* the bounded Levenshtein may stop early but only ever on branches whose
  outcome is already decided.

The hot loops (blocker verification, feature extraction) route through
the chunk-level batch kernels in :mod:`repro.similarity.batch`, which
use the same arithmetic with the per-pair call overhead amortized away.
"""

from __future__ import annotations

import math


# --------------------------------------------------------------------------
# C-speed counts over id frozensets (the blockers' verification step)
# --------------------------------------------------------------------------


def overlap_at_least(a: "frozenset[int]", b: "frozenset[int]", k: int) -> bool:
    """``|A ∩ B| >= k`` over id *frozensets*.

    The blockers verify hundreds of thousands of candidate pairs; at that
    volume CPython's C set intersection (with identity-hash small ints)
    beats a Python-level merge loop by a wide margin, and produces the
    same integer count. ``k == 1`` short-circuits through ``isdisjoint``,
    which exits on the first shared element.
    """
    if k <= 0:
        return True
    if k == 1:
        return not a.isdisjoint(b)
    return len(a & b) >= k


def intersect_count(a: "frozenset[int]", b: "frozenset[int]") -> int:
    """Exact ``|A ∩ B|`` over id frozensets (C set intersection)."""
    return len(a & b)


def jaccard_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Jaccard over id frozensets, bit-identical to ``set_based.jaccard``.

    ``|A ∪ B| == |A| + |B| - |A ∩ B|`` for deduplicated sets, so the
    division is over the same two integers the string reference divides —
    without the two ``set()`` copies the reference makes per call.
    """
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    inter = len(a & b)
    return inter / (la + lb - inter)


def dice_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Dice over id frozensets, bit-identical to ``set_based.dice``."""
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    if not la or not lb:
        return 0.0
    return 2.0 * len(a & b) / (la + lb)


def overlap_coefficient_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Overlap coefficient over id frozensets (``set_based`` twin)."""
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    if not la or not lb:
        return 0.0
    return len(a & b) / min(la, lb)


def cosine_id_sets(a: "frozenset[int]", b: "frozenset[int]") -> float:
    """Ochiai/set cosine over id frozensets (``set_based`` twin)."""
    la, lb = len(a), len(b)
    if not la and not lb:
        return 1.0
    if not la or not lb:
        return 0.0
    return len(a & b) / math.sqrt(la * lb)


overlap_size_id_sets = intersect_count

#: Id-frozenset kernels by feature-spec measure name — the deployed
#: *per-pair* shape: CPython's C set intersection over identity-hashed
#: small ints beats the string references ~2-5x at case-study token
#: counts. The chunk-level batch kernels in
#: :mod:`repro.similarity.batch` use the same arithmetic with the
#: per-pair call overhead amortized away, and are what the extraction
#: and blocker hot loops actually route through.
SET_MEASURE_SET_KERNELS = {
    "jac": jaccard_id_sets,
    "cos": cosine_id_sets,
    "dice": dice_id_sets,
    "overlap_coeff": overlap_coefficient_id_sets,
}


# --------------------------------------------------------------------------
# threshold-banded Levenshtein
# --------------------------------------------------------------------------


def levenshtein_bounded(a: str, b: str, max_dist: int) -> int:
    """Exact edit distance when ``<= max_dist``, else ``max_dist + 1``.

    The DP visits only the band ``|i - j| <= max_dist`` (any cheaper path
    stays inside it) and exits as soon as a whole row exceeds the bound,
    so rejecting distant strings costs O(``max_dist`` * len) instead of
    O(len^2). ``levenshtein_bounded(a, b, k) == min(dist(a, b), k + 1)``
    — the parity tests pin that identity against the reference DP.
    """
    if max_dist < 0:
        raise ValueError(f"max_dist must be >= 0, got {max_dist}")
    if a == b:
        return 0
    la, lb = len(a), len(b)
    cap = max_dist + 1
    if la == 0 or lb == 0:
        return min(la or lb, cap)
    if abs(la - lb) > max_dist:
        return cap
    if la < lb:
        a, b = b, a
        la, lb = lb, la
    previous = [min(j, cap) for j in range(lb + 1)]
    for i in range(1, la + 1):
        lo = max(1, i - max_dist)
        hi = min(lb, i + max_dist)
        current = [cap] * (lb + 1)
        current[0] = min(i, cap)
        ca = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            best = previous[j - 1] + cost
            down = previous[j] + 1
            if down < best:
                best = down
            left = current[j - 1] + 1
            if left < best:
                best = left
            current[j] = best if best < cap else cap
        previous = current
        if min(previous) >= cap:
            return cap
    return min(previous[lb], cap)
