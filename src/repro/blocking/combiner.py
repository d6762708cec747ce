"""Combining candidate sets from multiple blockers.

Section 7 step 4 unions the outputs of three blocking schemes (AE on the
award-number suffix, overlap K=3 on titles, overlap-coefficient 0.7 on
titles) into the consolidated candidate set C. :func:`union_candidates`
implements that (with de-duplication), and :func:`overlap_report` computes
the footnote-3 style breakdown (|C2∩C3|, |C2−C3|, |C3−C2|) that justified
keeping both title blockers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import BlockingError
from .candidate_set import CandidateSet


def _fresh_copy(candidates: CandidateSet, name: str) -> CandidateSet:
    """A new candidate set with the same pairs — never the caller's object,
    whose ``name`` must stay untouched by combining."""
    return candidates._take(slice(None), name)


def union_candidates(candidate_sets: Sequence[CandidateSet], name: str = "") -> CandidateSet:
    """Union any number of candidate sets over the same base tables.

    Always returns a fresh :class:`CandidateSet` (even for a single input),
    leaving every input set unmodified.
    """
    if not candidate_sets:
        raise BlockingError("union needs at least one candidate set")
    result = _fresh_copy(candidate_sets[0], name or "union")
    for other in candidate_sets[1:]:
        result = result.union(other, name=name or "union")
    return result


def intersect_candidates(candidate_sets: Sequence[CandidateSet], name: str = "") -> CandidateSet:
    """Intersection of any number of candidate sets.

    Like :func:`union_candidates`, never aliases or renames an input set.
    """
    if not candidate_sets:
        raise BlockingError("intersection needs at least one candidate set")
    result = _fresh_copy(candidate_sets[0], name or "intersection")
    for other in candidate_sets[1:]:
        result = result.intersection(other, name=name or "intersection")
    return result


@dataclass(frozen=True)
class OverlapReport:
    """Set-relationship statistics for two candidate sets."""

    left_name: str
    right_name: str
    left_size: int
    right_size: int
    common: int
    left_only: int
    right_only: int

    def __str__(self) -> str:
        return (
            f"|{self.left_name}|={self.left_size}, |{self.right_name}|={self.right_size}, "
            f"|∩|={self.common}, |{self.left_name}−{self.right_name}|={self.left_only}, "
            f"|{self.right_name}−{self.left_name}|={self.right_only}"
        )


def overlap_report(a: CandidateSet, b: CandidateSet) -> OverlapReport:
    """Compute the paper's footnote-3 breakdown for two candidate sets."""
    sa, sb = a.pair_set(), b.pair_set()
    return OverlapReport(
        left_name=a.name or "A",
        right_name=b.name or "B",
        left_size=len(sa),
        right_size=len(sb),
        common=len(sa & sb),
        left_only=len(sa - sb),
        right_only=len(sb - sa),
    )
