"""Negative (match-flipping) rules.

Section 12: the domain experts defined a rule flipping predicted matches to
non-matches when identifying numbers are *comparable* — they follow the
same pattern (see :func:`repro.text.patterns.comparable`) — yet differ:

* UMETRICS award-number suffix vs USDA award number, or
* UMETRICS award-number suffix vs USDA project number.

Applying such rules to a learner's output buys precision at a small recall
cost ("localized changes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..blocking.candidate_set import CandidateSet, Pair
from ..text.normalize import identity
from ..text.patterns import KNOWN_AWARD_PATTERNS, award_number_suffix, comparable

Extractor = Callable[[Any], Any]


@dataclass(frozen=True)
class ComparableMismatchRule:
    """Flip a match when comparable identifiers differ.

    Fires when both extracted values are present, share a pattern from
    *known_patterns*, and are unequal.
    """

    name: str
    l_attr: str
    r_attr: str
    l_extract: Extractor = field(default=identity)
    r_extract: Extractor = field(default=identity)
    known_patterns: frozenset[str] = frozenset(KNOWN_AWARD_PATTERNS)

    def fires(self, l_row: dict[str, Any], r_row: dict[str, Any]) -> bool:
        left = l_row.get(self.l_attr)
        right = r_row.get(self.r_attr)
        left = None if left is None else self.l_extract(left)
        right = None if right is None else self.r_extract(right)
        if left is None or right is None:
            return False
        if left == right:
            return False
        return comparable(left, right, set(self.known_patterns))


def default_negative_rules(
    l_attr: str = "AwardNumber",
    r_award_attr: str = "AwardNumber",
    r_project_attr: str = "ProjectNumber",
) -> list[ComparableMismatchRule]:
    """The two clauses of the Section-12 negative matching rule."""
    return [
        ComparableMismatchRule(
            name="comparable_award_numbers_differ",
            l_attr=l_attr,
            r_attr=r_award_attr,
            l_extract=award_number_suffix,
        ),
        ComparableMismatchRule(
            name="comparable_project_numbers_differ",
            l_attr=l_attr,
            r_attr=r_project_attr,
            l_extract=award_number_suffix,
        ),
    ]


def apply_negative_rules(
    matches: Sequence[Pair],
    candidates: CandidateSet,
    rules: Sequence[ComparableMismatchRule],
) -> tuple[list[Pair], list[tuple[Pair, str]]]:
    """Filter *matches* through the negative rules.

    Returns ``(kept_matches, flipped)`` where *flipped* lists each removed
    pair with the name of the rule that fired (for the audit trail the
    domain experts reviewed).
    """
    kept: list[Pair] = []
    flipped: list[tuple[Pair, str]] = []
    for pair in matches:
        l_row, r_row = candidates.record_pair(tuple(pair))
        fired = next((rule.name for rule in rules if rule.fires(l_row, r_row)), None)
        if fired is None:
            kept.append(tuple(pair))
        else:
            flipped.append((tuple(pair), fired))
    return kept, flipped
