"""Positive (sure-match) rules.

The match definition supplies rules that *guarantee* a match:

* **M1** — the suffix of the UMETRICS ``UniqueAwardNumber`` equals USDA's
  ``Award Number`` (Section 5).
* **award/project-number rule** — the same suffix equals USDA's
  ``Project Number`` (discovered mid-project, Section 10).

Both are exact-equality rules after extracting the suffix, so they can be
evaluated over full tables with an index rather than over A x B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..blocking.candidate_set import CandidateSet, Pair
from ..errors import RuleError
from ..table import Table
from ..table.column import is_missing
from ..text.normalize import identity
from ..text.patterns import award_number_suffix

Extractor = Callable[[Any], Any]


@dataclass(frozen=True)
class ExactNumberRule:
    """A positive rule: extractor(left attr) == extractor(right attr).

    Missing values (or extractors returning ``None``) never fire the rule.
    """

    name: str
    l_attr: str
    r_attr: str
    l_extract: Extractor = field(default=identity)
    r_extract: Extractor = field(default=identity)

    def _left_value(self, l_row: dict[str, Any]) -> Any:
        value = l_row.get(self.l_attr)
        if is_missing(value):
            return None
        return self.l_extract(value)

    def _right_value(self, r_row: dict[str, Any]) -> Any:
        value = r_row.get(self.r_attr)
        if is_missing(value):
            return None
        return self.r_extract(value)

    def matches(self, l_row: dict[str, Any], r_row: dict[str, Any]) -> bool:
        """True when the rule declares (l_row, r_row) a sure match."""
        left = self._left_value(l_row)
        if left is None:
            return False
        right = self._right_value(r_row)
        if right is None:
            return False
        return left == right

    def right_index(self, rtable: Table, r_key: str) -> "RuleIndex":
        """Index *rtable* once: extracted right value -> right ids, in row order."""
        if self.r_attr not in rtable:
            raise RuleError(f"rule {self.name!r}: no column {self.r_attr!r} in right table")
        postings: dict[Any, list[Any]] = {}
        for rid, value in zip(rtable[r_key], rtable[self.r_attr]):
            if is_missing(value):
                continue
            extracted = self.r_extract(value)
            if extracted is not None:
                postings.setdefault(extracted, []).append(rid)
        return RuleIndex(self, postings)

    def pairs(
        self, ltable: Table, rtable: Table, l_key: str, r_key: str, name: str = ""
    ) -> CandidateSet:
        """All pairs of A x B firing this rule, computed via an index."""
        self._require_left(ltable)
        pairs = self.right_index(rtable, r_key).probe(ltable, l_key)
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.name)

    def _require_left(self, ltable: Table) -> None:
        if self.l_attr not in ltable:
            raise RuleError(f"rule {self.name!r}: no column {self.l_attr!r} in left table")


@dataclass(frozen=True)
class RuleIndex:
    """A positive rule's right side, built once by
    :meth:`ExactNumberRule.right_index`.

    Probing costs O(left rows): a service over a fixed right table builds
    each rule's index in its constructor, and each request pays only for
    its own records.
    """

    rule: ExactNumberRule
    #: Extracted right value -> right ids, in right-row order (shared; don't mutate).
    postings: dict[Any, list[Any]]

    def probe(self, ltable: Table, l_key: str) -> list[Pair]:
        """Pairs of *ltable* rows firing the rule, in left-row order and
        right-row order within a left row (the order of :meth:`ExactNumberRule.pairs`)."""
        rule = self.rule
        rule._require_left(ltable)
        postings = self.postings
        pairs: list[Pair] = []
        for lid, value in zip(ltable[l_key], ltable[rule.l_attr]):
            if is_missing(value):
                continue
            extracted = rule.l_extract(value)
            if extracted is None:
                continue
            for rid in postings.get(extracted, ()):
                pairs.append((lid, rid))
        return pairs


def m1_rule(l_attr: str = "AwardNumber", r_attr: str = "AwardNumber") -> ExactNumberRule:
    """The M1 positive rule over the projected tables."""
    return ExactNumberRule(
        name="M1",
        l_attr=l_attr,
        r_attr=r_attr,
        l_extract=award_number_suffix,
    )


def award_project_rule(
    l_attr: str = "AwardNumber", r_attr: str = "ProjectNumber"
) -> ExactNumberRule:
    """The Section-10 rule: UMETRICS award number vs USDA project number."""
    return ExactNumberRule(
        name="award_number=project_number",
        l_attr=l_attr,
        r_attr=r_attr,
        l_extract=award_number_suffix,
    )


def sure_matches(
    rules: Sequence[ExactNumberRule],
    ltable: Table,
    rtable: Table,
    l_key: str,
    r_key: str,
    name: str = "sure_matches",
) -> CandidateSet:
    """Union of all pairs fired by the positive *rules*."""
    if not rules:
        raise RuleError("need at least one positive rule")
    result = rules[0].pairs(ltable, rtable, l_key, r_key)
    for rule in rules[1:]:
        result = result.union(rule.pairs(ltable, rtable, l_key, r_key))
    result.name = name
    return result
