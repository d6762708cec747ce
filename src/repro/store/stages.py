"""Stage operators for the cacheable pipeline stages.

Each operator class describes one expensive stage — blocking, sure
matches, feature extraction, matcher prediction — in the vocabulary of
the stage-operator protocol
(:class:`~repro.runtime.context.StageOperator`): an artifact kind and
codec, content fingerprints over the stage's inputs, the compute
callback, and optional counter/provenance hooks.
:meth:`EngineSession.run_stage <repro.runtime.context.EngineSession.run_stage>`
is the **single** implementation of the store-lookup / tracing /
provenance glue those stages previously each re-implemented; everything
here is declarative.

The pipeline modules import this module lazily inside their functions:
``core.serialize`` imports the blockers and workflow at module level, so
the store package may depend on them but not the other way around.

Session settings that do not change a stage's output (instrumentation,
provenance, the token cache) are not part of any cache key.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..runtime.context import StageOperator
from .codecs import CANDIDATES, FEATURE_MATRIX, PAIR_LIST
from .fingerprint import (
    fingerprint_blocker,
    fingerprint_feature_set,
    fingerprint_matcher,
    fingerprint_matrix,
    fingerprint_pairs,
    fingerprint_positions,
    fingerprint_positive_rules,
    fingerprint_table,
    fingerprint_value,
)


def _table_label(table: Any, fallback: str) -> str:
    return getattr(table, "name", "") or fallback


class BlockStage(StageOperator):
    """One blocker application over a table pair."""

    cache_kind = "candidates"
    codec = CANDIDATES

    def __init__(
        self,
        blocker: Any,
        ltable: Any,
        rtable: Any,
        l_key: str,
        r_key: str,
        *,
        name: str = "",
        trace_name: str | None = None,
    ) -> None:
        self.blocker = blocker
        self.ltable = ltable
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self.name = name
        self.trace_name = trace_name

    def label(self) -> str:
        return (
            f"block:{self.blocker.short_name}:"
            f"{_table_label(self.ltable, 'ltable')}|"
            f"{_table_label(self.rtable, 'rtable')}"
        )

    def fingerprint(self) -> dict[str, str]:
        return {
            "blocker": fingerprint_blocker(self.blocker),
            "ltable": fingerprint_table(self.ltable),
            "rtable": fingerprint_table(self.rtable),
            "keys": fingerprint_value((self.l_key, self.r_key)),
        }

    def store_context(self) -> dict[str, Any]:
        return {"ltable": self.ltable, "rtable": self.rtable, "name": self.name}

    def compute(self, session) -> Any:
        return self.blocker._compute_blocking(
            session, self.ltable, self.rtable, self.l_key, self.r_key, self.name
        )

    def record(self, provenance, result) -> None:
        provenance.record_blocker(self.blocker.short_name, result.pairs)


class SureMatchStage(StageOperator):
    """The positive-rule (sure-match) pass of a workflow."""

    cache_kind = "candidates"
    codec = CANDIDATES
    trace_name = None

    def __init__(
        self,
        rules: Sequence[Any],
        ltable: Any,
        rtable: Any,
        l_key: str,
        r_key: str,
        *,
        name: str = "sure_matches",
        trace_name: str | None = None,
    ) -> None:
        self.rules = list(rules)
        self.ltable = ltable
        self.rtable = rtable
        self.l_key = l_key
        self.r_key = r_key
        self.name = name
        self.trace_name = trace_name
        if not self.rules:
            # An empty rule list is a constant empty candidate set — not
            # worth a store entry (and the pre-session code never made one).
            self.cache_kind = None

    def label(self) -> str:
        return (
            f"sure_matches:{_table_label(self.ltable, 'ltable')}|"
            f"{_table_label(self.rtable, 'rtable')}"
        )

    def fingerprint(self) -> dict[str, str]:
        return {
            "rules": fingerprint_positive_rules(self.rules),
            "ltable": fingerprint_table(self.ltable),
            "rtable": fingerprint_table(self.rtable),
            "keys": fingerprint_value((self.l_key, self.r_key)),
        }

    def store_context(self) -> dict[str, Any]:
        return {"ltable": self.ltable, "rtable": self.rtable, "name": self.name}

    def compute(self, session) -> Any:
        from ..blocking.candidate_set import CandidateSet
        from ..rules.positive import sure_matches

        if not self.rules:
            return CandidateSet(
                self.ltable, self.rtable, self.l_key, self.r_key, name=self.name
            )
        return sure_matches(
            self.rules, self.ltable, self.rtable, self.l_key, self.r_key,
            name=self.name,
        )

    def counters(self, result) -> dict[str, float]:
        return {"sure_pairs": len(result)}

    def record(self, provenance, result) -> None:
        for rule, pairs in zip(self.rules, self._rule_pairs()):
            provenance.record_rule(rule.name, pairs)

    def _rule_pairs(self) -> list[list]:
        """Each rule's own pairs, in rule order."""
        return [
            rule.pairs(self.ltable, self.rtable, self.l_key, self.r_key).pairs
            for rule in self.rules
        ]


class IndexedSureMatchStage(SureMatchStage):
    """:class:`SureMatchStage` over a right table indexed once.

    A :class:`~repro.serving.MatchService` builds each rule's
    :class:`~repro.rules.positive.RuleIndex` and the right-key
    :func:`~repro.blocking.candidate_set.row_index` in its constructor, so
    a patch's compute and provenance record cost O(patch rows). The
    fingerprint, counters and output are the plain stage's.
    """

    def __init__(
        self, indexes: Sequence[Any], ltable: Any, rtable: Any, l_key: str,
        r_key: str, r_index: dict, *, name: str = "sure_matches",
        trace_name: str | None = None,
    ) -> None:
        super().__init__(
            [index.rule for index in indexes], ltable, rtable, l_key, r_key,
            name=name, trace_name=trace_name,
        )
        self.indexes = list(indexes)
        self.r_index = r_index

    def compute(self, session) -> Any:
        from ..blocking.candidate_set import CandidateSet, row_index

        # concatenated, then deduplicated in order: sure_matches' union
        pairs = [pair for pairs in self._rule_pairs() for pair in pairs]
        return CandidateSet._over(
            self.ltable, self.rtable, self.l_key, self.r_key,
            row_index(self.ltable[self.l_key]), self.r_index, pairs, self.name,
        )

    def _rule_pairs(self) -> list[list]:
        return [index.probe(self.ltable, self.l_key) for index in self.indexes]


class ExtractStage(StageOperator):
    """Feature-vector extraction over (a subset of) a candidate set.

    No ``trace_name``: the extraction body opens its own
    ``extract_features`` stage, exactly where the pre-session code did —
    inside the compute, so a store hit adds no stage node.
    """

    cache_kind = "feature_matrix"
    codec = FEATURE_MATRIX

    def __init__(
        self,
        candidates: Any,
        feature_set: Any,
        *,
        pairs: Sequence[Any] | None = None,
    ) -> None:
        self.candidates = candidates
        self.feature_set = feature_set
        self.pairs = pairs

    def label(self) -> str:
        return f"extract:{self.candidates.name or 'candidates'}"

    def _pairs_fingerprint(self) -> str:
        c = self.candidates
        if self.pairs is None:
            # the whole set, read from its row positions
            return fingerprint_positions(
                c.ltable[c.l_key], c.rtable[c.r_key],
                c.left_positions, c.right_positions,
            )
        return fingerprint_pairs([tuple(p) for p in self.pairs])

    def fingerprint(self) -> dict[str, str]:
        return {
            "ltable": fingerprint_table(self.candidates.ltable),
            "rtable": fingerprint_table(self.candidates.rtable),
            "keys": fingerprint_value(
                (self.candidates.l_key, self.candidates.r_key)
            ),
            "pairs": self._pairs_fingerprint(),
            "features": fingerprint_feature_set(self.feature_set),
        }

    def compute(self, session) -> Any:
        from ..features.vectors import _extract_impl

        return _extract_impl(
            self.candidates, self.feature_set, self.pairs, session
        )


class PredictStage(StageOperator):
    """One ``matcher.predict_matches`` pass over a feature matrix."""

    cache_kind = "pairs"
    codec = PAIR_LIST

    def __init__(
        self, matcher: Any, matrix: Any, *, trace_name: str | None = None,
        cached: bool = True,
    ) -> None:
        self.matcher = matcher
        self.matrix = matrix
        self.trace_name = trace_name
        if not cached:
            # Section 9's in-loop prediction predates the store and stays
            # uncached so existing store ledgers/baselines are unchanged.
            self.cache_kind = None

    def label(self) -> str:
        return f"predict:{self.matcher.name}"

    def fingerprint(self) -> dict[str, str]:
        return {
            "matrix": fingerprint_matrix(self.matrix),
            "matcher": fingerprint_matcher(self.matcher),
        }

    def compute(self, session) -> list:
        return self.matcher.predict_matches(self.matrix)
