"""Section 9 — selecting, debugging and applying a learning-based matcher.

The steps:

1. drop Unsure pairs and sure matches (M1 pairs) from the labeled set,
   extract feature vectors, impute missing values with column means;
2. select the best of six learners by five-fold cross-validation
   (the paper's first winner was a random forest);
3. debug the winner with half/half split mismatch analysis — the case
   study found mismatches driven by letter case and responded by *adding
   case-insensitive features* (not by lower-casing the data);
4. re-select (the decision tree won after the new features: ~97 P,
   ~95 R, ~94.7 F1 averaged over folds);
5. train the winner on all labeled pairs and predict over C minus the
   sure matches; the final match set is sure matches ∪ predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blocking.candidate_set import CandidateSet, Pair
from ..features.generate import (
    FeatureSet,
    add_case_insensitive_variants,
    generate_features,
)
from ..features.vectors import extract_feature_vectors
from ..labeling.labels import LabeledPairs
from ..matchers import (
    MLMatcher,
    Mismatch,
    SelectionResult,
    default_matchers,
    find_mismatches,
    select_matcher,
)
from ..rules.positive import ExactNumberRule, m1_rule
from ..runtime.context import EngineSession, resolve_session
from ..runtime.instrument import stage
from .preprocess import ProjectedTables


def base_feature_set(tables: ProjectedTables) -> FeatureSet:
    """Auto-generate features from the projected schemas (footnote 7).

    Keys and output-only columns are excluded, as is "ProjectNumber"
    (USDA-only, no same-named UMETRICS attribute to pair with).
    """
    return generate_features(
        tables.umetrics,
        tables.usda,
        exclude_attrs=["RecordId", "AccessionNumber", "ProjectNumber"],
    )


@dataclass(frozen=True)
class MatchingOutcome:
    """Everything Section 9 produced."""

    initial_selection: SelectionResult
    mismatches: tuple[Mismatch, ...]
    final_selection: SelectionResult
    feature_set: FeatureSet
    matcher: MLMatcher  # trained on the full labeled set
    sure_pairs: tuple[Pair, ...]
    predicted_pairs: tuple[Pair, ...]
    matches: tuple[Pair, ...]

    def summary(self) -> str:
        best = self.final_selection.best.name
        return (
            f"winner={best}; sure={len(self.sure_pairs)}, "
            f"predicted={len(self.predicted_pairs)}, "
            f"total={len(self.matches)}"
        )


def sure_match_pairs(
    candidates: CandidateSet, rules: list[ExactNumberRule] | None = None
) -> list[Pair]:
    """Candidate pairs fired by the positive rules (default: M1 only)."""
    rules = rules or [m1_rule()]
    out = []
    for pair in candidates:
        l_row, r_row = candidates.record_pair(pair)
        if any(rule.matches(l_row, r_row) for rule in rules):
            out.append(pair)
    return out


def training_labels(
    labels: LabeledPairs, sure: list[Pair]
) -> tuple[list[Pair], list[int]]:
    """The labeled pairs actually used for learning: no Unsure, no sure
    matches (an exact-rule match needs no statistical model)."""
    return labels.without_unsure().without_pairs(sure).to_training_data()


def run_matching(
    candidates: CandidateSet,
    labels: LabeledPairs,
    tables: ProjectedTables,
    seed: int = 45,
    *,
    session: EngineSession | None = None,
) -> MatchingOutcome:
    """Execute the full Section-9 pipeline.

    A session store memoizes the three feature extractions (training
    matrix, case-insensitive training matrix, prediction matrix) by
    content; the session's instrumentation times those extractions plus
    the two cross-validated selections.
    """
    resolved = resolve_session(session)
    instrumentation = resolved.instrumentation
    features = base_feature_set(tables)
    sure = sure_match_pairs(candidates)
    pairs, y = training_labels(labels, sure)

    matrix = extract_feature_vectors(
        candidates, features, pairs=pairs, session=resolved
    )
    with stage(instrumentation, "select_matcher"):
        initial_selection = select_matcher(
            default_matchers(seed=seed), matrix, y, n_folds=5, seed=seed
        )

    # debug the first winner: half/half mismatch analysis
    with stage(instrumentation, "find_mismatches"):
        mismatches = find_mismatches(
            initial_selection.best.clone(), matrix, y, seed=seed
        )

    # the fix: case-insensitive variants of the title features
    features_ci = add_case_insensitive_variants(features, attrs=["AwardTitle"])
    matrix_ci = extract_feature_vectors(
        candidates, features_ci, pairs=pairs, session=resolved
    )
    with stage(instrumentation, "select_matcher"):
        final_selection = select_matcher(
            default_matchers(seed=seed), matrix_ci, y, n_folds=5, seed=seed
        )

    # train the final winner on all usable labeled pairs
    with stage(instrumentation, "fit_matcher"):
        matcher = final_selection.best.clone()
        matcher.fit(matrix_ci, y)

    # predict over C minus the sure matches
    to_predict = candidates.difference(
        candidates.subset(sure, name="sure"), name="C_minus_sure"
    )
    predict_matrix = extract_feature_vectors(
        to_predict, features_ci, session=resolved
    )
    with stage(instrumentation, "predict"):
        predicted = matcher.predict_matches(predict_matrix)

    matches = list(sure) + [p for p in predicted if p not in set(sure)]
    return MatchingOutcome(
        initial_selection=initial_selection,
        mismatches=tuple(mismatches),
        final_selection=final_selection,
        feature_set=features_ci,
        matcher=matcher,
        sure_pairs=tuple(sure),
        predicted_pairs=tuple(predicted),
        matches=tuple(matches),
    )
