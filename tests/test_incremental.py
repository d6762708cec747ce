"""Differential tests: incremental blocking ≡ from-scratch rerun.

The contract under test (``src/repro/blocking/incremental.py``): a
handle's ``preview(batch)`` is bit-identical — values AND order — to
``blocker.block_tables(batch, rtable)``, and, because the handle stores
nothing about left records, a handle that has already previewed any
sequence of batches answers each batch exactly as a fresh handle does.

Random-breadth checks use the seeded-numpy idiom of
``tests/test_prop_store.py``; batch sequences are property-based via
hypothesis, with repeated ids, identical rows, empty batches and
empty-token records all inside the input space. The Section-10 replay
drives the whole serving path
(:meth:`repro.serving.MatchService.apply_patch` over the late-arriving
records) and asserts it equals the batch Figure-10 rerun field for
field — candidate sets, feature rows, predicted matches and per-pair
provenance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blocking import (
    AttrEquivalenceBlocker,
    BlackBoxBlocker,
    CandidateSet,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    RuleBasedBlocker,
    SortedNeighborhoodBlocker,
)
from repro.errors import BlockingError, IncrementalBlockingError
from repro.runtime import TokenCache
from repro.runtime.context import EngineSession
from repro.table import Table

from .helpers_serving import WORDS, incremental_blockers, random_table, rows_table

N_CASES = 15

BLOCKERS = incremental_blockers()
RIGHT = random_table(np.random.default_rng(123), n_rows=10, name="R")


@pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
class TestDeltaEqualsBatch:
    def test_first_upsert_bit_identical_to_block_tables(self, blocker):
        rng = np.random.default_rng(11)
        for case in range(N_CASES):
            left = random_table(rng, name="L")
            right = random_table(rng, name="R")
            handle = blocker.incremental(right, "id", "id")
            pairs = handle.preview(left)
            reference = blocker.block_tables(left, right, "id", "id")
            assert pairs == list(reference.pairs), f"case {case}"

    def test_replacement_upsert_still_bit_identical(self, blocker):
        # a batch reusing ids an earlier preview saw must emit exactly
        # what the batch path emits for the new batch alone
        rng = np.random.default_rng(12)
        for case in range(N_CASES):
            left = random_table(rng, name="L")
            right = random_table(rng, name="R")
            handle = blocker.incremental(right, "id", "id")
            handle.preview(left)
            patched = random_table(rng, n_rows=len(left), name="patched")
            pairs = handle.preview(patched)
            reference = blocker.block_tables(patched, right, "id", "id")
            assert pairs == list(reference.pairs), f"case {case}"


def _row(i: int, num: str | None, words: list[str]) -> dict:
    return {"id": i, "num": num, "title": " ".join(words)}


ROWS = st.builds(
    _row,
    st.integers(min_value=1, max_value=8),
    # three of RIGHT's numbers, so the equivalence blocker emits pairs
    st.one_of(
        st.none(),
        st.sampled_from(["A101"] + [n for n in RIGHT["num"] if n is not None][:3]),
    ),
    st.lists(st.sampled_from(WORDS[:8]), max_size=5),
)
BATCHES = st.lists(ROWS, max_size=4, unique_by=lambda r: r["id"])
SEQUENCES = st.lists(BATCHES, max_size=6)


@pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
@given(batches=SEQUENCES)
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_interleaved_ops_converge_to_fresh_build(blocker, batches):
    """Any sequence of batches through one handle: every preview equals
    the batch rerun over that batch alone."""
    handle = blocker.incremental(RIGHT, "id", "id")
    for batch in batches:
        table = rows_table(batch)
        reference = blocker.block_tables(table, RIGHT, "id", "id")
        assert handle.preview(table) == list(reference.pairs)


@pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
@given(batches=SEQUENCES)
@settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_handle_is_stateless(blocker, batches):
    """One handle fed a sequence of batches returns, for each batch,
    exactly what a fresh handle, over a fresh token cache, returns for
    that batch: earlier previews leave nothing behind that changes an
    answer."""
    handle = blocker.incremental(RIGHT, "id", "id")
    for batch in batches:
        table = rows_table(batch)
        with EngineSession(token_cache=TokenCache()) as session:
            fresh = blocker.incremental(RIGHT, "id", "id", session=session)
            expected = fresh.preview(table)
        assert handle.preview(table) == expected


@pytest.mark.parametrize("blocker", BLOCKERS, ids=lambda b: b.short_name)
class TestUpsertEdgeCases:
    def test_reupsert_identical_rows_is_stable(self, blocker):
        left = random_table(np.random.default_rng(21), n_rows=6, name="L")
        handle = blocker.incremental(RIGHT, "id", "id")
        first = handle.preview(left)
        assert handle.preview(left) == first
        assert first == list(blocker.block_tables(left, RIGHT, "id", "id").pairs)

    def test_empty_upserts_are_noops(self, blocker):
        handle = blocker.incremental(RIGHT, "id", "id")
        assert handle.preview(rows_table([])) == []

    def test_missing_cell_clears_previous_state(self, blocker):
        # the same id with its cells gone emits nothing, whatever an
        # earlier preview of that id emitted
        handle = blocker.incremental(RIGHT, "id", "id")
        twin = {"id": 1, "num": RIGHT["num"][0], "title": RIGHT["title"][0]}
        assert handle.preview(rows_table([twin]))
        assert handle.preview(rows_table([{"id": 1, "num": None, "title": None}])) == []


class TestTypedErrors:
    """Satellite: no silent full-re-block fallback for unsupported blockers."""

    NON_INCREMENTAL = [
        RuleBasedBlocker(lambda left, right: True),
        BlackBoxBlocker(lambda left, right: 1.0),
        SortedNeighborhoodBlocker("title", "title"),
    ]

    def test_error_is_a_blocking_error(self):
        assert issubclass(IncrementalBlockingError, BlockingError)

    @pytest.mark.parametrize(
        "blocker", NON_INCREMENTAL, ids=lambda b: type(b).__name__
    )
    def test_incremental_raises_typed_error(self, blocker):
        assert not blocker.supports_incremental
        with pytest.raises(
            IncrementalBlockingError, match="does not support incremental"
        ):
            blocker.incremental(RIGHT, "id", "id")

    @pytest.mark.parametrize(
        "blocker",
        [
            AttrEquivalenceBlocker("num", "num", block_size_policy=2),
            OverlapBlocker("title", "title", threshold=2, block_size_policy=2),
            OverlapCoefficientBlocker("title", "title", 0.6, block_size_policy=2),
        ],
        ids=lambda b: b.short_name,
    )
    def test_capped_blocker_refuses_a_handle(self, blocker):
        assert blocker.supports_incremental
        with pytest.raises(IncrementalBlockingError, match="block-size caps"):
            blocker.incremental(RIGHT, "id", "id")


class TestSection10Replay:
    def test_apply_patch_equals_figure10_rerun(self, case_study):
        """The full Section-10 replay: late records through the delta path
        equal the batch Figure-10 rerun field for field."""
        from repro.casestudy import train_workflow_matcher
        from repro.casestudy.blocking_plan import make_blockers
        from repro.casestudy.workflows import positive_rules
        from repro.core import EMWorkflow
        from repro.features import extract_feature_vectors
        from repro.rules.negative import default_negative_rules
        from repro.serving import MatchService
        from repro.store import fingerprint_matrix

        run = case_study
        tables, extra = run.projected_v2, run.projected_extra
        reference = run.final_workflow
        with EngineSession(seed=run.config.seed) as session:
            matcher = train_workflow_matcher(
                run.blocking_v2.candidates, run.labeling.labels,
                run.matching.feature_set, run.matching.matcher,
                session=session,
            )
            service = MatchService(
                tables.umetrics, tables.usda, tables.l_key, tables.r_key,
                matcher=matcher, feature_set=run.matching.feature_set,
                blockers=make_blockers(), positive_rules=positive_rules(),
                negative_rules=default_negative_rules(), session=session,
            )
            result = service.apply_patch(upserts=extra.umetrics, provenance=True)
            batch = reference.extra
            assert result.sure_matches == tuple(batch.sure_matches.pairs)
            assert result.candidates == tuple(batch.blocked.pairs)
            assert result.to_predict == tuple(batch.to_predict.pairs)
            assert result.predicted_matches == batch.predicted_matches
            assert result.flipped == batch.flipped
            assert result.matches == batch.matches
            assert set(service.current_matches()) == set(reference.matches)

            # feature rows: extraction over the delta path's candidate
            # pairs (re-keyed onto the service's tables) is bit-identical
            # to the rerun's prediction inputs
            delta_candidates = CandidateSet(
                extra.umetrics, tables.usda, tables.l_key, tables.r_key,
                list(result.to_predict), name="delta",
            )
            delta_matrix = extract_feature_vectors(
                delta_candidates, run.matching.feature_set, session=session
            )
            rerun_matrix = extract_feature_vectors(
                batch.to_predict, run.matching.feature_set, session=session
            )
            assert fingerprint_matrix(delta_matrix) == fingerprint_matrix(
                rerun_matrix
            )

            # provenance: per-pair lineage equals a provenance-enabled
            # batch rerun over the same slice
            workflow = EMWorkflow(
                name="figure10",
                positive_rules=positive_rules(),
                blockers=make_blockers(),
                negative_rules=default_negative_rules(),
            )
            rerun = workflow.run(
                extra.umetrics, extra.usda, extra.l_key, extra.r_key,
                matcher, run.matching.feature_set,
                provenance=True, session=session,
            )
            for pair in list(result.matches)[:10]:
                assert result.explain_pair(*pair) == rerun.provenance.explain_pair(
                    *pair
                )
