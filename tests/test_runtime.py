"""Tests for the parallel runtime: executor, token cache, instrumentation.

The parallel-equivalence tests (marked ``parallel``) assert the central
runtime guarantee — ``workers >= 2`` produces bit-identical results to the
serial path — over the generated scenario tables. Set ``REPRO_WORKERS=0``
(or ``1``) to skip them on machines where process pools are unavailable.
"""

import os

import numpy as np
import pytest

from repro.blocking import (
    OverlapBlocker,
    OverlapCoefficientBlocker,
    RuleBasedBlocker,
    down_sample,
)
from repro.features import extract_feature_vectors, generate_features
from repro.runtime import (
    ChunkedExecutor,
    EngineSession,
    Instrumentation,
    TokenCache,
    WorkerPool,
    chunk_ranges,
)
from repro.table import Table
from repro.text import normalize_title, whitespace

WORKERS_AVAILABLE = int(os.environ.get("REPRO_WORKERS", "2"))

needs_workers = pytest.mark.skipif(
    WORKERS_AVAILABLE < 2,
    reason="REPRO_WORKERS < 2 disables parallel-equivalence tests",
)


def _square_chunk(values):
    """Module-level chunk function (picklable for the pool tests)."""
    return [v * v for v in values]


class TestChunkRanges:
    def test_exact_cover_in_order(self):
        for n in (1, 2, 7, 100, 1001):
            for workers in (1, 2, 3, 8):
                ranges = chunk_ranges(n, workers)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start
                assert all(stop > start for start, stop in ranges)

    def test_empty_input(self):
        assert chunk_ranges(0, 4) == []
        assert chunk_ranges(-3, 4) == []

    def test_serial_is_single_range(self):
        assert chunk_ranges(100, 1) == [(0, 100)]
        assert chunk_ranges(100, 0) == [(0, 100)]

    def test_chunk_count_bounded(self):
        ranges = chunk_ranges(1000, 4, chunks_per_worker=4)
        assert len(ranges) == 16
        assert chunk_ranges(3, 4) == [(0, 1), (1, 2), (2, 3)]


class TestChunkedExecutor:
    def payloads(self):
        return [(list(range(i, i + 3)),) for i in range(0, 12, 3)]

    def test_serial_map(self):
        executor = ChunkedExecutor(workers=1)
        results = executor.map(_square_chunk, self.payloads())
        assert results == [[i * i for i in range(s, s + 3)] for s in (0, 3, 6, 9)]

    @needs_workers
    def test_parallel_map_matches_serial(self):
        serial = ChunkedExecutor(workers=1).map(_square_chunk, self.payloads())
        parallel = ChunkedExecutor(workers=2).map(_square_chunk, self.payloads())
        assert parallel == serial

    @needs_workers
    def test_unpicklable_payload_falls_back(self):
        # lambdas cannot be pickled: the pool fails and the executor must
        # recompute serially, still returning the right answer.
        instr = Instrumentation()
        executor = ChunkedExecutor(workers=2, instrumentation=instr)
        fn = lambda values: [v + 1 for v in values]  # noqa: E731
        results = executor.map(fn, [([1, 2],), ([3],)])
        assert results == [[2, 3], [4]]
        assert instr.root.counters.get("parallel_fallbacks") == 1

    def test_chunk_records_instrumented(self):
        instr = Instrumentation()
        executor = ChunkedExecutor(workers=1, instrumentation=instr)
        with instr.stage("work"):
            executor.map(_square_chunk, self.payloads(), sizes=[3, 3, 3, 3])
        work = instr.find("work")
        assert len(work.chunks) == 4
        assert all(c.items == 3 for c in work.chunks)


class TestTokenCache:
    def make_table(self):
        return Table(
            {"id": [1, 2, 3], "t": ["Corn Fungicide", None, "   "]}, name="T"
        )

    def test_hit_and_miss_counting(self):
        cache = TokenCache()
        table = self.make_table()
        first = cache.column_tokens(table, "t", whitespace, normalize_title)
        second = cache.column_tokens(table, "t", whitespace, normalize_title)
        assert first is second
        assert cache.stats().hits == 1 and cache.stats().misses == 1

    def test_distinct_recipes_cached_separately(self):
        cache = TokenCache()
        table = self.make_table()
        cache.column_tokens(table, "t", whitespace, normalize_title)
        cache.column_tokens(table, "t", whitespace, None)
        assert cache.stats().misses == 2

    def test_missing_and_empty_cells(self):
        cache = TokenCache()
        table = self.make_table()
        column = cache.column_tokens(table, "t", whitespace, normalize_title)
        assert column[0] == frozenset({"corn", "fungicide"})
        assert column[1] is None  # missing cell
        assert not column[2]  # whitespace-only -> no tokens

    def test_tokens_by_id_drops_tokenless_rows(self):
        from tests.blocking_reference import tokens_by_id

        cache = TokenCache()
        table = self.make_table()
        by_id = tokens_by_id(table, "t", "id", whitespace, normalize_title)
        assert set(by_id) == {1}
        assert by_id[1] == frozenset({"corn", "fungicide"})
        entries = cache.token_ids_by_id(table, "t", "id", whitespace, normalize_title)
        assert list(entries) == list(by_id)
        decoded = {cache.vocabulary.token_of(t) for t in entries[1].probe}
        assert decoded == by_id[1]

    def test_clear(self):
        cache = TokenCache()
        table = self.make_table()
        cache.column_tokens(table, "t", whitespace)
        cache.clear()
        assert cache.stats().requests == 0
        cache.column_tokens(table, "t", whitespace)
        assert cache.stats().misses == 1


class TestInstrumentation:
    def test_nested_stages_and_counters(self):
        instr = Instrumentation()
        with instr.stage("outer"):
            with instr.stage("inner"):
                instr.count("pairs", 5)
            instr.count("pairs", 2)
        outer = instr.find("outer")
        inner = instr.find("inner")
        assert outer.counters == {"pairs": 2}
        assert inner.counters == {"pairs": 5}
        assert outer.children == [inner]
        assert outer.seconds >= inner.seconds >= 0

    def test_counters_without_open_stage_go_to_root(self):
        instr = Instrumentation()
        instr.count("loose")
        assert instr.root.counters == {"loose": 1}

    def test_report_renders_tree(self):
        instr = Instrumentation()
        with instr.stage("blocking"):
            with instr.stage("probe"):
                instr.count("pairs_out", 42)
                instr.record_chunk(worker=123, items=10, seconds=0.5)
        text = str(instr.report(title="demo"))
        assert "demo" in text
        assert "blocking" in text
        assert "probe" in text
        assert "pairs_out=42" in text
        assert "chunks=1 workers=1 slowest=0.500s" in text


def _num_equal_predicate(l_row, r_row):
    """Module-level (picklable) rule predicate for the pool tests."""
    return l_row["num"] is not None and l_row["num"] == r_row["num"]


def _rule_tables():
    """Synthetic tables with many guaranteed equi-join matches."""
    left = Table(
        {"id": list(range(120)), "num": [f"N{i % 30}" for i in range(120)]},
        name="L",
    )
    right = Table(
        {"id": list(range(1000, 1080)), "num": [f"N{i % 40}" for i in range(80)]},
        name="R",
    )
    return left, right


@pytest.mark.parallel
@needs_workers
class TestParallelEquivalence:
    """workers >= 2 must reproduce the serial results exactly."""

    @pytest.fixture(scope="class")
    def tables(self, case_study):
        return case_study.projected

    @pytest.mark.parametrize("workers", [2, 4])
    def test_overlap_blocker(self, tables, workers):
        blocker = OverlapBlocker(
            "AwardTitle", "AwardTitle", threshold=3, normalizer=normalize_title
        )
        args = (tables.umetrics, tables.usda, tables.l_key, tables.r_key)
        serial = blocker.block_tables(*args)
        with EngineSession(workers=workers) as session:
            parallel = blocker.block_tables(*args, session=session)
        assert parallel.pairs == serial.pairs  # same pairs, same order

    @pytest.mark.parametrize("workers", [2, 4])
    def test_overlap_coefficient_blocker(self, tables, workers):
        blocker = OverlapCoefficientBlocker(
            "AwardTitle", "AwardTitle", threshold=0.7, normalizer=normalize_title
        )
        args = (tables.umetrics, tables.usda, tables.l_key, tables.r_key)
        serial = blocker.block_tables(*args)
        with EngineSession(workers=workers) as session:
            parallel = blocker.block_tables(*args, session=session)
        assert parallel.pairs == serial.pairs

    @pytest.mark.parametrize("workers", [2, 4])
    def test_rule_based_blocker_picklable_predicate(self, workers):
        left, right = _rule_tables()
        blocker = RuleBasedBlocker(_num_equal_predicate, index_attrs=("num", "num"))
        serial = blocker.block_tables(left, right, "id", "id")
        with EngineSession(workers=workers) as session:
            parallel = blocker.block_tables(left, right, "id", "id", session=session)
        assert serial.pairs  # the synthetic tables must actually join
        assert parallel.pairs == serial.pairs

    def test_rule_based_blocker_lambda_falls_back(self):
        left, right = _rule_tables()
        predicate = lambda l, r: l["num"] is not None and l["num"] == r["num"]  # noqa: E731
        blocker = RuleBasedBlocker(predicate, index_attrs=("num", "num"))
        serial = blocker.block_tables(left, right, "id", "id")
        instr = Instrumentation()
        with EngineSession(workers=2, instrumentation=instr) as session:
            parallel = blocker.block_tables(left, right, "id", "id", session=session)
        assert serial.pairs
        assert parallel.pairs == serial.pairs
        # the unpicklable predicate must have forced the serial fallback
        evaluate = instr.find("evaluate")
        assert evaluate.counters.get("parallel_fallbacks") == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_feature_extraction(self, tables, workers):
        blocker = OverlapBlocker(
            "AwardTitle", "AwardTitle", threshold=3, normalizer=normalize_title
        )
        candidates = blocker.block_tables(
            tables.umetrics, tables.usda, tables.l_key, tables.r_key
        )
        fs = generate_features(
            tables.umetrics, tables.usda, exclude_attrs=[tables.l_key]
        )
        serial = extract_feature_vectors(candidates, fs)
        with EngineSession(workers=workers) as session:
            parallel = extract_feature_vectors(candidates, fs, session=session)
        assert parallel.pairs == serial.pairs
        assert parallel.feature_names == serial.feature_names
        assert np.array_equal(parallel.values, serial.values, equal_nan=True)

    def test_down_sample(self, tables):
        serial = down_sample(
            tables.umetrics, tables.usda, ["AwardTitle"], b_size=50, a_size=60,
            rng=np.random.default_rng(11),
        )
        with EngineSession(workers=2) as session:
            parallel = down_sample(
                tables.umetrics, tables.usda, ["AwardTitle"], b_size=50, a_size=60,
                rng=np.random.default_rng(11), session=session,
            )
        for s_table, p_table in zip(serial, parallel):
            assert p_table[tables.l_key] == s_table[tables.l_key]

    def test_instrumented_parallel_blocking_reports_chunks(self, tables):
        instr = Instrumentation()
        with EngineSession(workers=2, instrumentation=instr) as session:
            OverlapBlocker(
                "AwardTitle", "AwardTitle", threshold=3, normalizer=normalize_title
            ).block_tables(
                tables.umetrics, tables.usda, tables.l_key, tables.r_key,
                session=session,
            )
        probe = instr.find("probe")
        assert probe is not None and probe.chunks
        text = str(instr.report())
        assert "probe" in text and "pairs_out" in text


class TestWorkerPool:
    def test_serial_pool_is_inert(self):
        pool = WorkerPool(workers=1)
        assert not pool.active
        assert pool.run_chunks(_square_chunk, [([1, 2],)]) is None
        pool.shutdown()  # no-op, idempotent

    def test_unpicklable_payload_keeps_pool_healthy(self):
        pool = WorkerPool(workers=2)
        fn = lambda values: values  # noqa: E731 - unpicklable on purpose
        assert pool.run_chunks(fn, [([1],)]) is None
        assert pool.active  # only the one call degraded
        pool.shutdown()

    def test_broken_pool_stays_down(self):
        pool = WorkerPool(workers=2)
        pool._broken = True
        assert not pool.active
        assert pool.run_chunks(_square_chunk, [([1],)]) is None

    @needs_workers
    @pytest.mark.parallel
    def test_reuse_across_calls_and_counters(self):
        with WorkerPool(workers=2) as pool:
            first = pool.run_chunks(_square_chunk, [([1, 2],), ([3],)])
            executor = pool._executor
            second = pool.run_chunks(_square_chunk, [([4],), ([5, 6],)])
            assert pool._executor is executor  # same processes, reused
        assert [r for r, *_ in first[0]] == [[1, 4], [9]]
        assert [r for r, *_ in second[0]] == [[16], [25, 36]]
        # the parent pickled the payloads itself: exact byte accounting
        assert first[1] > 0 and second[1] > 0
        assert pool.pickled_bytes == first[1] + second[1]
        assert pool.pickled_chunks == 4

    @needs_workers
    @pytest.mark.parallel
    def test_shared_pool_across_executors(self):
        instr = Instrumentation()
        with WorkerPool(workers=2) as pool:
            results = []
            for _ in range(2):  # two stages sharing one pool
                executor = ChunkedExecutor(instrumentation=instr, pool=pool)
                assert executor.parallel
                results.append(executor.map(_square_chunk, [([1, 2],), ([3, 4],)]))
        assert results == [[[1, 4], [9, 16]], [[1, 4], [9, 16]]]
        assert instr.root.counters.get("pickled_chunks") == 4
        assert instr.root.counters.get("pickled_bytes", 0) > 0

    def test_executor_falls_back_when_pool_broken(self):
        instr = Instrumentation()
        pool = WorkerPool(workers=2)
        pool._broken = True
        executor = ChunkedExecutor(instrumentation=instr, pool=pool)
        assert not executor.parallel
        assert executor.map(_square_chunk, [([2],), ([3],)]) == [[4], [9]]


class TestCaseStudyPoolLifecycle:
    def test_serial_run_never_builds_a_pool(self):
        from repro.casestudy import CaseStudyRun

        run = CaseStudyRun()
        assert run.worker_pool is None
        run.close()

    def test_injected_pool_is_not_owned(self):
        from repro.casestudy import CaseStudyRun

        pool = WorkerPool(workers=2)
        run = CaseStudyRun(session=EngineSession(pool=pool))
        assert run.worker_pool is pool
        run.close()  # must not shut down a pool it does not own
        assert pool.active
        pool.shutdown()

    def test_owned_pool_created_lazily_and_closed(self):
        from repro.casestudy import CaseStudyRun

        with EngineSession(workers=2) as session, CaseStudyRun(session=session) as run:
            pool = run.worker_pool
            assert isinstance(pool, WorkerPool)
            assert run.worker_pool is pool  # one pool per run
        assert not pool.active or pool._executor is None


class TestProbePayloadOrderStability:
    """Probe order must survive the pickle boundary to worker processes.

    An unpickled frozenset can iterate in a different order than the
    original (reinsertion may produce a different hash-table layout), so
    any chunk payload whose *output order* depends on token iteration
    order must ship that order as a list, materialized in the parent.
    """

    @staticmethod
    def _order_changing_frozenset():
        """A frozenset whose pickle round trip reorders iteration.

        Depends on this process's string-hash seed, so search for a
        witness instead of hard-coding one.
        """
        import pickle
        import random

        rng = random.Random(7)
        for size in range(8, 64):
            for attempt in range(200):
                items = [f"tok{rng.randrange(10**6)}_{i}" for i in range(size)]
                rng.shuffle(items)
                s = frozenset(items)
                if list(pickle.loads(pickle.dumps(s))) != list(s):
                    return s
        return None

    def test_coefficient_probe_order_survives_pickle(self):
        import pickle

        from repro.blocking.overlap_family import _probe_chunk
        from repro.runtime.columnar import TokenColumn
        from repro.similarity.batch import overlap_coefficient_at_least_batch
        from repro.text.intern import Vocabulary, id_array

        witness = self._order_changing_frozenset()
        if witness is None:
            pytest.skip("no order-changing frozenset under this hash seed")
        # The probe ships as an id array in the parent frozenset's
        # iteration order. One right record per left token: every
        # candidate survives, so emission replays the probe order.
        vocab = Vocabulary()
        probe = id_array(vocab.intern(tok) for tok in witness)
        rids = tuple(f"r{i}" for i in range(len(probe)))
        index = {tid: [rid] for tid, rid in zip(probe, rids)}
        payload = (
            ["l0"],
            [probe],
            TokenColumn.from_sets([frozenset(probe)]),
            rids,
            TokenColumn.from_sets([frozenset([tid]) for tid in probe]),
            index,
            overlap_coefficient_at_least_batch,
            1e-9,
        )
        shipped = pickle.loads(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert _probe_chunk(*shipped) == _probe_chunk(*payload)
