"""Chunked process-pool execution with a bit-identical serial fallback.

The hot paths of the pipeline — blocking probes and feature-vector
extraction — are embarrassingly parallel over *contiguous chunks* of an
ordered work list (left-table rows, candidate-pair indices). The executor
here runs those chunks through a worker pool and concatenates the results
in submission order, so the output is exactly what the serial loop would
produce.

Two layers:

* :class:`WorkerPool` — a reusable, lazily started
  :class:`~concurrent.futures.ProcessPoolExecutor` wrapper. A run opens
  one pool and shares it across every stage (blocking probes, feature
  extraction), so process startup is paid once per run instead of once
  per ``map`` call. Payloads are pickled *in the parent* so the exact
  shipped byte counts are known and surfaced as ``pickled_bytes`` /
  ``pickled_chunks`` counters.
* :class:`ChunkedExecutor` — the stage-facing mapper. It uses an injected
  shared pool when given one, spins up a transient pool per call
  otherwise (the historical behaviour), and always degrades to inline
  serial execution when the pool cannot be used.

Guarantees:

* ``workers <= 1`` (the default everywhere) never touches multiprocessing —
  the chunk functions run inline, preserving pre-existing behaviour.
* Any pool failure — unpicklable payloads (e.g. a lambda blocking
  predicate), a broken pool, a missing ``fork`` start method — falls back
  to inline execution of the same chunk functions. Results are therefore
  identical whether or not the pool engaged.
* The ``fork`` start method is used when available so children share the
  parent's interpreter state (including its hash seed, keeping any
  hash-order-dependent iteration identical across workers).

Chunk functions must be module-level (picklable by qualified name) and must
receive all state via their payload; they are executed as ``fn(*payload)``.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from .instrument import Instrumentation

#: Chunks per worker: >1 so a skewed chunk doesn't idle the other workers.
CHUNKS_PER_WORKER = 4


def chunk_ranges(n: int, workers: int, chunks_per_worker: int = CHUNKS_PER_WORKER) -> list[tuple[int, int]]:
    """Split ``range(n)`` into contiguous ``[start, stop)`` ranges.

    Produces up to ``workers * chunks_per_worker`` near-equal ranges (never
    empty ones), in order, covering ``range(n)`` exactly. ``n == 0`` yields
    no ranges; ``workers <= 1`` yields a single range.
    """
    if n <= 0:
        return []
    if workers <= 1:
        return [(0, n)]
    target = min(n, max(1, workers) * max(1, chunks_per_worker))
    base, extra = divmod(n, target)
    ranges = []
    start = 0
    for i in range(target):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _peak_rss_bytes() -> int:
    """This process's lifetime peak RSS in bytes (0 where unreadable)."""
    try:
        import resource as _resource
    except ImportError:  # pragma: no cover - Windows
        return 0
    maxrss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    return int(maxrss) * (1 if sys.platform == "darwin" else 1024)


def _cache_counts() -> tuple[int, int]:
    """The process-default token cache's (hits, misses), (0, 0) if unbuilt."""
    from .cache import get_default_cache

    stats = get_default_cache().stats()
    return stats.hits, stats.misses


def _measured_call(fn: Callable, payload: tuple) -> tuple[Any, float, int, dict]:
    """Run one chunk with worker-side telemetry.

    Returns ``(result, seconds, pid, extras)`` where *extras* carries
    the readings only the executing process can take: CPU seconds burned
    by the chunk, the process's peak RSS at chunk end (a lifetime
    high-water mark, so across a worker's chunks it is non-decreasing),
    and the worker-local token-cache hit/miss deltas over the chunk.
    """
    hits0, misses0 = _cache_counts()
    cpu0 = time.process_time()
    started = time.perf_counter()
    result = fn(*payload)
    seconds = time.perf_counter() - started
    cpu = time.process_time() - cpu0
    hits1, misses1 = _cache_counts()
    extras = {
        "cpu_seconds": cpu,
        "peak_rss_bytes": _peak_rss_bytes(),
        "cache_hits": hits1 - hits0,
        "cache_misses": misses1 - misses0,
    }
    return result, seconds, os.getpid(), extras


def _run_pickled(blob: bytes) -> tuple[Any, float, int, dict]:
    """Worker entry point: unpickle ``(fn, payload)`` and run it, measured.

    The parent pickles the pair itself (see :meth:`WorkerPool.run_chunks`),
    so the blob's length *is* the number of bytes shipped for the chunk —
    no second serialization happens beyond the blob itself.
    """
    fn, payload = pickle.loads(blob)
    return _measured_call(fn, payload)


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


class WorkerPool:
    """A reusable process pool shared across pipeline stages.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created lazily on the first :meth:`run_chunks` call and reused until
    :meth:`shutdown`; a run pays worker startup once, not once per stage.
    If the pool ever breaks (a worker dies, the platform cannot fork) the
    pool marks itself broken and every later call returns ``None``, which
    callers treat as "run the chunks inline instead".
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))
        self._executor: ProcessPoolExecutor | None = None
        self._broken = False
        #: Total payload bytes shipped to workers over the pool's lifetime.
        self.pickled_bytes = 0
        #: Total chunks shipped to workers over the pool's lifetime.
        self.pickled_chunks = 0

    @property
    def active(self) -> bool:
        """Whether the pool can (still) run chunks in parallel."""
        return self.workers > 1 and not self._broken

    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=_fork_context(),
                )
            except Exception:  # pragma: no cover - no process support
                self._broken = True
                return None
        return self._executor

    def submit_chunks(
        self, fn: Callable, payloads: Sequence[tuple]
    ) -> tuple[list, int] | None:
        """Ship ``fn(*p)`` for each payload to the pool without waiting.

        Returns ``(futures, shipped_bytes)`` — resolve with
        :meth:`gather` — or ``None`` when the pool could not be used
        (unpicklable payloads, broken pool). Byte/chunk counters are
        charged at submission: the payloads have been shipped whether or
        not the chunks later succeed. The caller may do other work (e.g.
        a memo-bound column the workers cannot split) between submitting
        and gathering.
        """
        if not self.active:
            return None
        try:
            blobs = [
                pickle.dumps((fn, p), protocol=pickle.HIGHEST_PROTOCOL)
                for p in payloads
            ]
        except Exception:
            # Unpicklable payload (e.g. a lambda predicate): the pool stays
            # healthy; only this call degrades to the serial path.
            return None
        executor = self._ensure_executor()
        if executor is None:
            return None
        try:
            futures = [executor.submit(_run_pickled, blob) for blob in blobs]
        except Exception:
            self._broken = True
            self.shutdown()
            return None
        shipped = sum(len(blob) for blob in blobs)
        self.pickled_bytes += shipped
        self.pickled_chunks += len(blobs)
        return futures, shipped

    def gather(self, futures: Sequence) -> list[tuple[Any, float, int, dict]] | None:
        """Outcomes of :meth:`submit_chunks` futures, in submission order.

        ``None`` marks a broken pool (a worker died mid-chunk); the caller
        then recomputes the chunks inline.
        """
        try:
            return [f.result() for f in futures]
        except Exception:
            self._broken = True
            self.shutdown()
            return None

    def run_chunks(
        self, fn: Callable, payloads: Sequence[tuple]
    ) -> tuple[list[tuple[Any, float, int, dict]], int] | None:
        """Run ``fn(*p)`` for each payload on the pool, in order.

        Returns ``(outcomes, shipped_bytes)`` where each outcome is the
        ``(result, seconds, pid, extras)`` tuple of one chunk — *extras*
        being the worker-side telemetry of :func:`_measured_call`
        (CPU seconds, peak RSS, token-cache deltas) — or ``None`` when
        the pool could not be used (unpicklable payloads, broken pool) —
        the caller then runs the same chunks inline, which produces
        identical results by construction.
        """
        submitted = self.submit_chunks(fn, payloads)
        if submitted is None:
            return None
        futures, shipped = submitted
        outcomes = self.gather(futures)
        if outcomes is None:
            return None
        return outcomes, shipped

    def shutdown(self) -> None:
        """Stop the worker processes (idempotent)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ChunkedExecutor:
    """Maps a chunk function over payloads, in parallel when asked to.

    Parameters
    ----------
    workers:
        Target process count; ``<= 1`` means strictly serial (no pool, no
        fallback machinery — the chunk functions run inline).
    instrumentation:
        Optional :class:`~repro.runtime.instrument.Instrumentation`; when
        given, per-chunk durations and worker ids are recorded into the
        currently open stage, plus ``pickled_bytes``/``pickled_chunks``
        for shipped payloads and ``parallel_fallbacks`` counts when the
        pool could not be used.
    pool:
        Optional shared :class:`WorkerPool`. When given it overrides
        *workers* and is reused across calls (and across executors);
        without one, each parallel ``map`` spins up a transient pool —
        the historical per-call behaviour.
    """

    def __init__(
        self,
        workers: int = 1,
        instrumentation: Instrumentation | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        self.pool = pool
        self.workers = pool.workers if pool is not None else max(1, int(workers))
        self.instrumentation = instrumentation

    @property
    def parallel(self) -> bool:
        if self.pool is not None:
            return self.pool.active
        return self.workers > 1

    def map(
        self,
        fn: Callable,
        payloads: Sequence[tuple],
        sizes: Sequence[int] | None = None,
    ) -> list[Any]:
        """``[fn(*p) for p in payloads]``, chunk-parallel when possible.

        *sizes* optionally gives the item count of each payload for
        instrumentation (defaults to 1 per chunk).
        """
        payloads = list(payloads)
        if sizes is None:
            sizes = [1] * len(payloads)
        if not self.parallel or len(payloads) <= 1:
            return self._run_serial(fn, payloads, sizes)
        outcome = self._run_pool(fn, payloads)
        if outcome is None:
            if self.instrumentation is not None:
                self.instrumentation.count("parallel_fallbacks")
            return self._run_serial(fn, payloads, sizes)
        outcomes, shipped = outcome
        if self.instrumentation is not None:
            self.instrumentation.count("pickled_bytes", shipped)
            self.instrumentation.count("pickled_chunks", len(payloads))
        results = []
        for size, (result, seconds, pid, extras) in zip(sizes, outcomes):
            if self.instrumentation is not None:
                self.instrumentation.record_chunk(pid, size, seconds, **extras)
            results.append(result)
        return results

    def _run_serial(self, fn: Callable, payloads: list[tuple], sizes: Sequence[int]) -> list[Any]:
        results = []
        for payload, size in zip(payloads, sizes):
            result, seconds, pid, extras = _measured_call(fn, payload)
            if self.instrumentation is not None:
                self.instrumentation.record_chunk(pid, size, seconds, **extras)
            results.append(result)
        return results

    def _run_pool(self, fn: Callable, payloads: list[tuple]):
        """Chunk outcomes + shipped bytes in submission order, or ``None``."""
        if self.pool is not None:
            return self.pool.run_chunks(fn, payloads)
        with WorkerPool(min(self.workers, len(payloads))) as transient:
            return transient.run_chunks(fn, payloads)
