"""Instrumented runtime for the pipeline's hot paths.

The unifying entry point is :mod:`~repro.runtime.context` — an
:class:`~repro.runtime.context.EngineSession` owns the token cache,
artifact store, instrumentation, metrics, provenance policy and seed,
and `session.run_stage` is the single store/trace/provenance glue path
every stage operator runs through. Every stage runs serially in the
calling process.

Underneath it, two small pieces:

* :mod:`~repro.runtime.cache` — a shared tokenization memo-cache so the
  Section-7 blockers and down-sampling tokenize each column once;
* :mod:`~repro.runtime.instrument` — nestable stage timers/counters with a
  text :class:`~repro.runtime.instrument.StageReport` renderer.

Every public entry point takes a keyword-only ``session=``; without one
(and without an ambient session) it runs under a default
``EngineSession()`` — no store, no instrumentation.
"""

from .cache import CacheStats, InternedTokens, TokenCache, get_default_cache
from .context import (
    DEFAULT_SEED,
    EngineSession,
    StageOperator,
    current_session,
    resolve_session,
)
from .instrument import (
    Instrumentation,
    StageReport,
    StageStats,
    count,
    merge_siblings,
    stage,
)

__all__ = [
    "CacheStats",
    "DEFAULT_SEED",
    "EngineSession",
    "Instrumentation",
    "InternedTokens",
    "StageOperator",
    "StageReport",
    "StageStats",
    "TokenCache",
    "count",
    "current_session",
    "get_default_cache",
    "merge_siblings",
    "resolve_session",
    "stage",
]
