"""Feature-vector extraction: candidate pairs -> numpy matrices.

Converts candidate pairs (or any list of id pairs over the base tables)
into a dense feature matrix, with NaN marking features whose inputs were
missing. The companion :class:`FeatureMatrix` keeps the pair ids and
feature names aligned with the rows/columns, which the debugging tools
need to point back at records.

Extraction is the Section-9 hot path (n pairs x d features). It runs
*columnar over interned ids*:

* token set measures (``jac``/``cos``/``dice``/``overlap_coeff``) are
  gathered into :class:`~repro.runtime.columnar.TokenColumn` chunk
  columns from the shared :class:`~repro.runtime.cache.TokenCache` (each
  cell tokenized and interned once per recipe, not once per pair per
  feature) and scored one *chunk* per call by the batch kernels in
  :mod:`repro.similarity.batch` — no per-pair Python call survives on
  the hot path;
* Monge-Elkan reads token *bags* in tokenizer order and memoizes its
  inner Jaro-Winkler calls per distinct token-id pair;
* string/numeric features keep their reference functions but memoize per
  distinct ``(left value, right value)`` pair — cell values repeat
  heavily across candidate pairs.

All of it produces cell-for-cell the matrix a row-dict loop of
``feature.from_rows`` calls gives (the kernels mirror the reference float
expressions, and memoization only caches pure functions), which the
parity tests assert against the loop kept in ``tests/blocking_reference.py``.

``extract_feature_vectors`` resolves an
:class:`~repro.runtime.context.EngineSession` (explicit or ambient) and
spreads contiguous
pair-index chunks over the session's process pool; chunks ship compact
id arrays, and workers rebuild value-feature functions from their
:attr:`~repro.features.feature.Feature.spec` recipes (the closures
themselves do not pickle). Features without a spec (custom black-box
features) force the serial path, which is also the fallback whenever the
pool cannot run. Parallel results are identical to serial ones: same
chunk code, concatenated in pair order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..blocking.candidate_set import CandidateSet, Pair
from ..errors import FeatureError
from ..ml.impute import MeanImputer
from ..runtime.cache import TokenCache, lowercase
from ..runtime.columnar import TokenColumn, gather_column
from ..runtime.context import EngineSession, resolve_session
from ..runtime.executor import WorkerPool, chunk_ranges
from ..runtime.instrument import count, stage
from ..similarity import batch
from ..similarity.sequence import jaro_winkler
from .feature import NAN, Feature, feature_from_spec
from .generate import FeatureSet


@dataclass
class FeatureMatrix:
    """A feature matrix with row (pair) and column (feature) identity."""

    pairs: list[Pair]
    feature_names: list[str]
    values: np.ndarray
    #: Lazy pair -> row-index map; built on first ``row_for`` call so the
    #: matcher-debugging loop stays O(1) per lookup instead of O(n).
    _row_index: dict[Pair, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Content fingerprint carried from the artifact store: set when the
    #: store encodes or decodes this matrix, read by
    #: :func:`~repro.store.fingerprint.fingerprint_matrix`. Derived
    #: matrices (``select_rows``, ``impute_means``) start without one.
    _fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.pairs), len(self.feature_names)):
            raise FeatureError(
                f"matrix shape {self.values.shape} does not match "
                f"{len(self.pairs)} pairs x {len(self.feature_names)} features"
            )

    def __len__(self) -> int:
        return len(self.pairs)

    def row_for(self, pair: Pair) -> np.ndarray:
        if self._row_index is None:
            self._row_index = {tuple(p): i for i, p in enumerate(self.pairs)}
        try:
            index = self._row_index[tuple(pair)]
        except KeyError:
            # same exception family list.index raised before the dict lookup
            raise ValueError(f"pair {tuple(pair)!r} is not in the feature matrix") from None
        return self.values[index]

    def select_rows(self, indices: Sequence[int]) -> "FeatureMatrix":
        indices = list(indices)
        return FeatureMatrix(
            pairs=[self.pairs[i] for i in indices],
            feature_names=list(self.feature_names),
            values=self.values[indices],
        )

    def impute_means(self, imputer: MeanImputer | None = None) -> "FeatureMatrix":
        """Fill NaN with column means; pass a fitted imputer to reuse the
        training-set means on a new matrix (Section 9 applies the same
        imputation to the labeled set and the candidate set)."""
        if imputer is None:
            imputer = MeanImputer()
            imputer.fit(self.values)
        filled = imputer.transform(self.values)
        return FeatureMatrix(list(self.pairs), list(self.feature_names), filled)


def _monge_elkan_ids(
    a: Sequence[int],
    b: Sequence[int],
    token_map: dict[int, str],
    jw_memo: dict[tuple[int, int], float],
) -> float:
    """Monge-Elkan over interned token bags, Jaro-Winkler inner similarity.

    Mirrors :func:`~repro.similarity.hybrid.monge_elkan` step for step —
    same guards, same left-to-right accumulation order — so the float is
    bit-identical; the memo only skips *recomputing* a pure inner call.
    """
    if not len(a) and not len(b):
        return 1.0
    if not len(a) or not len(b):
        return 0.0
    total = 0.0
    for ia in a:
        ta = token_map[ia]
        best = None
        for ib in b:
            key = (ia, ib)
            sim = jw_memo.get(key)
            if sim is None:
                sim = jw_memo[key] = jaro_winkler(ta, token_map[ib])
            if best is None or sim > best:
                best = sim
        total += best
    return total / len(a)


def _kernel_columns(
    candidates: CandidateSet,
    pairs: list[Pair],
    features: list[Feature],
    cache: TokenCache,
) -> tuple[list[tuple], dict[int, str]]:
    """Columnar inputs for the kernel extraction, one entry per feature.

    Each column is ``(kind, meta, a_list, b_list)`` with the per-pair
    inputs already gathered (``a_list[i]`` belongs to ``pairs[i]``):

    * ``("set", measure, TokenColumn, TokenColumn)`` — columnar token-id
      sets for the batch kernels in :mod:`repro.similarity.batch`
      (missing cells ride along as the columns' ``missing`` rows and
      come out as NaN);
    * ``("mel", None, bag, bag)`` — tokenizer-order id bags;
    * ``("value", spec, value, value)`` — raw cell values for
      string/numeric/custom features (``spec`` rebuilds the function in
      workers; it is ``None`` for custom features, which never leave the
      serial path).

    Also returns the token-id -> string map the Monge-Elkan inner
    similarity needs (only ids actually reachable from *pairs*).
    """
    from ..text.tokenizers import TOKENIZERS

    ltable, rtable = candidates.ltable, candidates.rtable
    l_index, r_index = candidates.l_row_index, candidates.r_row_index
    li = [l_index[pair[0]] for pair in pairs]
    ri = [r_index[pair[1]] for pair in pairs]
    columns: list[tuple] = []
    mel_ids: set[int] = set()
    for feature in features:
        spec = feature.spec
        if spec is not None and spec[0] == "token":
            _, l_attr, r_attr, measure, tokenizer_name, casefold = spec
            tokenizer = TOKENIZERS[tokenizer_name]
            normalizer = lowercase if casefold else None
            if measure in batch.BATCH_KERNELS:
                l_col = cache.column_token_ids(ltable, l_attr, tokenizer, normalizer)
                r_col = cache.column_token_ids(rtable, r_attr, tokenizer, normalizer)
                columns.append(
                    ("set", measure, gather_column(l_col, li), gather_column(r_col, ri))
                )
                continue
            if measure == "mel":
                l_col = cache.column_token_bag_ids(ltable, l_attr, tokenizer, normalizer)
                r_col = cache.column_token_bag_ids(rtable, r_attr, tokenizer, normalizer)
                a_list = [l_col[i] for i in li]
                b_list = [r_col[i] for i in ri]
                for bag in a_list:
                    if bag is not None:
                        mel_ids.update(bag)
                for bag in b_list:
                    if bag is not None:
                        mel_ids.update(bag)
                columns.append(("mel", None, a_list, b_list))
                continue
        l_col = ltable[feature.l_attr]
        r_col = rtable[feature.r_attr]
        columns.append(
            ("value", spec, [l_col[i] for i in li], [r_col[i] for i in ri])
        )
    token_of = cache.vocabulary.token_of
    token_map = {tid: token_of(tid) for tid in mel_ids}
    return columns, token_map


def _extract_kernel_chunk(
    n: int,
    columns: list[tuple],
    token_map: dict[int, str],
    functions: list[Any] | None = None,
) -> np.ndarray:
    """Evaluate kernel columns for *n* pairs (the serial path runs it
    inline over all pairs; workers run it per chunk with *functions*
    unset and rebuild value-feature functions from their specs)."""
    values = np.empty((n, len(columns)))
    jw_memo: dict[tuple[int, int], float] = {}
    for j, (kind, meta, a_list, b_list) in enumerate(columns):
        if kind == "set":
            # one batch-kernel call scores the whole chunk column; missing
            # cells surface as NaN straight from the kernel
            values[:, j] = np.frombuffer(batch.score_batch(meta, a_list, b_list))
        elif kind == "mel":
            for i in range(n):
                a, b = a_list[i], b_list[i]
                values[i, j] = (
                    NAN
                    if a is None or b is None
                    else _monge_elkan_ids(a, b, token_map, jw_memo)
                )
        else:
            fn = functions[j] if functions is not None else feature_from_spec(meta).function
            if meta is None:
                # custom feature: purity unknown, never memoize
                for i in range(n):
                    values[i, j] = fn(a_list[i], b_list[i])
                continue
            memo: dict[tuple[Any, Any], float] = {}
            for i in range(n):
                a, b = a_list[i], b_list[i]
                try:
                    value = memo[(a, b)]
                except KeyError:
                    value = memo[(a, b)] = fn(a, b)
                except TypeError:  # unhashable cell value
                    value = fn(a, b)
                values[i, j] = value
    return values


def _slice_column(column: tuple, start: int, stop: int) -> tuple:
    kind, meta, a_list, b_list = column
    if isinstance(a_list, TokenColumn):
        return (kind, meta, a_list.slice(start, stop), b_list.slice(start, stop))
    return (kind, meta, a_list[start:stop], b_list[start:stop])


def extract_feature_vectors(
    candidates: CandidateSet,
    feature_set: FeatureSet,
    pairs: Sequence[Pair] | None = None,
    *,
    session: EngineSession | None = None,
) -> FeatureMatrix:
    """Compute the feature matrix for *pairs* (default: all candidates).

    Runs as an :class:`~repro.store.stages.ExtractStage` through the
    resolved :class:`~repro.runtime.context.EngineSession`: a session with
    ``workers >= 2`` (or a shared pool) splits the pair list into
    contiguous index chunks and evaluates them in a process pool — the
    result is identical to the serial computation — and a session with a
    store memoizes the extraction by the content fingerprints of the base
    tables, the pair list and the feature-set recipes.
    """
    # Lazy import: the store's codecs build FeatureMatrix objects from
    # this module.
    from ..store.stages import ExtractStage

    return resolve_session(session).run_stage(
        ExtractStage(candidates, feature_set, pairs=pairs)
    )


def _extract_impl(
    candidates: CandidateSet,
    feature_set: FeatureSet,
    pairs: Sequence[Pair] | None,
    session: EngineSession,
) -> FeatureMatrix:
    """The extraction body (no store glue — the session already applied it)."""
    workers = session.workers
    instrumentation = session.instrumentation
    pool = session.worker_pool
    if pairs is None:
        pairs = candidates.pairs
    pairs = [tuple(p) for p in pairs]
    n, d = len(pairs), len(feature_set)
    features = list(feature_set)
    parallel_ok = (
        (workers > 1 or (pool is not None and pool.active))
        and n > 1
        and all(f.spec is not None for f in features)
    )
    with stage(instrumentation, "extract_features"):
        count(instrumentation, "pairs", n)
        count(instrumentation, "cells", n * d)
        columns, token_map = _kernel_columns(
            candidates, pairs, features, session.token_cache
        )
        functions = [f.function for f in features]
        if parallel_ok:
            values = _extract_kernel_parallel(
                columns, token_map, n, d, session, functions
            )
        else:
            values = _extract_kernel_chunk(n, columns, token_map, functions)
    return FeatureMatrix(pairs=pairs, feature_names=feature_set.names, values=values)


def _extract_kernel_parallel(
    columns: list[tuple],
    token_map: dict[int, str],
    n: int,
    d: int,
    session: EngineSession,
    functions: list[Any],
) -> np.ndarray:
    """Parallel kernel extraction with the mel columns kept in the parent.

    Monge-Elkan resists row chunking: its cost is dominated by the
    *distinct* token-pair Jaro-Winkler evaluations, and nearly every
    distinct pair occurs in every row chunk — so each worker would redo
    close to the whole memoized workload. Instead the set/value columns
    (cleanly row-parallel) are submitted to the pool asynchronously and
    the parent computes the mel columns with the run-wide memo *while the
    workers run*, then scatters both into the result. Any pool failure
    recomputes the submitted columns inline — identical either way.
    """
    workers = session.workers
    instrumentation = session.instrumentation
    pool = session.worker_pool
    effective = workers if workers > 1 else (pool.workers if pool else 1)
    mel_idx = [j for j, c in enumerate(columns) if c[0] == "mel"]
    rest_idx = [j for j, c in enumerate(columns) if c[0] != "mel"]
    rest_cols = [columns[j] for j in rest_idx]
    ranges = chunk_ranges(n, effective)
    submitted = None
    owner: WorkerPool | None = None
    target = pool
    if rest_cols and len(ranges) > 1:
        if target is None:
            target = owner = WorkerPool(min(effective, len(ranges)))
        payloads = [
            (stop - start, [_slice_column(c, start, stop) for c in rest_cols], {})
            for start, stop in ranges
        ]
        submitted = target.submit_chunks(_extract_kernel_chunk, payloads)
    values = np.empty((n, d))
    if mel_idx:
        values[:, mel_idx] = _extract_kernel_chunk(
            n, [columns[j] for j in mel_idx], token_map
        )
    outcomes = None
    if submitted is not None:
        futures, shipped = submitted
        outcomes = target.gather(futures)
        if outcomes is not None:
            count(instrumentation, "pickled_bytes", shipped)
            count(instrumentation, "pickled_chunks", len(futures))
            for (start, stop), (block, seconds, pid, extras) in zip(ranges, outcomes):
                if instrumentation is not None:
                    instrumentation.record_chunk(pid, stop - start, seconds, **extras)
                values[start:stop, rest_idx] = block
    if owner is not None:
        owner.shutdown()
    if rest_cols and outcomes is None:
        count(instrumentation, "parallel_fallbacks")
        values[:, rest_idx] = _extract_kernel_chunk(
            n, rest_cols, {}, [functions[j] for j in rest_idx]
        )
    return values

