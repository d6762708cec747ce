"""Feature-vector extraction: candidate pairs -> numpy matrices.

Converts candidate pairs (or any list of id pairs over the base tables)
into a dense feature matrix, with NaN marking features whose inputs were
missing. The companion :class:`FeatureMatrix` keeps the pair ids and
feature names aligned with the rows/columns, which the debugging tools
need to point back at records.

Extraction is the Section-9 hot path (n pairs x d features). It runs
*columnar over interned ids*:

* token features read the interned entries of the shared
  :class:`~repro.runtime.cache.TokenCache` (each distinct cell text
  tokenized and interned once per recipe, not once per pair per
  feature);
* set measures (``jac``/``cos``/``dice``/``overlap_coeff``) gather each
  pair's id sets into two aligned lists and score the whole column in
  one call of a batch kernel in :mod:`repro.similarity.batch` — no
  per-pair Python call survives on the hot path;
* a Monge-Elkan (``mel``) column reads the same entries' token *bags*
  (tokenizer order, repeats kept) and works in three steps: collect the
  distinct token-id pairs its distinct bag pairs need; score the ones
  missing from the session's
  Jaro-Winkler table (:attr:`TokenCache.jw_scores
  <repro.runtime.cache.TokenCache.jw_scores>`, keyed by packed interned
  ids) in one :func:`~repro.similarity.batch.jaro_winkler_batch` call;
  then assemble each pair's value — the row-wise best match, summed
  strictly left to right as the reference sums;
* ``lev_sim``/``jaro``/``jw`` features score each distinct
  ``(str(left), str(right))`` pair of a column once, through the
  character batch kernels, with the missing-cell and case-folding guards
  of the feature functions;
* ``exact_str``, numeric and custom features keep their reference
  functions (the pure ones memoized per distinct value pair).

Below two measured crossovers (:data:`KERNEL_MIN_INPUTS` kernel inputs,
:data:`ASSEMBLY_MIN_SLOTS` Monge-Elkan slots) a column loops the scalar
references over the same table instead, so a single ``match()`` with a
handful of pairs does not pay NumPy's per-call overhead.

All of it produces cell-for-cell the matrix a row-dict loop of
``feature.from_rows`` calls gives (the kernels mirror the reference float
expressions, and the table only caches a pure function), which the
parity tests assert against the loop kept in ``tests/blocking_reference.py``.

``extract_feature_vectors`` resolves an
:class:`~repro.runtime.context.EngineSession` (explicit or ambient) and
evaluates every column in the calling process, over the session's
token cache and Jaro-Winkler table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..blocking.candidate_set import CandidateSet, Pair
from ..errors import FeatureError
from ..ml.impute import MeanImputer
from ..runtime.cache import TokenCache, lowercase, pack_pairs
from ..runtime.context import EngineSession, resolve_session
from ..runtime.instrument import count, stage
from ..similarity import batch
from ..similarity.sequence import jaro_winkler
from ..table.column import is_missing
from .feature import NAN, STRING_MEASURES, Feature
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


#: Fewer inputs than this and a character kernel call in
#: :mod:`repro.similarity.batch` loses to a loop of its scalar reference in
#: :mod:`repro.similarity.sequence`: the inputs are the distinct value
#: pairs of a ``lev_sim``/``jaro``/``jw`` column, or the token pairs a
#: Monge-Elkan column finds missing from the session table. A kernel call
#: costs a fixed 0.15-0.35 ms. Measured on a 2-CPU x86-64 host (median of
#: 41 calls) against full-scale inputs, the kernels drew level with the
#: references at 32 inputs for Jaro and Jaro-Winkler over date strings,
#: 48-64 for Jaro-Winkler over AwardTitle words and 4-5 for Levenshtein
#: over date strings. End to end, with this at 0 the ``serve`` perfbench
#: ``match()`` p50 rose from 0.89 to 1.90 ms: every character column of its
#: ``match()`` calls has fewer than 32 distinct inputs (83% fewer than 5).
KERNEL_MIN_INPUTS = 32

#: Fewer token-pair slots (left tokens x right tokens, summed over the
#: distinct bag pairs) than this and a Monge-Elkan column assembles in a
#: Python loop over the table's scores instead of the vectorised assembly,
#: whose fixed cost is about 60 us. Measured as above over AwardTitle and
#: EmployeeName bags on a warm table, the two drew level between 74 and
#: 107 slots. The Monge-Elkan columns of a ``match()`` call on the
#: Section-10 late records have a median of 36 slots, and 75% of them
#: fall below this; with it at 0 the ``serve`` perfbench ``match()`` p50
#: rose from 0.89 to 1.04 ms.
ASSEMBLY_MIN_SLOTS = 96

_LOW_ID = 0xFFFFFFFF


def _monge_elkan_ids(a: Sequence[int], b: Sequence[int], scores: dict[int, float]) -> float:
    """Monge-Elkan over two non-empty interned token bags.

    Mirrors :func:`~repro.similarity.hybrid.monge_elkan` step for step
    (same best-match scan, same left-to-right accumulation), reading the
    inner Jaro-Winkler scores from *scores* by :func:`pack_pairs` key.
    """
    total = 0.0
    for ia in a:
        high = ia << 32
        best = None
        for ib in b:
            sim = scores[high | ib]
            if best is None or sim > best:
                best = sim
        total += best
    return total / len(a)


def _jw_scores(keys: np.ndarray, cache: TokenCache) -> np.ndarray:
    """Jaro-Winkler for sorted unique packed token-id pairs: read from the
    session table, the missing ones scored (in one kernel call from
    :data:`KERNEL_MIN_INPUTS` up) and added to it."""
    table = cache.jw_scores
    values, found = table.find(keys)
    missing = keys[~found]
    if len(missing):
        decode = cache.vocabulary.decode
        left = decode((missing >> 32).tolist())
        right = decode((missing & _LOW_ID).tolist())
        if len(missing) >= KERNEL_MIN_INPUTS:
            fresh = batch.jaro_winkler_batch(left, right)
        else:
            fresh = np.array([jaro_winkler(a, b) for a, b in zip(left, right)])
        values[~found] = fresh
        table.add(missing, fresh)
    return values


def _monge_elkan_scalar(live_a: list, live_b: list, cache: TokenCache) -> np.ndarray:
    """Monge-Elkan of few slots: one table lookup, then Python loops."""
    needed = sorted({
        (ia << 32) | ib for a, b in zip(live_a, live_b) for ia in a for ib in b
    })
    keys = np.array(needed, dtype=np.int64)
    scores = dict(zip(needed, _jw_scores(keys, cache).tolist()))
    return np.array([_monge_elkan_ids(a, b, scores) for a, b in zip(live_a, live_b)])


def _monge_elkan_batch(
    live_a: list, live_b: list, la: np.ndarray, lb: np.ndarray, cache: TokenCache
) -> np.ndarray:
    """Monge-Elkan of many non-empty bag pairs, vectorised.

    Every (left token, right token) slot of every pair is laid out flat
    and scored through the table. The best match per left token is a
    ``maximum.reduceat`` over its row of slots (a max is exact in any
    order); the per-pair totals are a ``cumsum`` over the zero-padded
    best-match rows, which adds strictly left to right as the reference
    does (``add.reduce`` would sum pairwise and round differently).
    """
    count = len(live_a)
    left = np.frombuffer(b"".join(live_a), dtype=np.intc)
    right = np.frombuffer(b"".join(live_b), dtype=np.intc)
    a_start = np.cumsum(la) - la
    b_start = np.cumsum(lb) - lb
    per_pair = la * lb
    owner = np.repeat(np.arange(count), per_pair)
    offset = np.arange(int(per_pair.sum())) - (np.cumsum(per_pair) - per_pair)[owner]
    width = lb[owner]
    i = offset // width
    j = offset - i * width
    keys = pack_pairs(left[a_start[owner] + i], right[b_start[owner] + j])
    distinct, inverse = np.unique(keys, return_inverse=True)
    sims = _jw_scores(distinct, cache)[inverse]
    row_lengths = np.repeat(lb, la)
    best = np.maximum.reduceat(sims, np.cumsum(row_lengths) - row_lengths)
    row_owner = np.repeat(np.arange(count), la)
    column = np.arange(len(best)) - a_start[row_owner]
    padded = np.zeros((count, int(la.max())))
    padded[row_owner, column] = best
    totals = np.cumsum(padded, axis=1)[np.arange(count), la - 1]
    return totals / la


def _monge_elkan_column(a_list: Sequence, b_list: Sequence, cache: TokenCache) -> np.ndarray:
    """One mel column: NaN where a bag is missing, otherwise Monge-Elkan
    with Jaro-Winkler inside, scored once per distinct bag pair and
    bit-identical to :func:`~repro.similarity.hybrid.monge_elkan`."""
    out = np.full(len(a_list), NAN)
    # equal cells share one bag object, so identity finds the distinct pairs
    index: dict[tuple[int, int], int] = {}
    rows: list[int] = []
    which: list[int] = []
    bags_a: list = []
    bags_b: list = []
    for row, (a, b) in enumerate(zip(a_list, b_list)):
        if a is None or b is None:
            continue
        key = (id(a), id(b))
        k = index.get(key)
        if k is None:
            k = index[key] = len(bags_a)
            bags_a.append(a)
            bags_b.append(b)
        rows.append(row)
        which.append(k)
    if not rows:
        return out
    la = np.fromiter(map(len, bags_a), dtype=np.int64, count=len(bags_a))
    lb = np.fromiter(map(len, bags_b), dtype=np.int64, count=len(bags_b))
    # the reference's guards: 1.0 when both bags are empty, 0.0 when one is
    values = np.where((la == 0) & (lb == 0), 1.0, 0.0)
    live = np.flatnonzero((la > 0) & (lb > 0))
    if len(live):
        live_a = [bags_a[k] for k in live.tolist()]
        live_b = [bags_b[k] for k in live.tolist()]
        la, lb = la[live], lb[live]
        if int((la * lb).sum()) < ASSEMBLY_MIN_SLOTS:
            values[live] = _monge_elkan_scalar(live_a, live_b, cache)
        else:
            values[live] = _monge_elkan_batch(live_a, live_b, la, lb, cache)
    out[rows] = values[which]
    return out


def _character_column(spec: tuple, a_list: Sequence, b_list: Sequence) -> np.ndarray:
    """One ``lev_sim``/``jaro``/``jw`` column, scored once per distinct
    ``(str(l), str(r))`` pair with the guards of the feature function:
    NaN when a cell is missing, lower-cased first when the feature
    case-folds."""
    _, _, _, measure, casefold = spec
    out = np.full(len(a_list), NAN)
    index: dict[tuple[str, str], int] = {}
    rows: list[int] = []
    which: list[int] = []
    for row, (a, b) in enumerate(zip(a_list, b_list)):
        if is_missing(a) or is_missing(b):
            continue
        a, b = str(a), str(b)
        if casefold:
            a, b = a.lower(), b.lower()
        rows.append(row)
        which.append(index.setdefault((a, b), len(index)))
    if not rows:
        return out
    if len(index) < KERNEL_MIN_INPUTS:
        fn = STRING_MEASURES[measure]
        scores = np.array([float(fn(a, b)) for a, b in index])
    else:
        scores = batch.CHARACTER_KERNELS[measure](
            [a for a, _ in index], [b for _, b in index]
        )
    out[rows] = scores[which]
    return out


def _gather(column: Sequence, rows: Sequence[int], field_name: str) -> list:
    """``getattr(column[i], field_name)`` for each row *i*, ``None`` where
    the cell is missing; equal cells keep sharing one object."""
    return [
        None if (entry := column[i]) is None else getattr(entry, field_name)
        for i in rows
    ]


def _kernel_columns(
    candidates: CandidateSet,
    li: list[int],
    ri: list[int],
    features: list[Feature],
    cache: TokenCache,
) -> list[tuple]:
    """Columnar inputs for the kernel extraction, one entry per feature.

    Each column is ``(kind, meta, a_list, b_list)`` with the per-pair
    inputs already gathered from left rows *li* and right rows *ri*
    (``a_list[i]`` belongs to pair ``i``):

    * ``("set", measure, ids, ids)`` — per-pair ``frozenset[int]`` id
      sets for the batch kernels in :mod:`repro.similarity.batch`
      (missing cells ride along as ``None`` and come out as NaN);
    * ``("mel", "mel", bag, bag)`` — tokenizer-order id bags;
    * ``("chars", spec, value, value)`` — raw cell values for the
      ``lev_sim``/``jaro``/``jw`` string features, scored by the
      character batch kernels;
    * ``("value", spec, value, value)`` — raw cell values for the other
      string, numeric and custom features (``spec`` is ``None`` for
      custom features, whose purity is unknown, so they are never
      memoized).
    """
    from ..text.tokenizers import TOKENIZERS

    ltable, rtable = candidates.ltable, candidates.rtable
    columns: list[tuple] = []
    for feature in features:
        spec = feature.spec
        if spec is not None and spec[0] == "token":
            _, l_attr, r_attr, measure, tokenizer_name, casefold = spec
            tokenizer = TOKENIZERS[tokenizer_name]
            normalizer = lowercase if casefold else None
            if measure in batch.BATCH_KERNELS or measure == "mel":
                kind, field_name = ("mel", "bag") if measure == "mel" else ("set", "ids")
                l_col = cache.column_token_ids(ltable, l_attr, tokenizer, normalizer)
                r_col = cache.column_token_ids(rtable, r_attr, tokenizer, normalizer)
                columns.append((
                    kind,
                    measure,
                    _gather(l_col, li, field_name),
                    _gather(r_col, ri, field_name),
                ))
                continue
        l_col = ltable[feature.l_attr]
        r_col = rtable[feature.r_attr]
        kind = (
            "chars"
            if spec is not None and spec[0] == "string"
            and spec[3] in batch.CHARACTER_KERNELS
            else "value"
        )
        columns.append(
            (kind, spec, [l_col[i] for i in li], [r_col[i] for i in ri])
        )
    return columns


def _extract_kernel(
    n: int,
    columns: list[tuple],
    functions: list[Any],
    cache: TokenCache,
) -> np.ndarray:
    """Evaluate the kernel *columns* for *n* pairs, one column at a time."""
    values = np.empty((n, len(columns)))
    for j, (kind, meta, a_list, b_list) in enumerate(columns):
        if kind == "set":
            # one batch-kernel call scores the whole column; missing
            # cells surface as NaN straight from the kernel
            values[:, j] = np.frombuffer(batch.score_batch(meta, a_list, b_list))
        elif kind == "mel":
            values[:, j] = _monge_elkan_column(a_list, b_list, cache)
        elif kind == "chars":
            values[:, j] = _character_column(meta, a_list, b_list)
        else:
            fn = functions[j]
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
    a store memoizes the extraction by the content fingerprints of the
    base tables, the pair list and the feature-set recipes.
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
    instrumentation = session.instrumentation
    if pairs is None:
        # the set's own row positions: no id lookup per pair
        pairs = candidates.pairs
        li = candidates.left_positions.tolist()
        ri = candidates.right_positions.tolist()
    else:
        pairs = [tuple(p) for p in pairs]
        l_index = session.key_index(candidates.ltable, candidates.l_key)
        r_index = session.key_index(candidates.rtable, candidates.r_key)
        li = [l_index[pair[0]] for pair in pairs]
        ri = [r_index[pair[1]] for pair in pairs]
    n, d = len(pairs), len(feature_set)
    features = list(feature_set)
    cache = session.token_cache
    table = cache.jw_scores
    with stage(instrumentation, "extract_features"):
        count(instrumentation, "pairs", n)
        count(instrumentation, "cells", n * d)
        columns = _kernel_columns(candidates, li, ri, features, cache)
        functions = [f.function for f in features]
        before = (table.hits, table.misses, table.evictions)
        values = _extract_kernel(n, columns, functions, cache)
        if any(column[0] == "mel" for column in columns):
            # report-only: how much of the session's Jaro-Winkler table
            # this extraction reused
            count(instrumentation, "jw_hits", table.hits - before[0])
            count(instrumentation, "jw_misses", table.misses - before[1])
            count(instrumentation, "jw_evictions", table.evictions - before[2])
    return FeatureMatrix(pairs=pairs, feature_names=feature_set.names, values=values)
