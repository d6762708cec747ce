"""Reference overlap-family blocking and feature extraction over strings.

The production blockers (:mod:`repro.blocking.overlap_family`) probe an
inverted index over interned token ids and verify each chunk with one
batch keep-mask; feature extraction scores interned columns chunk by
chunk. These functions keep the straightforward shapes those replaced —
``frozenset[str]`` token sets, a per-candidate verification loop, and a
row-dict loop over every pair and feature — so the parity tests and
``benchmarks/bench_runtime_parallel.py`` can assert that both produce
the same pairs in the same order and the same matrices cell for cell.

Two facts of the production path the references mirror on purpose:

* the coefficient blocker probes each record's tokens in the iteration
  order of its token set, and equal cells of one column share one set
  (so a cell probes in the order of the first equal cell);
* a size cap removes oversized tokens from the probe side only, after
  the overlap prefix is cut.
"""

from __future__ import annotations

import heapq
import math
from typing import Any

import numpy as np

from repro.blocking import MissedPairReport, OverlapBlocker, OverlapCoefficientBlocker
from repro.blocking.policy import resolve_policy
from repro.similarity.set_based import jaccard, overlap_coefficient
from repro.table.column import is_missing
from repro.text.normalize import normalize_title
from repro.text.tokenizers import whitespace


def tokens_by_id(table, attr, key_col, tokenizer, normalizer=None) -> dict[Any, frozenset]:
    """``{record id: token set}`` for non-missing, non-empty cells.

    Equal token sets share the first such set object, as the production
    token cache shares one interned entry between equal cells.
    """
    shared: dict[frozenset, frozenset] = {}
    out: dict[Any, frozenset] = {}
    for rid, value in zip(table[key_col], table[attr]):
        if is_missing(value):
            continue
        if normalizer is not None:
            value = normalizer(value)
            if is_missing(value):
                continue
        tokens = frozenset(tokenizer(str(value)))
        if tokens:
            out[rid] = shared.setdefault(tokens, tokens)
    return out


def probe_overlap_chunk(l_items, r_tokens, index, order, k, capped=frozenset()):
    """Prefix-filtered probe + exact ``|X ∩ Y| >= k`` check per candidate.

    *order* is the global token rank under ``(doc_freq, token)``.
    """
    rank = order.__getitem__
    pairs = []
    for lid, tokens in l_items:
        if len(tokens) < k:
            continue
        ordered = sorted(tokens, key=rank)
        prefix = ordered[: len(ordered) - k + 1]
        if capped:
            prefix = [t for t in prefix if t not in capped]
        seen: set[Any] = set()
        for t in prefix:
            for rid in index.get(t, ()):
                seen.add(rid)
        for rid in seen:
            if len(tokens & r_tokens[rid]) >= k:
                pairs.append((lid, rid))
    return pairs


def probe_coefficient_chunk(l_items, r_tokens, index, threshold):
    """Whole-set probe + size-aware count bound + coefficient check.

    ``l_items`` carries ``(lid, probe, tokens)`` with *probe* the token
    list in the set's iteration order.
    """
    pairs = []
    for lid, probe, tokens in l_items:
        seen: set[Any] = set()
        for tok in probe:
            for rid in index.get(tok, ()):
                seen.add(rid)
        for rid in seen:
            rtoks = r_tokens[rid]
            needed = math.ceil(threshold * min(len(tokens), len(rtoks)) - 1e-9)
            if len(tokens & rtoks) < needed:
                continue
            if overlap_coefficient(tokens, rtoks) >= threshold - 1e-12:
                pairs.append((lid, rid))
    return pairs


def block_pairs(blocker, ltable, rtable, l_key, r_key) -> list[tuple[Any, Any]]:
    """The pairs *blocker* (an overlap or coefficient blocker, of any
    kind) must emit for ``ltable x rtable``, in order."""
    l_tokens = tokens_by_id(ltable, blocker.l_attr, l_key, blocker.tokenizer, blocker.normalizer)
    r_tokens = tokens_by_id(rtable, blocker.r_attr, r_key, blocker.tokenizer, blocker.normalizer)
    index: dict[str, list[Any]] = {}
    for rid, tokens in r_tokens.items():
        for t in tokens:
            index.setdefault(t, []).append(rid)
    policy = resolve_policy(blocker.block_size_policy)
    capped = frozenset(
        t for t, rids in index.items() if not policy.keeps(len(rids))
    )
    if isinstance(blocker, OverlapBlocker):
        vocab = set().union(*l_tokens.values()) if l_tokens else set()
        ranked = sorted(vocab, key=lambda t: (len(index.get(t, ())), t))
        order = {t: i for i, t in enumerate(ranked)}
        return probe_overlap_chunk(
            list(l_tokens.items()), r_tokens, index, order, blocker.threshold, capped
        )
    if isinstance(blocker, OverlapCoefficientBlocker):
        l_items = [
            (lid, [t for t in tokens if t not in capped], tokens)
            for lid, tokens in l_tokens.items()
        ]
        return probe_coefficient_chunk(l_items, r_tokens, index, blocker.threshold)
    raise TypeError(f"no reference for {type(blocker).__name__}")


def debug_blocker_top(candidates, attr_pairs, top_k) -> list[MissedPairReport]:
    """The blocking debugger's ranking by string-set Jaccard."""
    in_c = candidates.pair_set()
    scored: dict[tuple[Any, Any], tuple[float, tuple[str, str]]] = {}
    for l_attr, r_attr in attr_pairs:
        l_tokens = tokens_by_id(
            candidates.ltable, l_attr, candidates.l_key, whitespace, normalize_title
        )
        r_tokens = tokens_by_id(
            candidates.rtable, r_attr, candidates.r_key, whitespace, normalize_title
        )
        for lid, tokens in l_tokens.items():
            for rid, r_toks in r_tokens.items():
                if (lid, rid) in in_c or not tokens & r_toks:
                    continue
                score = jaccard(tokens, r_toks)
                if (lid, rid) not in scored or score > scored[(lid, rid)][0]:
                    scored[(lid, rid)] = (score, (l_attr, r_attr))
    ranked = heapq.nsmallest(top_k, scored.items(), key=lambda kv: (-kv[1][0], str(kv[0])))
    return [
        MissedPairReport(l_id=lid, r_id=rid, score=score, best_attrs=attrs)
        for (lid, rid), (score, attrs) in ranked
    ]


def extract_rows(candidates, feature_set, pairs=None) -> np.ndarray:
    """The feature matrix by one ``feature.from_rows`` call per cell."""
    if pairs is None:
        pairs = candidates.pairs
    features = list(feature_set)
    values = np.empty((len(pairs), len(features)))
    for i, pair in enumerate(pairs):
        l_row, r_row = candidates.record_pair(tuple(pair))
        for j, feature in enumerate(features):
            values[i, j] = feature.from_rows(l_row, r_row)
    return values
