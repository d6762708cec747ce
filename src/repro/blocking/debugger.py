"""Blocking debugger (MatchCatcher-style).

Takes the two input tables and the consolidated candidate set C and returns
pairs that are (a) in A x B but *not* in C and (b) judged likely matches,
ranked by decreasing likelihood. The user eyeballs the top of the list: if
few true matches appear there, blocking probably has not killed off many
real matches (Section 7 step 4 of the case study ran exactly this check and
then froze the blocking pipeline).

Likelihood is the maximum, over the given attribute pairs, of the Jaccard
similarity of lower-cased word tokens — the same cheap similarity
MatchCatcher uses to surface survivors quickly. Candidate generation goes
through an inverted index so the debugger never materialises A x B.

Tokenization goes through the shared
:class:`~repro.runtime.cache.TokenCache` and Jaccard is computed over
interned-id frozensets: the intersection/union counts are the same
integers as over the string sets, so every score — and the ranking — is
what string Jaccard gives, but the sets hash small ints instead of
strings and warm runs skip tokenizing entirely.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Sequence

from ..runtime.cache import get_default_cache
from ..similarity.kernels import jaccard_id_sets
from ..text.normalize import normalize_title
from ..text.tokenizers import whitespace
from .candidate_set import CandidateSet


@dataclass(frozen=True)
class MissedPairReport:
    """One potentially-missed pair, with the similarity that ranked it."""

    l_id: Any
    r_id: Any
    score: float
    best_attrs: tuple[str, str]


def _token_id_map(table, key: str, attr: str) -> dict[Any, frozenset]:
    """Interned-id frozensets per row.

    The cache tokenizes with ``frozenset(whitespace(str(normalize_title(cell))))``
    (missing and empty cells dropped), then swaps each token for its
    vocabulary id.
    """
    entries = get_default_cache().token_ids_by_id(
        table, attr, key, whitespace, normalize_title
    )
    return {rid: entry.ids for rid, entry in entries.items()}


def debug_blocker(
    candidates: CandidateSet,
    attr_pairs: Sequence[tuple[str, str]],
    top_k: int = 100,
) -> list[MissedPairReport]:
    """Rank pairs outside *candidates* by likelihood of being matches.

    Parameters
    ----------
    candidates:
        The consolidated candidate set C (carries the base tables).
    attr_pairs:
        (left attribute, right attribute) pairs to compare, e.g.
        ``[("AwardTitle", "AwardTitle"), ("EmployeeName", "EmployeeName")]``.
    top_k:
        Number of ranked pairs to return.
    """
    in_c = candidates.pair_set()
    ltable, rtable = candidates.ltable, candidates.rtable
    l_key, r_key = candidates.l_key, candidates.r_key

    scored: dict[tuple[Any, Any], tuple[float, tuple[str, str]]] = {}
    for l_attr, r_attr in attr_pairs:
        l_tokens = _token_id_map(ltable, l_key, l_attr)
        r_tokens = _token_id_map(rtable, r_key, r_attr)
        index: dict[int, list[Any]] = {}
        for rid, tokens in r_tokens.items():
            for t in tokens:
                index.setdefault(t, []).append(rid)
        for lid, tokens in l_tokens.items():
            seen: set[Any] = set()
            for t in tokens:
                seen.update(index.get(t, ()))
            for rid in seen:
                if (lid, rid) in in_c:
                    continue
                score = jaccard_id_sets(tokens, r_tokens[rid])
                key = (lid, rid)
                if key not in scored or score > scored[key][0]:
                    scored[key] = (score, (l_attr, r_attr))

    # nsmallest(k, ..., key) is documented to equal sorted(..., key)[:k],
    # so the report is unchanged while the full O(n log n) sort becomes
    # O(n log k) over the ~|A x B| scored survivors.
    ranked = heapq.nsmallest(
        top_k, scored.items(), key=lambda kv: (-kv[1][0], str(kv[0]))
    )
    return [
        MissedPairReport(l_id=lid, r_id=rid, score=score, best_attrs=attrs)
        for (lid, rid), (score, attrs) in ranked
    ]
