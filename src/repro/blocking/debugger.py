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

Tokenization goes through the session's
:class:`~repro.runtime.cache.TokenCache`, and Jaccard is computed by
:func:`~repro.similarity.batch.jaccard_batch` over interned-id frozensets:
the intersection/union counts are the same integers as over the string
sets, so every score — and the ranking — is what string Jaccard gives,
but the sets hash small ints instead of strings and a prior blocking
pass over the same recipe leaves nothing to tokenize.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Sequence

from ..runtime.context import EngineSession, resolve_session
from ..runtime.instrument import count, stage
from ..similarity.batch import jaccard_batch
from ..text.normalize import normalize_title
from ..text.tokenizers import whitespace
from .candidate_set import CandidateSet
from .overlap_family import right_index


@dataclass(frozen=True)
class MissedPairReport:
    """One potentially-missed pair, with the similarity that ranked it."""

    l_id: Any
    r_id: Any
    score: float
    best_attrs: tuple[str, str]


def debug_blocker(
    candidates: CandidateSet,
    attr_pairs: Sequence[tuple[str, str]],
    top_k: int = 100,
    *,
    session: EngineSession | None = None,
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
    session:
        The :class:`~repro.runtime.context.EngineSession` whose token
        cache tokenizes and whose instrumentation times the
        ``debug_blocker`` stage (the ambient session when ``None``).
    """
    resolved = resolve_session(session)
    cache = resolved.token_cache
    in_c = candidates.pair_set()
    ltable, rtable = candidates.ltable, candidates.rtable
    l_key, r_key = candidates.l_key, candidates.r_key

    scored: dict[tuple[Any, Any], tuple[float, tuple[str, str]]] = {}
    with stage(resolved.instrumentation, "debug_blocker"):
        for l_attr, r_attr in attr_pairs:
            l_entries = cache.token_ids_by_id(
                ltable, l_attr, l_key, whitespace, normalize_title
            )
            r_entries = cache.token_ids_by_id(
                rtable, r_attr, r_key, whitespace, normalize_title
            )
            index, _ = right_index(r_entries)
            keys: list[tuple[Any, Any]] = []
            l_sets: list[frozenset] = []
            r_sets: list[frozenset] = []
            for lid, entry in l_entries.items():
                seen: set[Any] = set()
                for tid in entry.probe:
                    seen.update(index.get(tid, ()))
                for rid in seen:
                    if (lid, rid) not in in_c:
                        keys.append((lid, rid))
                        l_sets.append(entry.ids)
                        r_sets.append(r_entries[rid].ids)
            count(resolved.instrumentation, "pairs_scored", len(keys))
            for key, score in zip(keys, jaccard_batch(l_sets, r_sets)):
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
