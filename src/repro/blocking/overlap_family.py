"""The overlap-family token blockers, written once.

Section 7 blocks twice over tokenized award titles: overlap >= K words
(:class:`~repro.blocking.overlap.OverlapBlocker`) and overlap coefficient
>= t (:class:`~repro.blocking.overlap_coefficient.OverlapCoefficientBlocker`).
Both run one pipeline over interned token ids:

1. tokenize both columns through the session's
   :class:`~repro.runtime.cache.TokenCache` (one pass per recipe);
2. build the right side's inverted index, token id -> rids in right-row
   order, and its document frequencies (:func:`right_index`);
3. apply the block-size cap: tokens whose posting list exceeds it leave
   the probe side only, never verification;
4. probe the index with each left record's probe tokens, collecting its
   candidates in a ``seen`` set, in one in-process pass
   (:meth:`TokenBlocker._probe`);
5. verify the ordered candidate list with one batch keep-mask.

Two hooks are all that differ between the blockers:

* :meth:`TokenBlocker._probe_lists`, the tokens a left record probes
  with: the overlap blocker's ``len - k + 1`` prefix under the global
  ``(doc_freq, token)`` rank (a pair sharing k tokens shares one of
  them), the coefficient blocker's whole cached ``probe`` array;
* :attr:`TokenBlocker._keep_mask`, the batch predicate from
  :mod:`repro.similarity.batch`.

The batch path and the incremental handle
(:mod:`repro.blocking.incremental`) share :meth:`TokenBlocker._right_index`
and :meth:`TokenBlocker._probe`, so both emit the same pairs in the same
order. The probe runs in the calling process, like every
stage: shipping the index to worker chunks cost more in pickling than
the chunks saved (measurements in ``docs/blocking.md``).

Emission order: pairs come per left record, in left-table order, and
within a record in the iteration order of its ``seen`` set. That order
is a function of the distinct-insertion sequence: probe tokens in probe
order, posting lists in right-row order. Both probe orders are functions
of the inputs alone: the overlap rank is a total order over
``(doc_freq, token)``, and the coefficient probe is the record's unique
tokens in the tokenizer's emission order. So with integer record ids,
whose hashes do not vary by process, the pairs, their order and the
stored candidate artifacts do not depend on the process's string hash
seed (``tests/test_determinism.py`` runs them under two seeds).
The keep-mask filters the ordered candidate list in place.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..runtime.context import EngineSession
from ..runtime.instrument import count, stage
from ..table import Table
from ..text.intern import id_array
from ..text.tokenizers import Tokenizer
from .base import Blocker
from .candidate_set import CandidateSet
from .policy import BlockSizePolicy, capped_keys, resolve_policy

Normalizer = Callable[[Any], Any]
Pair = tuple[Any, Any]
#: ``(inverted index, document frequencies, rid -> id set)`` of a right side.
_RightIndex = tuple[dict[int, list[Any]], dict[int, int], dict[Any, Any]]


def right_index(
    r_entries: Mapping[Any, Any],
) -> tuple[dict[int, list[Any]], dict[int, int]]:
    """The right side's inverted index and document frequencies.

    The outer loop runs in right-row order, so every posting list holds
    its rids in that order; each record contributes each of its unique
    ids once, so a posting's length is the token's doc frequency.
    """
    index: dict[int, list[Any]] = {}
    for rid, entry in r_entries.items():
        for tid in entry.probe:
            index.setdefault(tid, []).append(rid)
    return index, {tid: len(rids) for tid, rids in index.items()}


class TokenBlocker(Blocker):
    """Shared base of the overlap-family blockers (see module docstring).

    Subclasses validate their threshold, set :attr:`_keep_mask` and
    implement :meth:`_probe_lists`.
    """

    supports_incremental = True
    #: Batch verification kernel ``(cand_a, cand_b, threshold) -> mask``.
    _keep_mask: Callable

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: Any,
        tokenizer: Tokenizer,
        normalizer: Normalizer | None,
        block_size_policy: "BlockSizePolicy | int | None",
    ) -> None:
        self.l_attr = l_attr
        self.r_attr = r_attr
        self.threshold = threshold
        self.tokenizer = tokenizer
        self.normalizer = normalizer
        self.block_size_policy = resolve_policy(block_size_policy)

    def _probe_lists(
        self,
        entries: Sequence[Any],
        doc_freq: Mapping[int, int],
        token_of: Callable[[int], str],
    ) -> list[Any]:
        """Per left entry, its probe ids (``array('i')``), or ``None``
        when the record can never pass verification."""
        raise NotImplementedError

    def _left_probes(
        self,
        l_entries: Mapping[Any, Any],
        doc_freq: Mapping[int, int],
        capped: frozenset,
        session: EngineSession,
    ) -> tuple[list[Any], list[Any], list[Any]]:
        """``(lids, probe arrays, entries)`` of the left records that probe.

        Capped tokens leave the probe after the hook has cut it, so the
        cut itself does not depend on the policy. ``capped_records``
        counts the records the cap left with nothing to probe (they get
        no candidates); it is recorded only under a capping policy.
        """
        entries = list(l_entries.values())
        lists = self._probe_lists(
            entries, doc_freq, session.token_cache.vocabulary.token_of
        )
        lids: list[Any] = []
        probes: list[Any] = []
        kept: list[Any] = []
        stranded = 0
        for lid, entry, probe in zip(l_entries, entries, lists):
            if probe is None:
                continue
            if capped:
                probe = id_array(t for t in probe if t not in capped)
                stranded += not probe
            lids.append(lid)
            probes.append(probe)
            kept.append(entry)
        if self.block_size_policy.capped:
            count(session.instrumentation, "capped_records", stranded)
        return lids, probes, kept

    def _records(
        self, session: EngineSession, table: Table, key: str, *, left: bool
    ) -> Mapping[Any, Any]:
        """Each record's interned tokens, keyed by id, through the session's
        token cache; rows whose cell is missing or tokenizes to nothing
        are absent."""
        return session.token_cache.token_ids_by_id(
            table, self.l_attr if left else self.r_attr, key,
            self.tokenizer, self.normalizer,
        )

    def _right_index(self, r_entries: Mapping[Any, Any]) -> _RightIndex:
        """The right side's inverted index, document frequencies and id sets."""
        index, doc_freq = right_index(r_entries)
        return index, doc_freq, {rid: entry.ids for rid, entry in r_entries.items()}

    def _probe(
        self,
        session: EngineSession,
        l_entries: Mapping[Any, Any],
        right: _RightIndex,
        capped: frozenset = frozenset(),
    ) -> list[Pair]:
        """Probe *right*'s index for each left record, then verify every
        candidate in one batch keep-mask call; returns the kept pairs."""
        index, doc_freq, r_sets = right
        lids, probes, entries = self._left_probes(l_entries, doc_freq, capped, session)
        cand_pairs: list[Pair] = []
        cand_a: list[Any] = []
        cand_b: list[Any] = []
        for lid, probe, entry in zip(lids, probes, entries):
            seen: set[Any] = set()
            for tid in probe:
                posting = index.get(tid)
                if posting is not None:
                    seen.update(posting)
            a = entry.ids
            for rid in seen:
                cand_pairs.append((lid, rid))
                cand_a.append(a)
                cand_b.append(r_sets[rid])
        keep = self._keep_mask(cand_a, cand_b, self.threshold)
        return [pair for pair, kept in zip(cand_pairs, keep) if kept]

    def _compute_blocking(
        self,
        session: EngineSession,
        ltable: Table,
        rtable: Table,
        l_key: str,
        r_key: str,
        name: str,
    ) -> CandidateSet:
        self._validate_inputs(
            ltable, rtable, l_key, r_key, [(ltable, self.l_attr), (rtable, self.r_attr)]
        )
        instrumentation = session.instrumentation
        cache = session.token_cache
        hits_before = cache.hits
        with stage(instrumentation, "tokenize"):
            l_entries = self._records(session, ltable, l_key, left=True)
            r_entries = self._records(session, rtable, r_key, left=False)
            count(instrumentation, "l_records", len(l_entries))
            count(instrumentation, "r_records", len(r_entries))
            count(instrumentation, "cache_hits", cache.hits - hits_before)
        with stage(instrumentation, "index"):
            right = self._right_index(r_entries)
            capped = capped_keys(right[1], self.block_size_policy, instrumentation)
        with stage(instrumentation, "probe"):
            pairs = self._probe(session, l_entries, right, capped)
            count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)
