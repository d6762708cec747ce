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
   (:func:`probe_records`);
5. verify the ordered candidate list with one batch keep-mask.

Two hooks are all that differ between the blockers:

* :meth:`TokenBlocker._probe_lists`, the tokens a left record probes
  with: the overlap blocker's ``len - k + 1`` prefix under the global
  ``(doc_freq, token)`` rank (a pair sharing k tokens shares one of
  them), the coefficient blocker's whole cached ``probe`` array;
* :attr:`TokenBlocker._keep_mask`, the batch predicate from
  :mod:`repro.similarity.batch`.

The delta handle (:mod:`repro.blocking.incremental`) runs the same
:func:`probe_records` over the same hooks, so both emit the same pairs
in the same order. The probe runs in the calling process, like every
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

from ..errors import IncrementalBlockingError
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


def probe_records(
    lids: Sequence[Any],
    probes: Sequence[Any],
    l_sets: Sequence[Any],
    r_sets: Mapping[Any, Any],
    index: Mapping[int, list[Any]],
    keep_mask: Callable,
    threshold: Any,
) -> list[Pair]:
    """Probe *index* for each left record, then verify in one batch call.

    *probes* holds each record's probe ids, *l_sets* / *r_sets* the id
    frozensets verification intersects.
    """
    cand_pairs: list[Pair] = []
    cand_a: list[Any] = []
    cand_b: list[Any] = []
    for lid, probe, a in zip(lids, probes, l_sets):
        seen: set[Any] = set()
        for tid in probe:
            posting = index.get(tid)
            if posting is not None:
                seen.update(posting)
        for rid in seen:
            cand_pairs.append((lid, rid))
            cand_a.append(a)
            cand_b.append(r_sets[rid])
    keep = keep_mask(cand_a, cand_b, threshold)
    return [pair for pair, kept in zip(cand_pairs, keep) if kept]


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

    def incremental(
        self,
        rtable: Table,
        l_key: str,
        r_key: str,
        *,
        session: EngineSession | None = None,
    ) -> Any:
        """Delta-maintained handle; see :mod:`repro.blocking.incremental`."""
        if self.block_size_policy.capped:
            raise IncrementalBlockingError(
                "incremental blocking does not support block-size caps; "
                "use an uncapped blocker for delta handles"
            )
        from .incremental import _TokenIncrementalBlocking

        return _TokenIncrementalBlocking(self, rtable, l_key, r_key, session=session)

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
            l_entries = cache.token_ids_by_id(
                ltable, self.l_attr, l_key, self.tokenizer, self.normalizer
            )
            r_entries = cache.token_ids_by_id(
                rtable, self.r_attr, r_key, self.tokenizer, self.normalizer
            )
            count(instrumentation, "l_records", len(l_entries))
            count(instrumentation, "r_records", len(r_entries))
            count(instrumentation, "cache_hits", cache.hits - hits_before)
        with stage(instrumentation, "index"):
            index, doc_freq = right_index(r_entries)
            capped = capped_keys(doc_freq, self.block_size_policy, instrumentation)
        with stage(instrumentation, "probe"):
            lids, probes, entries = self._left_probes(
                l_entries, doc_freq, capped, session
            )
            pairs = probe_records(
                lids,
                probes,
                [entry.ids for entry in entries],
                {rid: entry.ids for rid, entry in r_entries.items()},
                index,
                self._keep_mask,
                self.threshold,
            )
            count(instrumentation, "pairs_out", len(pairs))
        return CandidateSet(ltable, rtable, l_key, r_key, pairs, name=name or self.short_name)
