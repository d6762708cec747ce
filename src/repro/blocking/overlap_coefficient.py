"""Overlap-coefficient blocker: keep pairs with |X∩Y|/min(|X|,|Y|) >= t.

Section 7 step 3 adds this blocker (word tokens, threshold 0.7) because the
raw overlap blocker's K=3 floor silently drops similar titles shorter than
three tokens. A pair passes only if it shares at least
``o = ceil(t * min(|A|, |B|) - 1e-9)`` tokens, the count bound the
keep-mask checks before the coefficient itself
(:func:`~repro.similarity.batch.overlap_coefficient_at_least_batch`).
So the candidates are prefix-filtered (Chaudhuri, Ganti and Kaushik,
ICDE 2006; Bayardo, Ma and Srikant, WWW 2007), split by size, with each
record's tokens ranked by the right side's ``(doc_freq, token)``, rarest
first:

* a right record B with |B| >= |A| shares a token with A's first
  ``|A| - o + 1`` tokens, so A probes the size-sorted full index with
  that prefix;
* a smaller B shares one of A's tokens with its own first
  ``|B| - o + 1`` tokens, so A probes an index of those right prefixes
  with all of its tokens.

Only those candidates are verified. Tokens absent from the right side
rank first and capped tokens last, so dropping both from the prefix
probe loses no pair that shares an uncapped token.

The kept pairs leave in the order of the unfiltered probe: each record
that kept any builds its ``seen`` set from every (uncapped) probe token,
its unique tokens in the order the tokenizer first emits them
(:attr:`~repro.runtime.cache.InternedTokens.probe`), and emits its kept
rids in that set's order. So the probe order, and with it the emission
order, is a function of the cell text alone and not of the string hash
seed. Tokenization, indexing, capping and verification are shared with
the overlap blocker in :mod:`repro.blocking.overlap_family`.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import groupby, repeat
from math import ceil
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import BlockingError
from ..runtime.context import EngineSession
from ..similarity import batch
from ..text.tokenizers import Tokenizer, whitespace
from .overlap_family import Normalizer, Pair, TokenBlocker, seen_rids
from .policy import BlockSizePolicy

#: token -> (sizes ascending, rids), one entry per right record listed.
_SizedPostings = dict[int, tuple[list[int], list[Any]]]


def prefix_length(threshold: float, size: int) -> int:
    """``size - o + 1``, with ``o`` the keep-mask's count bound for a
    pair whose smaller side has *size* tokens."""
    return size - ceil(threshold * size - 1e-9) + 1


def _sized_postings(records: Iterable[tuple[int, Any, Iterable[int]]]) -> _SizedPostings:
    """Postings of ``(size, rid, tokens)`` records given in ascending size."""
    postings: _SizedPostings = {}
    for size, rid, tokens in records:
        for tid in tokens:
            posting = postings.get(tid)
            if posting is None:
                postings[tid] = posting = ([], [])
            posting[0].append(size)
            posting[1].append(rid)
    return postings


class OverlapCoefficientBlocker(TokenBlocker):
    """Overlap-coefficient blocker.

    Parameters mirror :class:`~repro.blocking.overlap.OverlapBlocker`,
    except *threshold* is a fraction in (0, 1].
    """

    short_name = "overlap_coeff"
    _keep_mask = staticmethod(batch.overlap_coefficient_at_least_batch)

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.7,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        *,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise BlockingError(
                f"overlap-coefficient threshold must be in (0,1], got {threshold}"
            )
        super().__init__(l_attr, r_attr, threshold, tokenizer, normalizer, block_size_policy)

    def _probe_lists(
        self,
        entries: Sequence[Any],
        doc_freq: Mapping[int, int],
        token_of: Callable[[int], str],
    ) -> list[Any]:
        """Every token of every record, in first-emission order."""
        return [entry.probe for entry in entries]

    def _right_index(self, session: EngineSession, r_entries: Mapping[Any, Any]) -> tuple:
        """The shared right index plus the token rank, the full postings
        sorted by record size and the right-prefix postings."""
        index, doc_freq, r_sets = super()._right_index(session, r_entries)
        token_of = session.token_cache.vocabulary.token_of
        ranked = sorted(doc_freq, key=lambda tid: (doc_freq[tid], token_of(tid)))
        rank = {tid: i for i, tid in enumerate(ranked)}
        by_size = sorted(
            ((len(e.probe), rid, e.probe) for rid, e in r_entries.items()),
            key=itemgetter(0),
        )
        t = self.threshold
        full = _sized_postings(by_size)
        prefixes = _sized_postings(
            (n, rid, sorted(probe, key=rank.__getitem__)[: prefix_length(t, n)])
            for n, rid, probe in by_size
        )
        return index, doc_freq, r_sets, rank, full, prefixes

    def _candidates(
        self, probes: Sequence[Any], entries: Sequence[Any], right: tuple
    ) -> Iterator[set[Any]]:
        """Per left record, the rids the size-split prefix filter lets
        through (module docstring)."""
        rank, full, prefixes = right[3:]
        t = self.threshold
        for probe, entry in zip(probes, entries):
            size = len(entry.probe)
            present = sorted(filter(rank.__contains__, probe), key=rank.__getitem__)
            # A's absent tokens fill the head of its ranked prefix
            cut = prefix_length(t, size) - (len(probe) - len(present))
            cands: set[Any] = set()
            for tid in present[: max(cut, 0)]:
                sizes, rids = full[tid]
                cands.update(rids[bisect_left(sizes, size):])
            for tid in present:
                posting = prefixes.get(tid)
                if posting is not None:
                    sizes, rids = posting
                    cands.update(rids[: bisect_left(sizes, size)])
            yield cands

    def _emit(
        self, kept: Iterable[Pair], lids: Sequence[Any], probes: Sequence[Any], right: tuple
    ) -> list[Pair]:
        """Each record's kept rids in the order of its ``seen`` set;
        records that kept nothing build none."""
        index = right[0]
        probe_of = dict(zip(lids, probes))
        pairs: list[Pair] = []
        for lid, group in groupby(kept, itemgetter(0)):
            rids = {rid for _, rid in group}
            seen = seen_rids(index, probe_of[lid])
            pairs.extend(zip(repeat(lid), filter(rids.__contains__, seen)))
        return pairs
