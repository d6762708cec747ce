"""Overlap blocker: keep pairs sharing at least K tokens.

Section 7 step 2 applies this to normalized award titles with a word
tokenizer and K=3. The implementation uses an inverted index over the
right table's tokens plus a *prefix filter*: a record pair can share K
tokens only if they agree on at least one of any (|tokens| - K + 1)-subset,
so each left record only probes the index with its first
``len(tokens) - k + 1`` tokens under a global token ordering. Shared-token
counts are then verified exactly
(:func:`~repro.similarity.batch.overlap_at_least_batch`).

The global ordering is ``(doc_freq, token)``, rarest first, so the prefix
probes the most selective tokens; it is a total order, ranked once per
run rather than per record. Tokenization, indexing, capping and the
probe are shared with the coefficient blocker in
:mod:`repro.blocking.overlap_family`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..errors import BlockingError
from ..similarity import batch
from ..text.intern import id_array
from ..text.tokenizers import Tokenizer, whitespace
from .overlap_family import Normalizer, TokenBlocker
from .policy import BlockSizePolicy


class OverlapBlocker(TokenBlocker):
    """Token-overlap blocker.

    Parameters
    ----------
    l_attr, r_attr:
        Blocking attributes.
    threshold:
        Minimum number of shared tokens (K >= 1).
    tokenizer:
        Token producer (set semantics applied internally).
    normalizer:
        Optional cell transform applied before tokenizing (the case study
        lower-cases and strips special characters here).
    block_size_policy:
        Optional :class:`~repro.blocking.policy.BlockSizePolicy` (or bare
        int cap): posting lists longer than the cap are skipped at probe
        time. ``None`` (default) probes everything.
    """

    short_name = "overlap"
    _keep_mask = staticmethod(batch.overlap_at_least_batch)

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: int = 1,
        tokenizer: Tokenizer = whitespace,
        normalizer: Normalizer | None = None,
        *,
        block_size_policy: "BlockSizePolicy | int | None" = None,
    ) -> None:
        if threshold < 1:
            raise BlockingError(f"overlap threshold must be >= 1, got {threshold}")
        super().__init__(l_attr, r_attr, threshold, tokenizer, normalizer, block_size_policy)

    def _probe_lists(
        self,
        entries: Sequence[Any],
        doc_freq: Mapping[int, int],
        token_of: Callable[[int], str],
    ) -> list[Any]:
        """The rank-ordered ``len - k + 1`` prefix of each record with at
        least k tokens."""
        k = self.threshold
        vocab = {tid for entry in entries for tid in entry.sorted}
        ranked = sorted(vocab, key=lambda tid: (doc_freq.get(tid, 0), token_of(tid)))
        by_rank = {tid: i for i, tid in enumerate(ranked)}.__getitem__
        probes: list[Any] = []
        for entry in entries:
            ids = entry.sorted
            if len(ids) < k:
                probes.append(None)
                continue
            ordered = sorted(ids, key=by_rank)
            probes.append(id_array(ordered[: len(ordered) - k + 1]))
        return probes
