"""Overlap-coefficient blocker: keep pairs with |X∩Y|/min(|X|,|Y|) >= t.

Section 7 step 3 adds this blocker (word tokens, threshold 0.7) because the
raw overlap blocker's K=3 floor silently drops similar titles shorter than
three tokens. Candidates are generated from an inverted index (any
surviving pair must share at least one token when t > 0), so each left
record probes with every token; shared-token counts are verified exactly
against the size-aware bound ``ceil(t * min(|X|,|Y|))`` before the
coefficient itself is checked
(:func:`~repro.similarity.batch.overlap_coefficient_at_least_batch`).

Each record probes with its unique tokens in the order the tokenizer
first emits them (:attr:`~repro.runtime.cache.InternedTokens.probe`), so
the probe order, and with it the emission order, is a function of the
cell text alone and not of the string hash seed.
Tokenization, indexing, capping and the probe are shared with the
overlap blocker in :mod:`repro.blocking.overlap_family`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..errors import BlockingError
from ..similarity import batch
from ..text.tokenizers import Tokenizer, whitespace
from .overlap_family import Normalizer, TokenBlocker
from .policy import BlockSizePolicy


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
