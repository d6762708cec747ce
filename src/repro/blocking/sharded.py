"""The ``sharded_overlap`` and ``sharded_overlap_coefficient`` kinds.

Each class validates and stores ``shards`` and is otherwise its
overlap-family parent: the same in-process probe, the same pairs in the
same order. ``shards`` no longer changes how they run. It travels in the
serialised payload, so stored plans, registry configs and store keys
that name these kinds keep working. No shard layout measured faster than
the in-process probe at 20k or 100k rows, serial or with two workers
(``docs/blocking.md``).
"""

from __future__ import annotations

from typing import Any

from ..errors import BlockingError
from .overlap import OverlapBlocker
from .overlap_coefficient import OverlapCoefficientBlocker

DEFAULT_SHARDS = 8

MAX_SHARDS = 64


def _validate_shards(shards: int) -> int:
    if not 1 <= shards <= MAX_SHARDS:
        raise BlockingError(f"shards must be in [1, {MAX_SHARDS}], got {shards}")
    return shards


class ShardedOverlapBlocker(OverlapBlocker):
    """:class:`~repro.blocking.overlap.OverlapBlocker` under the
    ``sharded_overlap`` kind.

    Emits exactly the parent's pairs, in the parent's order, through the
    parent's code path. ``shards`` (1..64) is validated and serialised
    but no longer changes how the blocker runs.
    """

    short_name = "sharded_overlap"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: int = 1,
        tokenizer: Any = None,
        normalizer: Any = None,
        *,
        shards: int = DEFAULT_SHARDS,
        block_size_policy: Any = None,
    ) -> None:
        kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}
        super().__init__(
            l_attr,
            r_attr,
            threshold,
            normalizer=normalizer,
            block_size_policy=block_size_policy,
            **kwargs,
        )
        self.shards = _validate_shards(shards)


class ShardedOverlapCoefficientBlocker(OverlapCoefficientBlocker):
    """:class:`~repro.blocking.overlap_coefficient.OverlapCoefficientBlocker`
    under the ``sharded_overlap_coefficient`` kind. Same ``shards``
    contract as :class:`ShardedOverlapBlocker`: validated and serialised,
    no effect on execution.
    """

    short_name = "sharded_overlap_coeff"

    def __init__(
        self,
        l_attr: str,
        r_attr: str,
        threshold: float = 0.7,
        tokenizer: Any = None,
        normalizer: Any = None,
        *,
        shards: int = DEFAULT_SHARDS,
        block_size_policy: Any = None,
    ) -> None:
        kwargs = {} if tokenizer is None else {"tokenizer": tokenizer}
        super().__init__(
            l_attr,
            r_attr,
            threshold,
            normalizer=normalizer,
            block_size_policy=block_size_policy,
            **kwargs,
        )
        self.shards = _validate_shards(shards)
