"""Block-size capping policy shared by every block-producing blocker.

A "block" is one posting list of an inverted index (token blockers), one
equi-join group (attribute equivalence), or one LSH bucket. At million-row
scale a handful of stop-word-like tokens own posting lists covering a
large fraction of the table, and probing them turns blocking quadratic:
the cross product of a single oversized block can dwarf every real match.
The classic fix (the ``max_block_size`` idea in dedupe-style blocking
schemes) is to *skip* oversized blocks at candidate-generation time — a
recall-bounded trade the caller opts into explicitly, sized to the data.

:class:`BlockSizePolicy` is that knob as a tiny frozen value object. Every
blocker that groups records accepts ``block_size_policy=``; the default
(``None`` / :data:`UNCAPPED`) changes nothing, keeping the paper recipe
and every golden snapshot bit-identical. When a cap is set the blocker

* drops capped tokens/values from its *probe side only* — verification
  still counts every shared token, so a pair reached through a surviving
  block is scored exactly as before;
* reports what it skipped through the session instrumentation as
  ``capped_blocks`` (distinct oversized blocks) and ``capped_postings``
  (index entries those blocks held), plus, for the token blockers,
  ``capped_records`` (left records left with nothing to probe), which the
  :mod:`repro.obs` metrics collector rolls up like any other stage counter.

Capping decisions are made on *complete* block sizes (the whole posting
list / join group), so the sharded and unsharded execution paths — where
a token's full posting always lives in exactly one shard — cap the same
blocks and stay bit-identical to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import BlockingError
from ..runtime.instrument import count


@dataclass(frozen=True)
class BlockSizePolicy:
    """Skip blocks holding more than ``max_block_size`` records.

    ``max_block_size=None`` (the default) means uncapped: every block is
    probed, exactly like the policy-free code path.
    """

    max_block_size: int | None = None

    def __post_init__(self) -> None:
        if self.max_block_size is not None and self.max_block_size < 1:
            raise BlockingError(
                f"max_block_size must be >= 1 or None, got {self.max_block_size}"
            )

    @property
    def capped(self) -> bool:
        """True when this policy can skip anything at all."""
        return self.max_block_size is not None

    def keeps(self, size: int) -> bool:
        """True when a block of *size* records should be probed."""
        return self.max_block_size is None or size <= self.max_block_size


#: The do-nothing default shared by all blockers.
UNCAPPED = BlockSizePolicy()


def resolve_policy(policy: "BlockSizePolicy | int | None") -> BlockSizePolicy:
    """Coerce the ``block_size_policy=`` argument blockers accept.

    ``None`` -> :data:`UNCAPPED`; a bare int is shorthand for
    ``BlockSizePolicy(max_block_size=n)`` (the factory config path).
    """
    if policy is None:
        return UNCAPPED
    if isinstance(policy, BlockSizePolicy):
        return policy
    if isinstance(policy, int) and not isinstance(policy, bool):
        return BlockSizePolicy(max_block_size=policy)
    raise BlockingError(
        f"block_size_policy must be a BlockSizePolicy, int or None, got {policy!r}"
    )


def capped_keys(
    sizes: Mapping[Any, int],
    policy: BlockSizePolicy,
    instrument: Any = None,
) -> frozenset:
    """The keys of blocks *policy* rejects, with counter accounting.

    *sizes* maps a block key (token, join value, bucket) to the complete
    block's record count. Emits the ``capped_blocks`` / ``capped_postings``
    counters (even at zero, so capped runs always expose them); returns
    ``frozenset()`` untallied for uncapped policies — the default recipe's
    metrics stay byte-for-byte unchanged.
    """
    if not policy.capped:
        return frozenset()
    cap = policy.max_block_size
    over = frozenset(k for k, n in sizes.items() if n > cap)
    count(instrument, "capped_blocks", len(over))
    count(instrument, "capped_postings", sum(sizes[k] for k in over))
    return over
