"""Blocking subsystem: blockers, candidate sets, combiners, debugger."""

from .attr_equivalence import AttrEquivalenceBlocker
from .base import Blocker
from .blackbox import BlackBoxBlocker
from .candidate_set import CandidateSet, Pair, full_cross_product
from .combiner import (
    OverlapReport,
    intersect_candidates,
    overlap_report,
    union_candidates,
)
from .debugger import MissedPairReport, debug_blocker
from .incremental import IncrementalBlocking
from .dedupe import canonical_records, dedupe_candidates, duplicate_clusters
from .down_sample import down_sample
from .factory import (
    BLOCKER_REGISTRY,
    BlockerConfig,
    create_blocker,
    create_blockers,
    default_plan_configs,
    register_blocker,
)
from .overlap import OverlapBlocker
from .overlap_coefficient import OverlapCoefficientBlocker
from .policy import UNCAPPED, BlockSizePolicy, resolve_policy
from .rule_based import RuleBasedBlocker
from .sharded import ShardedOverlapBlocker, ShardedOverlapCoefficientBlocker
from .sorted_neighborhood import SortedNeighborhoodBlocker

__all__ = [
    "AttrEquivalenceBlocker",
    "BLOCKER_REGISTRY",
    "BlackBoxBlocker",
    "Blocker",
    "BlockerConfig",
    "BlockSizePolicy",
    "CandidateSet",
    "IncrementalBlocking",
    "MissedPairReport",
    "OverlapBlocker",
    "OverlapCoefficientBlocker",
    "OverlapReport",
    "Pair",
    "RuleBasedBlocker",
    "ShardedOverlapBlocker",
    "ShardedOverlapCoefficientBlocker",
    "SortedNeighborhoodBlocker",
    "UNCAPPED",
    "canonical_records",
    "create_blocker",
    "create_blockers",
    "default_plan_configs",
    "register_blocker",
    "resolve_policy",
    "debug_blocker",
    "dedupe_candidates",
    "down_sample",
    "duplicate_clusters",
    "full_cross_product",
    "intersect_candidates",
    "overlap_report",
    "union_candidates",
]
