"""Content-addressed artifact store for incremental workflow re-execution.

Create an :class:`ArtifactStore` over a directory and hand it to an
:class:`~repro.runtime.context.EngineSession` (``EngineSession(store=...)``);
every stage run under that session — blocking, feature extraction,
prediction, the case-study entry points — is memoized. Re-running a patched workflow then recomputes
only the stages whose input fingerprints changed;
:meth:`ArtifactStore.explain` reports what was reused and why. See
``docs/store.md``.
"""

from .codecs import (
    CANDIDATES,
    FEATURE_MATRIX,
    LABELS,
    MATCHER,
    PACKAGED_WORKFLOW,
    PAIR_LIST,
    ArtifactCodec,
    CandidateSetCodec,
    FeatureMatrixCodec,
    LabeledPairsCodec,
    MatcherCodec,
    PackagedWorkflowCodec,
    PairListCodec,
)
from .fingerprint import (
    CODE_SALT,
    SEGMENT_ROWS,
    canonical_bytes,
    fingerprint_blocker,
    fingerprint_feature_set,
    fingerprint_matcher,
    fingerprint_matrix,
    fingerprint_pairs,
    fingerprint_positive_rules,
    fingerprint_table,
    fingerprint_table_segments,
    fingerprint_value,
    segment_bounds,
)
from .segments import SegmentBlockStage, segmented_block
from .store import ArtifactStore, StoreEvent, StoreStats

__all__ = [
    "ArtifactStore",
    "StoreEvent",
    "StoreStats",
    "ArtifactCodec",
    "CandidateSetCodec",
    "FeatureMatrixCodec",
    "LabeledPairsCodec",
    "MatcherCodec",
    "PackagedWorkflowCodec",
    "PairListCodec",
    "CANDIDATES",
    "FEATURE_MATRIX",
    "LABELS",
    "MATCHER",
    "PACKAGED_WORKFLOW",
    "PAIR_LIST",
    "CODE_SALT",
    "SEGMENT_ROWS",
    "SegmentBlockStage",
    "canonical_bytes",
    "fingerprint_value",
    "fingerprint_table",
    "fingerprint_table_segments",
    "segment_bounds",
    "segmented_block",
    "fingerprint_blocker",
    "fingerprint_positive_rules",
    "fingerprint_feature_set",
    "fingerprint_pairs",
    "fingerprint_matcher",
    "fingerprint_matrix",
]
