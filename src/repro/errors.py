"""Exception hierarchy for the :mod:`repro` toolkit.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class. Sub-classes mirror the major subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TableError(ReproError):
    """Problem with a :class:`repro.table.Table` operation."""


class SchemaError(TableError):
    """A referenced column does not exist or has an unexpected type."""


class KeyConstraintError(TableError):
    """A declared key or foreign key is violated by the data."""


class CatalogError(ReproError):
    """Metadata (key/foreign-key registration) is missing or inconsistent."""


class BlockingError(ReproError):
    """Invalid configuration or inputs for a blocker."""


class IncrementalBlockingError(BlockingError):
    """A blocker was asked for an incremental handle it does not support
    (no shared index-and-probe hooks, or a block-size cap), or an
    order-dependent blocker for segmented blocking. Raised instead of
    silently falling back to a full re-block: callers must opt into the
    cost of ``block_tables`` explicitly."""


class FeatureError(ReproError):
    """Feature generation or feature-vector extraction failed."""


class MatcherError(ReproError):
    """A matcher was mis-configured, or used before being trained."""


class NotFittedError(MatcherError):
    """A model was asked to predict before :meth:`fit` was called."""


class RuleError(ReproError):
    """A matching rule is malformed or references unknown attributes."""


class LabelingError(ReproError):
    """Invalid labeling-protocol usage (e.g. unknown label value)."""


class LabelingToolLockedError(LabelingError):
    """The simulated cloud labeling tool only admits one active session."""


class EvaluationError(ReproError):
    """Accuracy estimation received inconsistent inputs."""


class WorkflowError(ReproError):
    """An EM workflow graph is malformed or a stage failed."""


class PlanError(WorkflowError):
    """A :class:`repro.plan.PipelineSpec` is malformed: unknown node kind,
    duplicate node id or artifact producer, a missing artifact edge, a
    dependency cycle, or a spec that cannot be serialized canonically."""


class DatasetError(ReproError):
    """Synthetic scenario generation was given invalid parameters."""


class StoreError(ReproError):
    """The artifact store hit a bad root, unknown kind or corrupt artifact."""


class UncacheableError(StoreError):
    """A pipeline input has no stable fingerprint (e.g. an unregistered
    callable), so its stage must be computed rather than cached."""


class ObsError(ReproError):
    """Telemetry problem: a malformed trace or manifest, an invalid
    metric configuration, or provenance that was never collected."""


class ServingError(ReproError):
    """The online match service was mis-configured or received a patch
    it cannot apply (e.g. rows missing the key column)."""
