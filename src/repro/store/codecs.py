"""Artifact codecs: pipeline objects <-> JSON payload (+ optional CSV).

Every store artifact is a JSON document plus, for bulk numeric data, a CSV
sidecar; both are plain text so cached artifacts can be inspected, diffed
and checked into a repository like any other file. Codecs are lossless for
the pipeline's purposes: a decoded artifact is bit-identical to the object
that was encoded (float cells round-trip through ``repr``, which is exact
for IEEE doubles).

Objects that reference base tables (:class:`CandidateSet`) store only pair
ids — the caller supplies the live tables at decode time via codec
*context*, and the store key already pins their content fingerprints, so a
decoded candidate set can never silently attach to different data.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..blocking.candidate_set import CandidateSet
from ..errors import StoreError
from ..features.vectors import FeatureMatrix
from ..labeling.labels import Label, LabeledPairs
from ..ml.impute import MeanImputer
from .fingerprint import fingerprint_matrix

Payload = dict[str, Any]


class ArtifactCodec:
    """Encode/decode one artifact kind.

    ``encode`` returns ``(payload, sidecar)`` where *payload* is a
    JSON-serializable dict and *sidecar* is an optional CSV text blob;
    ``decode`` inverts it, with keyword *context* for live objects the
    payload deliberately does not embed (base tables).
    """

    kind = "artifact"

    def encode(self, obj: Any) -> tuple[Payload, str | None]:
        raise NotImplementedError

    def decode(self, payload: Payload, sidecar: str | None, **context: Any) -> Any:
        raise NotImplementedError


class CandidateSetCodec(ArtifactCodec):
    """Pairs + keys; base tables are decode-time context."""

    kind = "candidates"

    def encode(self, candidates: CandidateSet) -> tuple[Payload, str | None]:
        return (
            {
                "name": candidates.name,
                "l_key": candidates.l_key,
                "r_key": candidates.r_key,
                "pairs": [list(p) for p in candidates.pairs],
            },
            None,
        )

    def decode(
        self, payload: Payload, sidecar: str | None, **context: Any
    ) -> CandidateSet:
        try:
            ltable, rtable = context["ltable"], context["rtable"]
        except KeyError:
            raise StoreError(
                "decoding a candidate set needs ltable/rtable context"
            ) from None
        # the stored [lid, rid] lists map straight to row positions; an id
        # missing from its table raises BlockingError
        return CandidateSet(
            ltable,
            rtable,
            payload["l_key"],
            payload["r_key"],
            payload["pairs"],
            name=context.get("name") or payload.get("name", ""),
        )


def _format_cell(value: float) -> str:
    return repr(float(value))


class FeatureMatrixCodec(ArtifactCodec):
    """Pairs/feature names in JSON; the value matrix as a CSV sidecar."""

    kind = "feature_matrix"

    def encode(self, matrix: FeatureMatrix) -> tuple[Payload, str | None]:
        # the content fingerprint travels with the artifact, and with the
        # live matrix the store hands back: a predict stage downstream
        # reads it instead of re-walking every pair and cell
        matrix._fingerprint = fingerprint_matrix(matrix)
        payload = {
            "pairs": [list(p) for p in matrix.pairs],
            "feature_names": list(matrix.feature_names),
            "fingerprint": matrix._fingerprint,
        }
        lines = [
            ",".join(_format_cell(v) for v in row) for row in matrix.values
        ]
        return payload, "\n".join(lines)

    def decode(
        self, payload: Payload, sidecar: str | None, **context: Any
    ) -> FeatureMatrix:
        pairs = [tuple(p) for p in payload["pairs"]]
        names = list(payload["feature_names"])
        lines = [line for line in (sidecar or "").splitlines() if line]
        # one C-level parse of every cell; it reads each ``repr`` back to
        # the same double ``float`` does, and raises ValueError on a bad
        # cell or ragged rows as the row-by-row parse did
        values = (
            np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)
            if lines
            else np.empty((0, 0))
        ).reshape(len(pairs), len(names))
        matrix = FeatureMatrix(pairs=pairs, feature_names=names, values=values)
        # artifacts written before fingerprints were carried have none
        matrix._fingerprint = payload.get("fingerprint")
        return matrix


class LabeledPairsCodec(ArtifactCodec):
    """Pairs with their Yes/No/Unsure labels, in labeling order."""

    kind = "labels"

    def encode(self, labels: LabeledPairs) -> tuple[Payload, str | None]:
        return (
            {"items": [[list(pair), label.value] for pair, label in labels.items()]},
            None,
        )

    def decode(
        self, payload: Payload, sidecar: str | None, **context: Any
    ) -> LabeledPairs:
        return LabeledPairs(
            [(tuple(pair), Label.from_text(text)) for pair, text in payload["items"]]
        )


class MatcherCodec(ArtifactCodec):
    """A fitted ML matcher, via the packaging-format model recipes."""

    kind = "matcher"

    def encode(self, matcher: Any) -> tuple[Payload, str | None]:
        from ..core.serialize import serialize_model

        if not matcher.is_fitted:
            raise StoreError("only fitted matchers can be stored")
        return (
            {
                "name": matcher.name,
                "model": serialize_model(matcher.model),
                "imputer_means": [float(v) for v in matcher._imputer._means],
                "feature_names": list(matcher._feature_names or []),
            },
            None,
        )

    def decode(self, payload: Payload, sidecar: str | None, **context: Any) -> Any:
        from ..core.serialize import deserialize_model
        from ..matchers.ml_matcher import MLMatcher

        matcher = MLMatcher(deserialize_model(payload["model"]), payload["name"])
        imputer = MeanImputer()
        imputer._means = np.asarray(payload["imputer_means"], dtype=float)
        matcher._imputer = imputer
        matcher._feature_names = list(payload["feature_names"])
        return matcher


class PackagedWorkflowCodec(ArtifactCodec):
    """A whole deployable workflow (rules + blocking + features + matcher)."""

    kind = "packaged_workflow"

    def encode(self, packaged: Any) -> tuple[Payload, str | None]:
        return packaged.to_dict(), None

    def decode(self, payload: Payload, sidecar: str | None, **context: Any) -> Any:
        from ..core.serialize import PackagedWorkflow

        return PackagedWorkflow.from_dict(payload)


class PairListCodec(ArtifactCodec):
    """An ordered list of (left-id, right-id) pairs (e.g. predictions)."""

    kind = "pairs"

    def encode(self, pairs: list) -> tuple[Payload, str | None]:
        return {"pairs": [list(p) for p in pairs]}, None

    def decode(self, payload: Payload, sidecar: str | None, **context: Any) -> list:
        return [tuple(p) for p in payload["pairs"]]


CANDIDATES = CandidateSetCodec()
FEATURE_MATRIX = FeatureMatrixCodec()
LABELS = LabeledPairsCodec()
MATCHER = MatcherCodec()
PACKAGED_WORKFLOW = PackagedWorkflowCodec()
PAIR_LIST = PairListCodec()
