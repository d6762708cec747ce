"""Stable content fingerprints for pipeline inputs.

A fingerprint is a SHA-256 digest over a *canonical* byte encoding of a
value — type-tagged and length-prefixed, so ``1``, ``1.0``, ``"1"`` and
``[1]`` can never collide, dict key order never matters, and the digest of
a given Table / blocker config / feature set is identical across processes
and sessions. These digests are the cache keys of the
:class:`~repro.store.store.ArtifactStore`: a stage is reusable exactly
when every input fingerprint (plus the code-version salt) is unchanged.

Configured components fingerprint through their *recipes*, not their
Python objects: blockers via :func:`repro.blocking.factory.blocker_config`
(plus the tokenizer's registry name even where the packaging format omits
the default), rule extractors by their
:data:`~repro.text.normalize.CELL_FUNCTIONS` name, feature sets via their
:attr:`~repro.features.feature.Feature.spec` tuples, matchers via
:func:`repro.core.serialize.serialize_model`. Anything that cannot be
reduced to plain data — a custom feature function, an unregistered
normalizer — raises :class:`~repro.errors.UncacheableError`, and callers
fall back to computing the stage (never to guessing a key).
"""

from __future__ import annotations

import hashlib
import weakref
from itertools import chain
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import BlockingError, UncacheableError, WorkflowError
from ..table import Table
from ..text.normalize import CELL_FUNCTION_NAMES

#: Salt mixed into every store key. Bump when a pipeline stage changes
#: behaviour without changing its config schema, so stale artifacts from
#: older code can never be served as current results.
#: /2: interned-id kernels under blocking/extraction (outputs unchanged by
#: construction, but the hot-path implementations were rebuilt wholesale).
#: /3: batch-columnar scoring — blocker verification and token-feature
#: columns route through column-level kernels over token-id columns
#: (outputs bit-identical again, implementations rebuilt again).
#: /4: segment fingerprints — the delta-aware store layer keys blocking
#: artifacts by table *segments* (see :func:`fingerprint_table_segments`
#: and :func:`repro.store.segments.segmented_block`), so whole-table and
#: segment-level artifacts must never share a key space with /3 entries.
#: /5: one token pass per recipe, interned in the tokenizer's emission
#: order — the overlap-coefficient blocker now probes each record's tokens
#: in first-emission order instead of string-hash order, so its candidate
#: artifacts hold the same pairs in a new (hash-seed-free) order and /4
#: entries must not be replayed as current.
CODE_SALT = "repro-store/5"


# ----------------------------------------------------------------------
# canonical byte encoding
# ----------------------------------------------------------------------
class _Encoded:
    """Canonical bytes computed earlier, spliced into a walk unchanged.

    ``_walk(_Encoded(canonical_bytes(x)), out)`` emits exactly what
    ``_walk(x, out)`` would, so a memoised encoding can stand in for its
    value without changing any digest.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


def _walk(obj: Any, out: list[bytes]) -> None:
    if obj is None:
        out.append(b"N;")
    elif obj is True or obj is False:  # before int: bool subclasses int
        out.append(b"B1;" if obj else b"B0;")
    elif isinstance(obj, (int, np.integer)):
        out.append(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        # repr is the shortest exact round-trip form; nan/inf included
        out.append(b"F" + repr(float(obj)).encode("ascii") + b";")
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(b"S%d:" % len(data))
        out.append(data)
    elif isinstance(obj, bytes):
        out.append(b"X%d:" % len(obj))
        out.append(obj)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        header = f"A{arr.dtype.str}{arr.shape}:".encode("ascii")
        out.append(header)
        out.append(arr.tobytes())
    elif isinstance(obj, (list, tuple)):
        out.append(b"L%d[" % len(obj))
        for item in obj:
            _walk(item, out)
        out.append(b"]")
    elif isinstance(obj, dict):
        out.append(b"D%d{" % len(obj))
        for key in sorted(obj, key=lambda k: canonical_bytes(k)):
            _walk(key, out)
            _walk(obj[key], out)
        out.append(b"}")
    elif isinstance(obj, (set, frozenset)):
        out.append(b"Z%d{" % len(obj))
        for item in sorted(obj, key=canonical_bytes):
            _walk(item, out)
        out.append(b"}")
    elif isinstance(obj, _Encoded):
        out.append(obj.data)
    else:
        raise UncacheableError(
            f"cannot fingerprint a {type(obj).__name__} value: {obj!r}"
        )


def canonical_bytes(obj: Any) -> bytes:
    """The canonical (type-tagged, order-independent) encoding of *obj*."""
    out: list[bytes] = []
    _walk(obj, out)
    return b"".join(out)


def fingerprint_value(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of *obj*."""
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


# ----------------------------------------------------------------------
# tables (memoized — fingerprinting a full table walks every cell)
# ----------------------------------------------------------------------
_TABLE_MEMO: "weakref.WeakKeyDictionary[Table, str]" = weakref.WeakKeyDictionary()


def fingerprint_table(table: Table) -> str:
    """Content fingerprint of a table: column names, order and every cell.

    The table *name* is deliberately excluded — the store is
    content-addressed, and renaming a table must not invalidate artifacts.
    The digest is memoized per table object under the same immutability
    idiom the :class:`~repro.runtime.cache.TokenCache` documents (mutating
    methods return new tables); a table whose cell lists are edited in
    place behind the memo must go through a fresh object.
    """
    cached = _TABLE_MEMO.get(table)
    if cached is None:
        payload = {
            "columns": table.columns,
            "cells": [table[c] for c in table.columns],
        }
        cached = fingerprint_value(payload)
        _TABLE_MEMO[table] = cached
    return cached


#: Default rows per fingerprint segment. Small enough that a patch of a
#: few rows invalidates a sliver of a case-study-sized table, large
#: enough that the per-segment store overhead (one artifact + one digest
#: each) stays negligible.
SEGMENT_ROWS = 256

_SEGMENT_MEMO: "weakref.WeakKeyDictionary[Table, dict[int, tuple[str, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def segment_bounds(n_rows: int, rows_per_segment: int = SEGMENT_ROWS) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` row ranges of each fingerprint segment."""
    if rows_per_segment < 1:
        raise UncacheableError(
            f"rows_per_segment must be >= 1, got {rows_per_segment}"
        )
    return [
        (start, min(start + rows_per_segment, n_rows))
        for start in range(0, n_rows, rows_per_segment)
    ]


def fingerprint_table_segments(
    table: Table, rows_per_segment: int = SEGMENT_ROWS
) -> tuple[str, ...]:
    """Per-segment content fingerprints of a table (row-range slices).

    Each digest covers the column names plus the cells of one
    ``rows_per_segment``-row slice, and nothing else — no segment index,
    no table name, no neighbouring rows — so an edit to k rows changes
    exactly the digests of the segments containing them, and two tables
    sharing a row range (e.g. the original and a patched copy) share
    those segments' digests. This is what lets the segmented store layer
    (:func:`repro.store.segments.segmented_block`) reuse ~99% of blocking
    artifacts when ~1% of a table changed, where the whole-table
    :func:`fingerprint_table` key would invalidate 100%.

    Memoized per ``(table object, rows_per_segment)`` under the same
    immutability idiom as :func:`fingerprint_table`.
    """
    per_table = _SEGMENT_MEMO.get(table)
    if per_table is None:
        per_table = _SEGMENT_MEMO[table] = {}
    cached = per_table.get(rows_per_segment)
    if cached is None:
        columns = table.columns
        cells = [table[c] for c in columns]
        digests = []
        for start, stop in segment_bounds(len(table), rows_per_segment):
            payload = {
                "columns": columns,
                "cells": [col[start:stop] for col in cells],
            }
            digests.append(fingerprint_value(payload))
        cached = per_table[rows_per_segment] = tuple(digests)
    return cached


# ----------------------------------------------------------------------
# pipeline components
# ----------------------------------------------------------------------
def fingerprint_blocker(blocker: Any) -> str:
    """Fingerprint a blocker's full configuration.

    Hashes :func:`repro.blocking.factory.blocker_config`, the payload
    packaging writes, with the tokenizer's name always present: the
    payload omits the default (``ws``), while store keys have always
    recorded it.
    """
    from ..blocking.factory import blocker_config

    try:
        config = blocker_config(blocker)
    except BlockingError as exc:
        raise UncacheableError(str(exc)) from exc
    if getattr(blocker, "tokenizer", None) is not None:
        config.setdefault("tokenizer", "ws")
    return fingerprint_value(config)


def _extractor_name(fn: Any) -> str:
    try:
        return CELL_FUNCTION_NAMES[fn]
    except (KeyError, TypeError):
        raise UncacheableError(
            f"rule extractor {fn!r} is not a registered extractor"
        ) from None


def fingerprint_positive_rules(rules: Iterable[Any]) -> str:
    """Fingerprint a list of :class:`~repro.rules.positive.ExactNumberRule`."""
    specs = []
    for rule in rules:
        specs.append(
            {
                "name": rule.name,
                "l_attr": rule.l_attr,
                "r_attr": rule.r_attr,
                "l_extract": _extractor_name(rule.l_extract),
                "r_extract": _extractor_name(rule.r_extract),
            }
        )
    return fingerprint_value(specs)


def fingerprint_feature_set(feature_set: Iterable[Any]) -> str:
    """Fingerprint a feature set via the structured spec recipes."""
    specs = []
    for feature in feature_set:
        if feature.spec is None:
            raise UncacheableError(
                f"feature {feature.name!r} wraps a custom function (no spec recipe)"
            )
        specs.append([feature.name, list(feature.spec)])
    return fingerprint_value(specs)


def _id_code(item: Any) -> bytes | None:
    """The canonical bytes of a ``str`` or ``int`` pair id (``None`` for
    any other type, ``bool`` included)."""
    kind = type(item)
    if kind is str:
        raw = item.encode("utf-8")
        return b"S%d:%s" % (len(raw), raw)
    if kind is int:
        return b"I%d;" % item
    return None


def fingerprint_pairs(pairs: Sequence[Any]) -> str:
    """Fingerprint an ordered list of (left-id, right-id) pairs.

    Equal to ``fingerprint_value([list(p) for p in pairs])``. Pairs of
    ``str``/``int`` ids are encoded here directly, each distinct id once;
    anything else (``bool``, NumPy or float ids, other arities) takes the
    generic walk.
    """
    encoded: dict[Any, bytes] = {}
    out = [b"L%d[" % len(pairs)]
    for pair in pairs:
        if len(pair) != 2:
            return fingerprint_value([list(p) for p in pairs])
        out.append(b"L2[")
        for item in pair:
            kind = type(item)
            if kind is not str and kind is not int:
                return fingerprint_value([list(p) for p in pairs])
            data = encoded.get(item)
            if data is None:
                data = encoded[item] = _id_code(item)
            out.append(data)
        out.append(b"]")
    out.append(b"]")
    return hashlib.sha256(b"".join(out)).hexdigest()


def fingerprint_positions(
    l_ids: Sequence[Any], r_ids: Sequence[Any], l_pos: np.ndarray, r_pos: np.ndarray
) -> str:
    """:func:`fingerprint_pairs` of the pairs ``(l_ids[i], r_ids[j])`` at
    row positions ``i`` in *l_pos* and ``j`` in *r_pos* (a candidate set's
    key columns and positions), without building a tuple per pair: each
    row's id is encoded once and the pair bytes are joined from those."""
    codes = []
    for ids, positions, head, tail in ((l_ids, l_pos, b"L2[", b""), (r_ids, r_pos, b"", b"]")):
        rows = positions.tolist()
        by_row: dict[int, bytes] = {}
        for row in dict.fromkeys(rows):
            data = _id_code(ids[row])
            if data is None:
                return fingerprint_pairs(
                    [(l_ids[i], r_ids[j]) for i, j in zip(l_pos.tolist(), r_pos.tolist())]
                )
            by_row[row] = head + data + tail
        codes.append(map(by_row.__getitem__, rows))
    digest = hashlib.sha256(b"L%d[" % len(l_pos))
    digest.update(b"".join(chain.from_iterable(zip(*codes))))
    digest.update(b"]")
    return digest.hexdigest()


def _model_bytes(model: Any) -> bytes:
    """Canonical bytes of ``serialize_model(model)``, memoised on the model.

    The tree learners keep the memo in ``_canonical`` and drop it wherever
    they drop their packed prediction arrays (``fit``, ``_reset`` and so
    ``clone``), so a refit model never serves a stale encoding.
    """
    from ..core.serialize import serialize_model

    cached = getattr(model, "_canonical", None)
    if cached is None:
        try:
            cached = canonical_bytes(serialize_model(model))
        except WorkflowError as exc:
            raise UncacheableError(str(exc)) from exc
        model._canonical = cached
    return cached


def fingerprint_matcher(matcher: Any) -> str:
    """Fingerprint a *fitted* ML matcher (model structure + imputer means).

    The model's encoding is memoised (:func:`_model_bytes`); the name,
    imputer means and feature names are re-read on every call, so swapping
    a matcher's imputer can never hit a stale memo.
    """
    if not matcher.is_fitted:
        raise UncacheableError(
            f"matcher {matcher.name!r} is unfitted; only trained matchers fingerprint"
        )
    return fingerprint_value(
        {
            "name": matcher.name,
            "model": _Encoded(_model_bytes(matcher.model)),
            "imputer_means": [float(v) for v in matcher._imputer._means],
            "features": list(matcher._feature_names or []),
        }
    )


def fingerprint_matrix(matrix: Any) -> str:
    """Fingerprint a :class:`~repro.features.vectors.FeatureMatrix` by content.

    A matrix decoded from the store carries the fingerprint its payload
    recorded, and one encoded into the store keeps the digest computed
    for its payload (see :class:`~repro.store.codecs.FeatureMatrixCodec`);
    either is returned without re-walking the matrix. Every other matrix
    is walked on each call.
    """
    carried = matrix._fingerprint
    if carried is not None:
        return carried
    return fingerprint_value(
        {
            "pairs": [list(p) for p in matrix.pairs],
            "features": list(matrix.feature_names),
            "values": matrix.values,
        }
    )
