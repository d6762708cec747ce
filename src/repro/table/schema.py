"""Column type inference.

PyMatcher's automatic feature generation keys off a coarse attribute type:
numeric, boolean, or a string class bucketed by average token count. This
module infers those types from column values; :mod:`repro.features.types`
maps them onto feature recipes.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Sequence

from .column import is_missing
from .table import Table


class AttrType(Enum):
    """Coarse attribute types used to pick similarity features."""

    NUMERIC = "numeric"
    BOOLEAN = "boolean"
    STR_EQ_1W = "string (1 word)"
    STR_BT_1W_5W = "string (1-5 words)"
    STR_BT_5W_10W = "string (5-10 words)"
    STR_GT_10W = "string (>10 words)"
    UNKNOWN = "unknown"

    @property
    def is_string(self) -> bool:
        return self in (
            AttrType.STR_EQ_1W,
            AttrType.STR_BT_1W_5W,
            AttrType.STR_BT_5W_10W,
            AttrType.STR_GT_10W,
        )


def infer_type(values: Sequence[Any]) -> AttrType:
    """Infer the :class:`AttrType` of a column from its values.

    Mirrors py_entitymatching's buckets: all-boolean -> BOOLEAN; all-numeric
    -> NUMERIC; strings are classified by the average whitespace token count
    (==1, (1,5], (5,10], >10). Missing values are ignored; an all-missing
    column is UNKNOWN.
    """
    present = [v for v in values if not is_missing(v)]
    if not present:
        return AttrType.UNKNOWN
    if all(isinstance(v, bool) for v in present):
        return AttrType.BOOLEAN
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in present):
        return AttrType.NUMERIC
    if not all(isinstance(v, str) for v in present):
        return AttrType.UNKNOWN
    avg_tokens = sum(len(v.split()) for v in present) / len(present)
    if avg_tokens <= 1:
        return AttrType.STR_EQ_1W
    if avg_tokens <= 5:
        return AttrType.STR_BT_1W_5W
    if avg_tokens <= 10:
        return AttrType.STR_BT_5W_10W
    return AttrType.STR_GT_10W


def infer_schema(table: Table) -> dict[str, AttrType]:
    """Infer the type of every column of *table*."""
    return {c: infer_type(table[c]) for c in table.columns}

