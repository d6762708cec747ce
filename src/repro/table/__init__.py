"""Columnar table substrate (pandas stand-in) used throughout the toolkit."""

from .catalog import (
    Catalog,
    foreign_key_violations,
    is_key,
    validate_foreign_key,
    validate_key,
)
from .column import ColumnStats, compute_stats, is_missing, missing_count, unique_count
from .io import read_csv, write_csv
from .ops import aggregate, concat, group_concat, hash_join, values_overlap
from .pretty import render_record_pair, render_table
from .profile import (
    TableProfile,
    format_profile,
    profile_table,
    sample_rows,
    summarize_tables,
)
from .schema import AttrType, infer_schema, infer_type
from .table import Row, Table

__all__ = [
    "AttrType",
    "Catalog",
    "ColumnStats",
    "Row",
    "Table",
    "TableProfile",
    "aggregate",
    "compute_stats",
    "concat",
    "foreign_key_violations",
    "format_profile",
    "group_concat",
    "hash_join",
    "infer_schema",
    "infer_type",
    "is_key",
    "is_missing",
    "missing_count",
    "profile_table",
    "read_csv",
    "render_record_pair",
    "render_table",
    "sample_rows",
    "summarize_tables",
    "unique_count",
    "validate_foreign_key",
    "validate_key",
    "values_overlap",
    "write_csv",
]
