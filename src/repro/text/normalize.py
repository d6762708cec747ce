"""String normalization used before blocking.

Section 7 of the case study normalizes award titles before applying the
overlap and overlap-coefficient blockers: lower-case everything and strip
special characters (quotes, hashes, exclamation marks, braces, ...).
Notably, the paper does *not* lower-case in pre-processing (footnote 8) —
case information is preserved for matching and handled via features — so
normalization is applied only where a specific step asks for it.
"""

from __future__ import annotations

import re
from typing import Any, Callable

from ..table.column import is_missing
from .patterns import award_number_suffix

_SPECIAL_CHARS_RE = re.compile(r"""["'#!(){}\[\]*&^%$@~`;:?<>,\\/+=_-]""")
_MULTI_SPACE_RE = re.compile(r"\s+")


def strip_special_characters(text: str) -> str:
    """Replace the paper's list of special characters with spaces."""
    return _SPECIAL_CHARS_RE.sub(" ", text)


def normalize_title(value: Any) -> Any:
    """Blocking-time title normalization: lower-case + strip specials.

    ``None`` (missing) passes through; non-strings are stringified first so
    the normalizer can be mapped over any column.
    """
    if is_missing(value):
        return value
    text = str(value).lower()
    text = strip_special_characters(text)
    return _MULTI_SPACE_RE.sub(" ", text).strip()


def casefold_tokens(tokens: list[str]) -> list[str]:
    """Lower-case a token list (used by case-insensitive features)."""
    return [t.lower() for t in tokens]


def collapse_whitespace(text: str) -> str:
    """Squeeze runs of whitespace to single spaces and trim."""
    return _MULTI_SPACE_RE.sub(" ", text).strip()


def identity(value: Any) -> Any:
    """The cell unchanged: the rules' default extractor."""
    return value


#: The named cell functions: blocker normalizers and preprocessors and
#: rule extractors. Plan configs, packaged workflows and store keys all
#: record a cell function by its name here (tokenizers have their own
#: table, :data:`repro.text.tokenizers.TOKENIZERS`).
CELL_FUNCTIONS: dict[str, Callable[[Any], Any]] = {
    "identity": identity,
    "normalize_title": normalize_title,
    "award_number_suffix": award_number_suffix,
}

#: Function -> name, built once for the writers of configs and keys.
CELL_FUNCTION_NAMES: dict[Callable[[Any], Any], str] = {
    fn: name for name, fn in CELL_FUNCTIONS.items()
}
