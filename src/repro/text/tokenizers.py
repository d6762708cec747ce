"""Tokenizers for string similarity and blocking.

PyMatcher exposes delimiter-based and q-gram tokenizers, each in a
duplicate-keeping ("bag") and duplicate-dropping ("set") flavour. Blockers
use the set flavour; bag semantics matter for measures like TF cosine.
"""

from __future__ import annotations

import re
from typing import Callable

Tokenizer = Callable[[str], list[str]]

_ALNUM_RE = re.compile(r"[a-zA-Z0-9]+")


def whitespace(text: str) -> list[str]:
    """Split on runs of whitespace (bag semantics)."""
    return text.split()


def alphanumeric(text: str) -> list[str]:
    """Maximal runs of [a-zA-Z0-9] (bag semantics)."""
    return _ALNUM_RE.findall(text)


def delimiter(sep: str) -> Tokenizer:
    """A tokenizer splitting on a literal delimiter, e.g. ``delimiter('|')``
    for the concatenated employee-name field."""

    def tokenize(text: str) -> list[str]:
        return [t for t in text.split(sep) if t]

    tokenize.__name__ = f"delim_{sep!r}"
    return tokenize


def qgram(q: int) -> Tokenizer:
    """Character q-grams of the ``#``-padded string (bag semantics).

    Padding with ``q-1`` copies of ``#`` on both ends matches the common
    string-matching convention so that short strings still produce tokens.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")

    def tokenize(text: str) -> list[str]:
        if not text:
            return []
        padded = "#" * (q - 1) + text + "#" * (q - 1)
        if len(padded) < q:
            return [padded]
        return [padded[i : i + q] for i in range(len(padded) - q + 1)]

    tokenize.__name__ = f"qgm_{q}"
    return tokenize


def unique(tokenizer: Tokenizer) -> Tokenizer:
    """Wrap *tokenizer* with set semantics (first occurrence order kept)."""

    def tokenize(text: str) -> list[str]:
        seen: set[str] = set()
        out: list[str] = []
        for tok in tokenizer(text):
            if tok not in seen:
                seen.add(tok)
                out.append(tok)
        return out

    tokenize.__name__ = f"unique_{tokenizer.__name__}"
    return tokenize


#: Registry used by automatic feature generation; names follow PyMatcher's
#: convention and appear inside generated feature names.
TOKENIZERS: dict[str, Tokenizer] = {
    "ws": whitespace,
    "alnum": alphanumeric,
    "qgm_2": qgram(2),
    "qgm_3": qgram(3),
}

#: Tokenizer -> name, built once for the writers of configs and keys.
TOKENIZER_NAMES: dict[Tokenizer, str] = {fn: name for name, fn in TOKENIZERS.items()}
