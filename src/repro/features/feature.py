"""Feature objects: named similarity functions over record pairs.

A :class:`Feature` computes one number from the values of a left and right
attribute; missing inputs yield NaN (imputed later, Section 9). Factory
helpers build the token-based, character-based and numeric feature flavours
that automatic generation composes, including the case-insensitive variants
the case study added after matcher debugging revealed letter-case
mismatches (footnote 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ..similarity import (
    absolute_difference,
    cosine_set,
    dice,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein_similarity,
    monge_elkan,
    overlap_coefficient,
    relative_difference,
)
from ..table.column import is_missing
from ..text.tokenizers import Tokenizer

PairFunction = Callable[[Any, Any], float]

NAN = float("nan")


@dataclass(frozen=True)
class Feature:
    """A named feature over (left attribute, right attribute).

    ``spec`` is the feature's structured recipe — enough to rebuild the
    (closure-based, hence unpicklable) ``function`` via
    :func:`feature_from_spec`, and to derive variants (e.g. case-insensitive
    twins) without parsing the name. Features wrapping arbitrary callables
    have ``spec=None``.
    """

    name: str
    l_attr: str
    r_attr: str
    function: PairFunction = field(repr=False)
    spec: tuple | None = field(default=None, compare=False)

    def __call__(self, l_value: Any, r_value: Any) -> float:
        return self.function(l_value, r_value)

    def from_rows(self, l_row: dict[str, Any], r_row: dict[str, Any]) -> float:
        """Evaluate on full records (pulls out the right attributes)."""
        return self.function(l_row[self.l_attr], r_row[self.r_attr])


def _guard_missing(fn: Callable[[str, str], float], casefold: bool) -> PairFunction:
    def wrapped(a: Any, b: Any) -> float:
        if is_missing(a) or is_missing(b):
            return NAN
        a, b = str(a), str(b)
        if casefold:
            a, b = a.lower(), b.lower()
        return float(fn(a, b))

    return wrapped


#: Character-level similarity registry (PyMatcher short names).
STRING_MEASURES: dict[str, Callable[[str, str], float]] = {
    "lev_sim": levenshtein_similarity,
    "jaro": jaro,
    "jw": jaro_winkler,
    # named exact_str so generated names stay distinct from the numeric
    # "exact" feature (both would otherwise serialize to "{a}_{a}_exact")
    "exact_str": lambda a, b: 1.0 if a == b else 0.0,
}

#: Token-level similarity registry.
TOKEN_MEASURES: dict[str, Callable[[list[str], list[str]], float]] = {
    "jac": jaccard,
    "cos": cosine_set,
    "dice": dice,
    "overlap_coeff": overlap_coefficient,
    "mel": monge_elkan,
}


def string_feature(
    l_attr: str,
    r_attr: str,
    measure: str,
    casefold: bool = False,
) -> Feature:
    """A character-level feature, e.g. Jaro over the raw attribute values."""
    fn = STRING_MEASURES[measure]
    suffix = "_ci" if casefold else ""
    return Feature(
        name=f"{l_attr}_{r_attr}_{measure}{suffix}",
        l_attr=l_attr,
        r_attr=r_attr,
        function=_guard_missing(fn, casefold),
        spec=("string", l_attr, r_attr, measure, casefold),
    )


def token_feature(
    l_attr: str,
    r_attr: str,
    measure: str,
    tokenizer: Tokenizer,
    tokenizer_name: str,
    casefold: bool = False,
) -> Feature:
    """A token-level feature, e.g. Jaccard over 3-grams of the values."""
    fn = TOKEN_MEASURES[measure]
    suffix = "_ci" if casefold else ""

    def wrapped(a: Any, b: Any) -> float:
        if is_missing(a) or is_missing(b):
            return NAN
        a, b = str(a), str(b)
        if casefold:
            a, b = a.lower(), b.lower()
        return float(fn(tokenizer(a), tokenizer(b)))

    return Feature(
        name=f"{l_attr}_{r_attr}_{measure}_{tokenizer_name}{suffix}",
        l_attr=l_attr,
        r_attr=r_attr,
        function=wrapped,
        spec=("token", l_attr, r_attr, measure, tokenizer_name, casefold),
    )


def numeric_feature(l_attr: str, r_attr: str, measure: str) -> Feature:
    """A numeric feature: ``exact``, ``abs_diff`` or ``rel_diff``."""

    def wrapped(a: Any, b: Any) -> float:
        if is_missing(a) or is_missing(b):
            return NAN
        try:
            fa, fb = float(a), float(b)
        except (TypeError, ValueError):
            return NAN
        if measure == "exact":
            return 1.0 if fa == fb else 0.0
        if measure == "abs_diff":
            return absolute_difference(fa, fb)
        if measure == "rel_diff":
            return relative_difference(fa, fb)
        raise KeyError(measure)

    if measure not in ("exact", "abs_diff", "rel_diff"):
        raise KeyError(measure)
    return Feature(
        name=f"{l_attr}_{r_attr}_{measure}",
        l_attr=l_attr,
        r_attr=r_attr,
        function=wrapped,
        spec=("numeric", l_attr, r_attr, measure),
    )


def feature_from_spec(spec: tuple) -> Feature:
    """Rebuild a feature from its :attr:`Feature.spec` recipe.

    Feature functions are closures and cannot be pickled; the recipe is
    plain data from which the same function is rebuilt.
    """
    from ..text.tokenizers import TOKENIZERS

    kind = spec[0]
    if kind == "string":
        _, l_attr, r_attr, measure, casefold = spec
        return string_feature(l_attr, r_attr, measure, casefold=casefold)
    if kind == "token":
        _, l_attr, r_attr, measure, tokenizer_name, casefold = spec
        return token_feature(
            l_attr, r_attr, measure, TOKENIZERS[tokenizer_name], tokenizer_name,
            casefold=casefold,
        )
    if kind == "numeric":
        _, l_attr, r_attr, measure = spec
        return numeric_feature(l_attr, r_attr, measure)
    raise KeyError(f"unknown feature spec kind {kind!r}")


def custom_feature(
    name: str, l_attr: str, r_attr: str, fn: Callable[[Any, Any], float]
) -> Feature:
    """Wrap an arbitrary pair function as a feature (NaN on missing)."""

    def wrapped(a: Any, b: Any) -> float:
        if is_missing(a) or is_missing(b):
            return NAN
        value = fn(a, b)
        return NAN if value is None or (isinstance(value, float) and math.isnan(value)) else float(value)

    return Feature(name=name, l_attr=l_attr, r_attr=r_attr, function=wrapped)
