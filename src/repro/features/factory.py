"""Feature-set registry: build feature sets from declarative configs.

A feature config names a registered *generator* plus its parameters:

    {"generator": "auto",
     "exclude_attrs": ["RecordId", "AccessionNumber", "ProjectNumber"],
     "case_insensitive_attrs": ["AwardTitle"]}

``auto`` is the paper's schema-driven generator
(:func:`repro.features.generate.generate_features`); the optional
``case_insensitive_attrs`` post-pass adds the Section-9 ``_ci`` variants
via :func:`~repro.features.generate.add_case_insensitive_variants`.
Because the builders delegate to the same functions the hand-written
recipe calls, a config-built set is value-equal to the legacy one — the
store's feature fingerprints cannot tell them apart.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..errors import FeatureError
from .generate import FeatureSet, add_case_insensitive_variants, generate_features


def _auto(ltable: Any, rtable: Any, exclude_attrs: Any = ()) -> FeatureSet:
    return generate_features(ltable, rtable, exclude_attrs=tuple(exclude_attrs))


#: generator name -> builder(ltable, rtable, **params) -> FeatureSet.
FEATURE_REGISTRY: dict[str, Callable[..., FeatureSet]] = {
    "auto": _auto,
}


def create_feature_set(
    config: "str | Mapping[str, Any]", ltable: Any, rtable: Any
) -> FeatureSet:
    """Build a feature set for a table pair from a config."""
    if isinstance(config, str):
        config = {"generator": config}
    if not isinstance(config, Mapping):
        raise FeatureError(
            f"feature config must be a generator name or mapping, got {config!r}"
        )
    params = dict(config)
    name = params.pop("generator", "auto")
    ci_attrs = params.pop("case_insensitive_attrs", None)
    builder = FEATURE_REGISTRY.get(name)
    if builder is None:
        raise FeatureError(
            f"unknown feature generator {name!r}; available: "
            f"{sorted(FEATURE_REGISTRY)}"
        )
    try:
        feature_set = builder(ltable, rtable, **params)
    except TypeError as exc:
        raise FeatureError(
            f"bad parameters for feature generator {name!r}: {exc}"
        ) from exc
    if ci_attrs is not None:
        feature_set = add_case_insensitive_variants(feature_set, attrs=list(ci_attrs))
    return feature_set
