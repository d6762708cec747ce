"""Blocker registry + config factory: pick blockers by name, not import.

Panda-style EM systems assume a *catalog* of blockers users select from
declaratively; until now ours could only be constructed in Python. This
module gives every blocker a registered kind name and a JSON-shaped
config so pipeline specs (``casestudy --plan``) and the serving bootstrap
can build blocking plans from data:

    >>> create_blocker({"kind": "overlap", "l_attr": "AwardTitle",
    ...                 "r_attr": "AwardTitle", "threshold": 3,
    ...                 "normalizer": "normalize_title"})
    <repro.blocking.overlap.OverlapBlocker ...>

Callable-valued parameters travel as registry names — ``tokenizer`` via
:data:`repro.text.tokenizers.TOKENIZERS`, ``normalizer`` /
``l_preprocess`` / ``r_preprocess`` via the name tables below — because
configs must survive JSON round-trips. ``block_size_policy`` is a bare
int cap (or absent). Unknown kinds and unknown parameter names raise
:class:`~repro.errors.BlockingError` listing what *is* available: a
config typo should fail loudly at build time, not silently change
blocking output.

:func:`default_plan_configs` returns the paper's Section-7 recipe as
configs; building it through the factory and diffing against the golden
snapshot (``tests/test_factory.py``) pins config-driven construction to
the hand-written plan.

Third-party blockers can join via :func:`register_blocker` — the
registry is a plain dict keyed by kind name, srdedupe-style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import BlockingError
from ..text.normalize import normalize_title
from ..text.patterns import award_number_suffix
from ..text.tokenizers import TOKENIZERS
from .attr_equivalence import AttrEquivalenceBlocker
from .base import Blocker
from .overlap import OverlapBlocker
from .overlap_coefficient import OverlapCoefficientBlocker
from .sharded import ShardedOverlapBlocker, ShardedOverlapCoefficientBlocker
from .sorted_neighborhood import SortedNeighborhoodBlocker

#: Named cell normalizers a config may reference.
NORMALIZERS: dict[str, Callable[[Any], Any]] = {
    "normalize_title": normalize_title,
}

#: Named preprocessors for the attr-equivalence blocker.
PREPROCESSORS: dict[str, Callable[[Any], Any]] = {
    "award_number_suffix": award_number_suffix,
    "normalize_title": normalize_title,
}


def _lookup(table: Mapping[str, Any], name: Any, what: str) -> Any:
    if name is None:
        return None
    if callable(name):
        return name
    try:
        return table[name]
    except KeyError:
        raise BlockingError(
            f"unknown {what} {name!r}; available: {sorted(table)}"
        ) from None


def _common(params: dict[str, Any]) -> dict[str, Any]:
    """Resolve the name-valued parameters shared by token blockers."""
    out = dict(params)
    if "tokenizer" in out:
        out["tokenizer"] = _lookup(TOKENIZERS, out["tokenizer"], "tokenizer")
    if "normalizer" in out:
        out["normalizer"] = _lookup(NORMALIZERS, out["normalizer"], "normalizer")
    return out


def _build_attr_equivalence(params: dict[str, Any]) -> Blocker:
    out = dict(params)
    for key in ("l_preprocess", "r_preprocess"):
        if key in out:
            out[key] = _lookup(PREPROCESSORS, out[key], "preprocessor")
    return AttrEquivalenceBlocker(**out)


def _build_sorted_neighborhood(params: dict[str, Any]) -> Blocker:
    out = dict(params)
    if "key" in out:
        out["key"] = _lookup(PREPROCESSORS, out["key"], "preprocessor")
    return SortedNeighborhoodBlocker(**out)


#: kind name -> builder taking resolved keyword params. Extend with
#: :func:`register_blocker`, not by mutating directly.
BLOCKER_REGISTRY: dict[str, Callable[[dict[str, Any]], Blocker]] = {
    "attr_equivalence": _build_attr_equivalence,
    "overlap": lambda p: OverlapBlocker(**_common(p)),
    "overlap_coefficient": lambda p: OverlapCoefficientBlocker(**_common(p)),
    "sharded_overlap": lambda p: ShardedOverlapBlocker(**_common(p)),
    "sharded_overlap_coefficient": lambda p: ShardedOverlapCoefficientBlocker(
        **_common(p)
    ),
    "sorted_neighborhood": _build_sorted_neighborhood,
}


def register_blocker(
    kind: str, builder: Callable[[dict[str, Any]], Blocker]
) -> None:
    """Register a new blocker kind (overwriting an existing kind fails)."""
    if kind in BLOCKER_REGISTRY:
        raise BlockingError(f"blocker kind {kind!r} is already registered")
    BLOCKER_REGISTRY[kind] = builder


@dataclass(frozen=True)
class BlockerConfig:
    """One blocker as data: a kind name plus keyword parameters."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, obj: "BlockerConfig | Mapping[str, Any]") -> "BlockerConfig":
        """Accept a BlockerConfig, ``{"kind", "params"}``, or a flat dict
        where every non-``kind`` key is a parameter."""
        if isinstance(obj, BlockerConfig):
            return obj
        if not isinstance(obj, Mapping):
            raise BlockingError(
                f"blocker config must be a mapping with a 'kind' key, got {obj!r}"
            )
        if "kind" not in obj:
            raise BlockingError(f"blocker config is missing 'kind': {dict(obj)!r}")
        if "params" in obj:
            extra = set(obj) - {"kind", "params"}
            if extra:
                raise BlockingError(
                    f"blocker config mixes 'params' with flat keys {sorted(extra)}"
                )
            return cls(kind=obj["kind"], params=dict(obj["params"]))
        params = {k: v for k, v in obj.items() if k != "kind"}
        return cls(kind=obj["kind"], params=params)


def create_blocker(config: "BlockerConfig | Mapping[str, Any]") -> Blocker:
    """Build one blocker from a config; unknown kinds raise loudly."""
    cfg = BlockerConfig.parse(config)
    builder = BLOCKER_REGISTRY.get(cfg.kind)
    if builder is None:
        raise BlockingError(
            f"unknown blocker kind {cfg.kind!r}; available: {sorted(BLOCKER_REGISTRY)}"
        )
    try:
        return builder(dict(cfg.params))
    except TypeError as exc:
        raise BlockingError(
            f"bad parameters for blocker kind {cfg.kind!r}: {exc}"
        ) from exc


def create_blockers(
    configs: "list[BlockerConfig | Mapping[str, Any]]",
) -> list[Blocker]:
    """Build a whole blocking plan from a config list, order-preserving."""
    if isinstance(configs, (Mapping, BlockerConfig)):
        configs = [configs]
    return [create_blocker(c) for c in configs]


def default_plan_configs() -> list[dict[str, Any]]:
    """The Section-7 case-study recipe as factory configs.

    ``create_blockers(default_plan_configs())`` must reproduce
    ``repro.casestudy.blocking_plan.make_blockers`` exactly — asserted by
    the factory test suite against the golden candidate counts.
    """
    return [
        {
            "kind": "attr_equivalence",
            "l_attr": "AwardNumber",
            "r_attr": "AwardNumber",
            "l_preprocess": "award_number_suffix",
        },
        {
            "kind": "overlap",
            "l_attr": "AwardTitle",
            "r_attr": "AwardTitle",
            "threshold": 3,
            "normalizer": "normalize_title",
        },
        {
            "kind": "overlap_coefficient",
            "l_attr": "AwardTitle",
            "r_attr": "AwardTitle",
            "threshold": 0.7,
            "normalizer": "normalize_title",
        },
    ]
