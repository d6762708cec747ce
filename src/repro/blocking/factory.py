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

Callable-valued parameters travel as registered names — ``tokenizer``
via :data:`repro.text.tokenizers.TOKENIZERS`, ``normalizer`` /
``l_preprocess`` / ``r_preprocess`` / ``key`` via
:data:`repro.text.normalize.CELL_FUNCTIONS` — because configs must
survive JSON round-trips. ``block_size_policy`` is a bare int cap (or
absent). Unknown kinds and unknown parameter names raise
:class:`~repro.errors.BlockingError` listing what *is* available: a
config typo should fail loudly at build time, not silently change
blocking output.

:func:`blocker_config` is the inverse of :func:`create_blocker`: the flat
payload that packaged workflows (:mod:`repro.core.serialize`) record and
store keys (:func:`repro.store.fingerprint.fingerprint_blocker`) hash.
``create_blocker`` accepts it back.

:func:`default_plan_configs` returns the paper's Section-7 recipe as
configs; building it through the factory and diffing against the golden
snapshot (``tests/test_factory.py``) pins config-driven construction to
the hand-written plan.

Third-party blockers can join via :func:`register_blocker` — the
registry is a plain dict from kind name to class, srdedupe-style.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..errors import BlockingError
from ..text.normalize import CELL_FUNCTION_NAMES, CELL_FUNCTIONS
from ..text.tokenizers import TOKENIZER_NAMES, TOKENIZERS, whitespace
from .attr_equivalence import AttrEquivalenceBlocker
from .base import Blocker
from .overlap import OverlapBlocker
from .overlap_coefficient import OverlapCoefficientBlocker
from .sharded import ShardedOverlapBlocker, ShardedOverlapCoefficientBlocker
from .sorted_neighborhood import SortedNeighborhoodBlocker

#: kind name -> blocker class, built with the config's resolved
#: parameters as keywords. Extend with :func:`register_blocker`, not by
#: mutating directly.
BLOCKER_REGISTRY: dict[str, Callable[..., Blocker]] = {
    "attr_equivalence": AttrEquivalenceBlocker,
    "overlap": OverlapBlocker,
    "overlap_coefficient": OverlapCoefficientBlocker,
    "sharded_overlap": ShardedOverlapBlocker,
    "sharded_overlap_coefficient": ShardedOverlapCoefficientBlocker,
    "sorted_neighborhood": SortedNeighborhoodBlocker,
}
#: class -> kind, the reverse :func:`blocker_config` reads.
_KINDS = {cls: kind for kind, cls in BLOCKER_REGISTRY.items()}

#: Parameters whose values travel as names: parameter -> (what it is,
#: name -> callable, callable -> name).
_NAMED_PARAMS = {
    "tokenizer": ("tokenizer", TOKENIZERS, TOKENIZER_NAMES),
    "normalizer": ("normalizer", CELL_FUNCTIONS, CELL_FUNCTION_NAMES),
    "l_preprocess": ("preprocessor", CELL_FUNCTIONS, CELL_FUNCTION_NAMES),
    "r_preprocess": ("preprocessor", CELL_FUNCTIONS, CELL_FUNCTION_NAMES),
    "key": ("preprocessor", CELL_FUNCTIONS, CELL_FUNCTION_NAMES),
}

#: The fields a packageable kind's payload records after ``kind``, in
#: payload order. ``tokenizer`` follows when it is not whitespace, then
#: ``max_block_size`` when the blocker is capped. Kinds missing here
#: (``sorted_neighborhood``) do not package.
_TOKEN_FIELDS = ("l_attr", "r_attr", "threshold", "normalizer")
_PAYLOAD_FIELDS = {
    "attr_equivalence": ("l_attr", "r_attr", "l_preprocess", "r_preprocess"),
    "overlap": _TOKEN_FIELDS,
    "overlap_coefficient": _TOKEN_FIELDS,
    "sharded_overlap": _TOKEN_FIELDS + ("shards",),
    "sharded_overlap_coefficient": _TOKEN_FIELDS + ("shards",),
}


def register_blocker(kind: str, cls: Callable[..., Blocker]) -> None:
    """Register a new blocker kind (overwriting an existing kind fails)."""
    if kind in BLOCKER_REGISTRY:
        raise BlockingError(f"blocker kind {kind!r} is already registered")
    BLOCKER_REGISTRY[kind] = cls
    _KINDS[cls] = kind


def _resolve(param: str, value: Any) -> Any:
    """A named parameter's callable (other parameters, callables and
    ``None`` pass through)."""
    if param not in _NAMED_PARAMS or value is None or callable(value):
        return value
    what, table, _ = _NAMED_PARAMS[param]
    try:
        return table[value]
    except (KeyError, TypeError):
        raise BlockingError(
            f"unknown {what} {value!r}; available: {sorted(table)}"
        ) from None


def _name(param: str, fn: Any) -> Any:
    """A named parameter's registered name (other parameters and ``None``
    pass through)."""
    if param not in _NAMED_PARAMS or fn is None:
        return fn
    what, _, names = _NAMED_PARAMS[param]
    try:
        return names[fn]
    except (KeyError, TypeError):
        raise BlockingError(
            f"cannot package {what} {fn!r}; register it first"
        ) from None


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


def create_blocker(config: "Blocker | BlockerConfig | Mapping[str, Any]") -> Blocker:
    """Build one blocker from a config; unknown kinds raise loudly.

    A :class:`Blocker` passes through unchanged, so callers taking
    "config or instance" need no test of their own.
    """
    if isinstance(config, Blocker):
        return config
    cfg = BlockerConfig.parse(config)
    cls = BLOCKER_REGISTRY.get(cfg.kind)
    if cls is None:
        raise BlockingError(
            f"unknown blocker kind {cfg.kind!r}; available: {sorted(BLOCKER_REGISTRY)}"
        )
    params = {k: _resolve(k, v) for k, v in cfg.params.items()}
    if "max_block_size" in params:  # the payload's spelling of the cap
        if "block_size_policy" in params:
            raise BlockingError("give max_block_size or block_size_policy, not both")
        params["block_size_policy"] = params.pop("max_block_size")
    try:
        return cls(**params)
    except TypeError as exc:
        raise BlockingError(
            f"bad parameters for blocker kind {cfg.kind!r}: {exc}"
        ) from exc


def blocker_config(blocker: Blocker) -> dict[str, Any]:
    """The flat config of *blocker*: the inverse of :func:`create_blocker`.

    A blocker takes the kind of the first class in its MRO that is
    registered, so a sharded blocker never reads as its parent's kind.
    Blockers whose kind does not package, and callables without a
    registered name, raise :class:`~repro.errors.BlockingError`.
    """
    kind = next((_KINDS[c] for c in type(blocker).__mro__ if c in _KINDS), None)
    fields = _PAYLOAD_FIELDS.get(kind)
    if fields is None:
        raise BlockingError(f"cannot package blocker {type(blocker).__name__}")
    config: dict[str, Any] = {"kind": kind}
    for field_name in fields:
        config[field_name] = _name(field_name, getattr(blocker, field_name))
    tokenizer = getattr(blocker, "tokenizer", whitespace)
    if tokenizer is not whitespace:
        # omitted for the default, so whitespace payloads read as they
        # did before the field existed
        config["tokenizer"] = _name("tokenizer", tokenizer)
    policy = blocker.block_size_policy
    if policy.capped:
        # omitted (not null) when uncapped, so uncapped payloads and the
        # store keys hashing them read as they did before the cap existed
        config["max_block_size"] = policy.max_block_size
    return config


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
