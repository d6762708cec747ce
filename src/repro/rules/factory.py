"""Rule registries: pick positive / negative rules by name, not import.

The plan IR (:mod:`repro.plan`) references rules declaratively, the same
way blocker configs reference blockers through
:data:`repro.blocking.factory.BLOCKER_REGISTRY`. A config entry is either
a bare registry name (``"m1"``) or ``{"kind": name, ...params}`` where
the params override the builder's keyword defaults. Builders return the
*exact* frozen-dataclass rules the hand-written recipe constructs, so
value equality — and therefore store fingerprints — are unchanged.

Unknown names raise :class:`~repro.errors.RuleError` listing what is
available. Packaged workflows resolve rules here too:
:func:`positive_rule_named` finds a positive rule by its display name.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

from ..errors import RuleError
from .negative import ComparableMismatchRule, default_negative_rules
from .positive import ExactNumberRule, award_project_rule, m1_rule


def _award_numbers_differ(**params: Any) -> ComparableMismatchRule:
    return default_negative_rules(**params)[0]


def _project_numbers_differ(**params: Any) -> ComparableMismatchRule:
    return default_negative_rules(**params)[1]


#: name -> builder for positive (sure-match) rules.
POSITIVE_RULE_REGISTRY: dict[str, Callable[..., ExactNumberRule]] = {
    "m1": m1_rule,
    "award_project": award_project_rule,
}

#: name -> builder for negative (match-flipping) rules.
NEGATIVE_RULE_REGISTRY: dict[str, Callable[..., ComparableMismatchRule]] = {
    "comparable_award_numbers_differ": _award_numbers_differ,
    "comparable_project_numbers_differ": _project_numbers_differ,
}


def _create(registry: Mapping[str, Callable], config: Any, what: str) -> Any:
    if isinstance(config, str):
        kind, params = config, {}
    elif isinstance(config, Mapping):
        if "kind" not in config:
            raise RuleError(f"{what} rule config is missing 'kind': {config!r}")
        kind = config["kind"]
        params = {k: v for k, v in config.items() if k != "kind"}
    else:
        raise RuleError(
            f"{what} rule config must be a name or mapping, got {config!r}"
        )
    builder = registry.get(kind)
    if builder is None:
        raise RuleError(
            f"unknown {what} rule {kind!r}; available: {sorted(registry)}"
        )
    try:
        return builder(**params)
    except TypeError as exc:
        raise RuleError(f"bad parameters for {what} rule {kind!r}: {exc}") from exc


def create_positive_rules(configs: Sequence[Any]) -> list[ExactNumberRule]:
    """Build positive rules from a list of names / configs, in order."""
    if isinstance(configs, (str, Mapping)):
        configs = [configs]
    return [_create(POSITIVE_RULE_REGISTRY, c, "positive") for c in configs]


def positive_rule_named(name: str) -> ExactNumberRule:
    """The registered positive rule whose ``name`` is *name*, built with
    its defaults. Packaged workflows record rules by this display name
    (``"M1"``), not by registry key (``"m1"``)."""
    for builder in POSITIVE_RULE_REGISTRY.values():
        rule = builder()
        if rule.name == name:
            return rule
    raise RuleError(f"no registered positive rule is named {name!r}")


def create_negative_rules(configs: Sequence[Any]) -> list[ComparableMismatchRule]:
    """Build negative rules; ``"default"`` expands to both Section-12
    clauses in recipe order."""
    if isinstance(configs, (str, Mapping)):
        configs = [configs]
    out: list[ComparableMismatchRule] = []
    for config in configs:
        if config == "default":
            out.extend(default_negative_rules())
        else:
            out.append(_create(NEGATIVE_RULE_REGISTRY, config, "negative"))
    return out
