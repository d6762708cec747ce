"""In-memory span tracing for the benchmark's traced runs.

The tracer records a span around each call into a layer's public
functions and methods. It patches them from the outside, so no program
code changes: module-level functions are replaced in every ``repro``
module that imported them, methods on each class that defines them.

Each span has a name, a layer, a start, an end and a parent. Its self
time is its duration minus the time its child spans cover. The spans of
one op nest under that op's root span, whose own self time is the part of
the op no layer claims. The self times of an op's spans therefore sum to
its wall time, which :meth:`Tracer.end_unit` checks.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: (metric, dotted module path, attribute) for module-level functions.
FUNCTIONS = (
    ("labeling.debug_s", "repro.labeling.debugger", "debug_labels"),
    ("matchers.select_s", "repro.matchers.select", "select_matcher"),
    ("matchers.select_s", "repro.matchers.debugger", "find_mismatches"),
    ("rules.positive_s", "repro.rules.positive", "sure_matches"),
    ("rules.negative_s", "repro.rules.negative", "apply_negative_rules"),
)

#: (metric, dotted module path, class, method). The method is wrapped on
#: the class and on every subclass that overrides it.
METHODS = (
    ("ml.fit_s", "repro.ml.base", "Classifier", "fit"),
    ("ml.predict_s", "repro.ml.base", "Classifier", "predict_proba"),
    ("ml.predict_s", "repro.ml.base", "Classifier", "predict"),
    ("features.extract_s", "repro.store.stages", "ExtractStage", "compute"),
    ("runtime.tokenize_s", "repro.runtime.cache", "TokenCache", "column_tokens"),
    ("runtime.tokenize_s", "repro.runtime.cache", "TokenCache", "column_token_ids"),
    ("runtime.tokenize_s", "repro.runtime.cache", "TokenCache", "column_token_bag_ids"),
    ("blocking.block_s", "repro.blocking.base", "Blocker", "block_tables"),
    ("blocking.block_s", "repro.store.stages", "BlockStage", "compute"),
    ("blocking.block_s", "repro.store.segments", "SegmentBlockStage", "compute"),
    ("blocking.preview_s", "repro.blocking.incremental", "IncrementalBlocking", "preview"),
    ("blocking.commit_s", "repro.blocking.incremental", "IncrementalBlocking", "commit"),
    ("blocking.commit_s", "repro.blocking.incremental", "IncrementalBlocking", "delete"),
    ("rules.positive_s", "repro.store.stages", "SureMatchStage", "compute"),
    ("rules.positive_s", "repro.rules.positive", "ExactNumberRule", "pairs"),
    ("rules.negative_s", "repro.rules.negative", "ComparableMismatchRule", "fires"),
    ("store.memoize_self_s", "repro.store.store", "ArtifactStore", "memoize"),
    ("store.fingerprint_s", "repro.runtime.context", "StageOperator", "fingerprint"),
    ("plan.self_s", "repro.plan.compile", "CompiledPlan", "execute"),
    ("serving.match_self_s", "repro.serving.service", "MatchService", "match"),
    ("serving.patch_self_s", "repro.serving.service", "MatchService", "apply_patch"),
)

#: Every per-layer time the tracer can report, in a fixed order.
TIME_METRICS = tuple(dict.fromkeys(m for m, *_ in FUNCTIONS + METHODS))


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(s for s in _subclasses(sub) if s not in out)
    return out


class Tracer:
    """Spans of the traced ops, kept in memory and written out at exit.

    ``truth`` is the set of true pairs, used for the blocking
    ``true_pair_ratio``.
    """

    def __init__(self, truth: "set | None" = None) -> None:
        self.truth = truth or set()
        self.spans: list[dict[str, Any]] = []
        self._stack: list[dict[str, Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.units: list[dict[str, Any]] = []
        self._unit: dict[str, Any] | None = None

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function and method (idempotent)."""
        if self._patches:
            return
        for metric, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapped = self._wrap(metric, f"{module}.{attr}", original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and (
                    getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, wrapped)
        for metric, module, cls_name, method in METHODS:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _subclasses(base):
                if method in cls.__dict__:
                    original = cls.__dict__[method]
                    name = f"{cls.__module__}.{cls.__qualname__}.{method}"
                    self._patch(cls, method, self._wrap(metric, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def _wrap(self, metric: str, name: str, fn: Callable) -> Callable:
        layer = metric.split(".", 1)[0]
        counter = _COUNTERS.get((metric, name.rsplit(".", 1)[-1]))

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._unit is None:
                return fn(*args, **kwargs)
            outer = not any(s["layer"] == layer for s in self._stack)
            span = self._open(name, layer, metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                counter(self, result, outer, name)
            return result

        return traced

    # -- spans ---------------------------------------------------------
    def _open(self, name: str, layer: str, metric: str) -> dict[str, Any]:
        span = {
            "name": name,
            "layer": layer,
            "metric": metric,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "id": len(self.spans),
            "start": perf_counter(),
            "end": None,
            "child_s": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        duration = span["end"] - span["start"]
        span["self_s"] = duration - span["child_s"]
        if self._stack:
            self._stack[-1]["child_s"] += duration
        if self._unit is not None:
            self._unit["self_s"][span["metric"]] += span["self_s"]

    def count(self, name: str, value: float = 1) -> None:
        """Add to a counter of the current unit (no-op outside units)."""
        if self._unit is not None:
            self._unit["counts"][name] += value

    def begin_unit(self, label: str) -> None:
        """Open the root span of one traced op."""
        self._unit = {"label": label, "self_s": Counter(), "counts": Counter()}
        self._unit["root"] = self._open(label, "op", "trace.other_s")

    def end_unit(self) -> dict[str, Any]:
        """Close the op's root span; check self times sum to its wall time."""
        unit = self._unit
        root = unit["root"]
        self._close(root)
        self._unit = None
        unit["wall_s"] = root["end"] - root["start"]
        total = sum(unit["self_s"].values())
        unit["accounted"] = abs(total - unit["wall_s"]) <= 1e-6 * max(1.0, unit["wall_s"])
        del unit["root"]
        self.units.append(unit)
        return unit

    def write(self, path: Path) -> None:
        """Write every span and unit summary as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "spans": [
                {k: s[k] for k in ("id", "parent", "name", "layer", "start", "end", "self_s")}
                for s in self.spans
            ],
            "units": [
                {**u, "self_s": dict(u["self_s"]), "counts": dict(u["counts"])}
                for u in self.units
            ],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


# -- counters taken from return values -----------------------------------
def _count_fit(tracer: Tracer, result: Any, outer: bool, name: str) -> None:
    if outer:
        tracer.count("ml.fit_calls")
    if name.endswith("DecisionTreeClassifier.fit"):
        tracer.count("ml.tree_fits")


def _count_cells(tracer: Tracer, matrix: Any, outer: bool, name: str) -> None:
    if outer:
        tracer.count("features.cells", int(matrix.values.size))


def _count_candidates(tracer: Tracer, candidates: Any, outer: bool, name: str) -> None:
    if outer:
        pairs = candidates.pairs
        tracer.count("blocking.candidates", len(pairs))
        tracer.count("blocking.true_pairs", sum(1 for p in pairs if p in tracer.truth))


def _count_discrepancies(tracer: Tracer, found: Any, outer: bool, name: str) -> None:
    tracer.count("labeling.discrepancies", len(found))


def _count_flips(tracer: Tracer, result: Any, outer: bool, name: str) -> None:
    if outer:
        tracer.count("rules.flips", len(result[1]))


def _count_match(tracer: Tracer, response: Any, outer: bool, name: str) -> None:
    tracer.count("serving.match_calls")
    tracer.count("serving.match_candidates", len(response.candidates))


def _count_patch(tracer: Tracer, patch: Any, outer: bool, name: str) -> None:
    tracer.count("serving.delta_pairs", len(patch.candidates))


#: (metric, wrapped attribute) -> counter hook.
_COUNTERS: dict[tuple[str, str], Callable[[Tracer, Any, bool, str], None]] = {
    ("ml.fit_s", "fit"): _count_fit,
    ("features.extract_s", "compute"): _count_cells,
    ("blocking.block_s", "block_tables"): _count_candidates,
    ("blocking.block_s", "compute"): _count_candidates,
    ("labeling.debug_s", "debug_labels"): _count_discrepancies,
    ("rules.negative_s", "apply_negative_rules"): _count_flips,
    ("serving.match_self_s", "match"): _count_match,
    ("serving.patch_self_s", "apply_patch"): _count_patch,
}
