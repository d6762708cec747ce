"""Machine-readable run manifests, and diffs between them.

A :class:`RunManifest` is the Machamp-style structured record of one
pipeline execution: scenario config and seed, the code-version salt,
platform identifiers, flattened stage timings and counters, headline
counts, a metrics snapshot, and any accuracy-monitoring reports. The case
study writes one via :meth:`RunManifest.from_case_study`; every benchmark
writes a smaller :func:`benchmark_result` JSON next to its ``.txt``
report; and ``python -m repro trace diff`` compares two manifests stage
by stage (:func:`diff_manifests`) — counts exactly, timings as
report-only deltas.
"""

from __future__ import annotations

import dataclasses
import json
import platform as _platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from ..errors import ObsError
from ..runtime.instrument import StageStats
from ..store.fingerprint import CODE_SALT
from .metrics import collect_metrics

SCHEMA_VERSION = 1

#: Benchmark sidecars have their own schema: version 2 added the volatile
#: ``timestamp``/``git_sha`` provenance fields. Readers accept both, so
#: frozen version-1 baselines under ``benchmarks/baselines/`` keep loading.
BENCH_SCHEMA_VERSION = 2
SUPPORTED_BENCH_SCHEMA_VERSIONS = (1, BENCH_SCHEMA_VERSION)

#: Sidecar fields that legitimately differ between two runs of the same
#: code — trend/baseline checkers must exclude them from comparisons.
VOLATILE_BENCH_FIELDS = frozenset({"timestamp", "git_sha"})

_GIT_SHA_CACHE: dict[str, str | None] = {}


def git_sha() -> str | None:
    """The repo's current HEAD commit, or ``None`` outside a checkout.

    Best-effort only (benchmarks must run from tarballs and containers
    without git): any failure — no git binary, no repository, a timeout —
    degrades to ``None``. Cached per process.
    """
    if "sha" not in _GIT_SHA_CACHE:
        sha: str | None = None
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=5.0,
                cwd=Path(__file__).resolve().parent,
            )
            if out.returncode == 0:
                sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE["sha"] = sha
    return _GIT_SHA_CACHE["sha"]


def platform_info() -> dict[str, str]:
    """Where a run executed (enough to interpret its timings)."""
    return {
        "python": _platform.python_version(),
        "implementation": _platform.python_implementation(),
        "system": _platform.system(),
        "machine": _platform.machine(),
    }


def jsonable(value: Any) -> Any:
    """Coerce a measured value into plain JSON data.

    Handles the types benchmark rows actually carry: numpy scalars,
    confidence intervals (anything with ``low``/``high``), dataclasses,
    containers of the above. Unknown objects degrade to ``str(value)``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item") and callable(value.item):  # numpy scalars
        return value.item()
    if hasattr(value, "low") and hasattr(value, "high"):  # Interval
        return {"low": float(value.low), "high": float(value.high)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {k: jsonable(v) for k, v in dataclasses.asdict(value).items()}
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [jsonable(v) for v in items]
    return str(value)


def stage_timings(root: StageStats) -> dict[str, dict[str, Any]]:
    """Flatten a stage tree into ``{"a/b/c": {...}}`` path records.

    Repeated paths (a stage inside a loop) aggregate: summed seconds and
    counters, an ``xN`` occurrence count. The root node is omitted (it is
    never timed); paths start at its children.
    """
    flat: dict[str, dict[str, Any]] = {}

    def walk(stats: StageStats, prefix: str) -> None:
        path = f"{prefix}/{stats.name}" if prefix else stats.name
        record = flat.setdefault(
            path, {"seconds": 0.0, "occurrences": 0, "counters": {}}
        )
        record["seconds"] += stats.seconds
        record["occurrences"] += 1
        for key, value in stats.counters.items():
            record["counters"][key] = record["counters"].get(key, 0) + value
        for child in stats.children:
            walk(child, path)

    for child in root.children:
        walk(child, "")
    return flat


@dataclass
class RunManifest:
    """One run's machine-readable record (see module docstring)."""

    name: str
    kind: str = "run"
    seed: int | None = None
    config: dict[str, Any] = field(default_factory=dict)
    code_salt: str = CODE_SALT
    platform: dict[str, str] = field(default_factory=platform_info)
    counts: dict[str, Any] = field(default_factory=dict)
    stages: dict[str, dict[str, Any]] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    monitoring: list[dict[str, Any]] = field(default_factory=list)
    #: canonical pipeline-spec record (plus per-node fingerprints) of the
    #: plan that drove the run; empty for pre-plan manifests, which
    #: ``from_dict``'s unknown-key filtering keeps loadable either way.
    plan: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict[str, Any]:
        return jsonable(dataclasses.asdict(self))

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        if not isinstance(data, dict) or "name" not in data:
            raise ObsError("not a run manifest: missing 'name'")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ObsError(f"cannot read manifest {path}: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_case_study(cls, run, name: str = "casestudy") -> "RunManifest":
        """Build the manifest of a (computed) :class:`CaseStudyRun`.

        Accessing the run's stage properties here *computes* any stage not
        already cached, so build the manifest after the run, not before.
        The metrics snapshot folds in the stage tree (when the run was
        instrumented), the run session's token cache, and the artifact
        store (when one was attached).
        """
        counts = {
            "blocking_c1": len(run.blocking_v2.c1),
            "blocking_c2": len(run.blocking_v2.c2),
            "blocking_c3": len(run.blocking_v2.c3),
            "candidates": len(run.blocking_v2.candidates),
            "labels_yes": run.labeling.labels.counts().yes,
            "labels_no": run.labeling.labels.counts().no,
            "labels_unsure": run.labeling.labels.counts().unsure,
            "sec9_sure": len(run.matching.sure_pairs),
            "sec9_predicted": len(run.matching.predicted_pairs),
            "sec9_matches": len(run.matching.matches),
            "updated_matches": len(run.updated_workflow.matches),
            "final_matches": len(run.final_workflow.matches),
            "final_flipped": len(run.final_workflow.original.flipped)
            + len(run.final_workflow.extra.flipped),
            "iris_matches": len(run.iris_matches),
        }
        provenance = run.final_workflow.original.provenance
        if provenance is not None:
            violations = list(provenance.validate())
            extra = run.final_workflow.extra.provenance
            if extra is not None:
                violations.extend(extra.validate())
            counts["provenance_violations"] = len(violations)
        session = run.engine_session
        instrumentation = session.instrumentation
        registry = collect_metrics(
            instrumentation=instrumentation,
            cache=session.token_cache,
            store=session.store,
        )
        monitor = run.monitoring
        return cls(
            name=name,
            kind="casestudy",
            seed=run.config.seed,
            config=jsonable(dataclasses.asdict(run.config)),
            counts=counts,
            stages=(
                stage_timings(instrumentation.root)
                if instrumentation is not None
                else {}
            ),
            metrics=registry.snapshot(),
            monitoring=monitor.export_history() if monitor is not None else [],
            plan=jsonable(run.plan_record()),
        )


def benchmark_result(
    name: str,
    rows: Iterable[Any] | None = None,
    data: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The JSON payload a benchmark writes next to its ``.txt`` report.

    *rows* are paper-vs-measured rows (anything with
    ``name``/``paper``/``measured`` attributes, i.e.
    :class:`repro.casestudy.report.ReportRow`); *data* is free-form
    headline numbers (timings, speedups, counts). ``timestamp`` and
    ``git_sha`` identify *when and at which commit* the run happened —
    they are volatile by design (see :data:`VOLATILE_BENCH_FIELDS`) and
    exist for the cross-run trend history, not for baseline comparison.
    """
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": name,
        "code_salt": CODE_SALT,
        "platform": platform_info(),
        "timestamp": time.time(),
        "git_sha": git_sha(),
        "rows": [
            {
                "name": row.name,
                "paper": jsonable(row.paper),
                "measured": jsonable(row.measured),
            }
            for row in (rows or [])
        ],
        "data": jsonable(data or {}),
    }


def load_benchmark_result(path: str | Path) -> dict[str, Any]:
    """Read a :func:`benchmark_result` payload back from disk, validated.

    Used by benches that compare against a frozen baseline (e.g. the
    pre-kernel runtime numbers in ``benchmarks/baselines/``). Raises
    :class:`~repro.errors.ObsError` when the file is not a benchmark
    payload of a known schema version, so a stale or hand-edited baseline
    fails loudly instead of producing a nonsense speedup.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "benchmark" not in payload:
        raise ObsError(f"{path} is not a benchmark_result payload")
    version = payload.get("schema_version")
    if version not in SUPPORTED_BENCH_SCHEMA_VERSIONS:
        raise ObsError(
            f"{path}: schema_version {version!r} not in supported "
            f"{SUPPORTED_BENCH_SCHEMA_VERSIONS}"
        )
    return payload


def append_history(payload: dict[str, Any], path: str | Path) -> Path:
    """Append one benchmark sidecar to a JSONL trend history.

    One compact JSON object per line, flushed per append; every bench run
    adds its row, and :mod:`tools.check_bench_trend` / ``python -m repro
    bench history`` read the accumulated file. The history lives outside
    version control (one line per local run) — the committed artefacts
    are the tolerance bands in ``benchmarks/baselines/trend.json``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(jsonable(payload), separators=(",", ":")) + "\n")
    return path


def read_history(path: str | Path) -> list[dict[str, Any]]:
    """All records of a trend history file, oldest first.

    Malformed lines (a run killed mid-append) are skipped — history is
    advisory data, and one truncated line must not hide every other run.
    """
    path = Path(path)
    if not path.exists():
        return []
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and "benchmark" in record:
                records.append(record)
    return records


# ----------------------------------------------------------------------
# diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DiffRow:
    """One compared field: a count, a stage timing, or a stage counter."""

    section: str  # "counts" | "stages" | "stage_counters"
    key: str
    old: Any
    new: Any

    @property
    def equal(self) -> bool:
        return self.old == self.new

    @property
    def delta(self) -> float | None:
        if isinstance(self.old, (int, float)) and isinstance(self.new, (int, float)):
            return self.new - self.old
        return None


@dataclass(frozen=True)
class ManifestDiff:
    """Stage-by-stage comparison of two run manifests."""

    old: RunManifest
    new: RunManifest
    count_rows: tuple[DiffRow, ...]
    stage_rows: tuple[DiffRow, ...]
    counter_rows: tuple[DiffRow, ...]
    #: per-node plan-fingerprint comparison; empty unless *both* manifests
    #: carry a plan record. Report-only: never part of ``counts_match``.
    plan_rows: tuple[DiffRow, ...] = ()

    @property
    def counts_match(self) -> bool:
        """True when every headline count field is present and equal in
        both manifests (timings are never part of this check)."""
        return all(row.equal for row in self.count_rows)

    def render(self) -> str:
        lines = [
            f"manifest diff: {self.old.name} ({self.old.code_salt}) -> "
            f"{self.new.name} ({self.new.code_salt})"
        ]
        lines.append("")
        lines.append("counts (must match):")
        width = max((len(r.key) for r in self.count_rows), default=0)
        for row in self.count_rows:
            marker = "  " if row.equal else "!!"
            lines.append(
                f"  {marker} {row.key:<{width}}  {row.old!s:>10} -> {row.new!s}"
            )
        if not self.count_rows:
            lines.append("  (none recorded)")
        lines.append("")
        lines.append("stage timings (report-only):")
        changed = [r for r in self.stage_rows if r.old != r.new]
        width = max((len(r.key) for r in self.stage_rows), default=0)
        for row in self.stage_rows:
            old_s = f"{row.old:.3f}s" if isinstance(row.old, float) else "-"
            new_s = f"{row.new:.3f}s" if isinstance(row.new, float) else "-"
            delta = ""
            if isinstance(row.old, float) and isinstance(row.new, float):
                sign = "+" if row.new >= row.old else "-"
                delta = f"  ({sign}{abs(row.new - row.old):.3f}s"
                if row.old > 0:
                    delta += f", {row.new / row.old:.2f}x"
                delta += ")"
            lines.append(f"     {row.key:<{width}}  {old_s:>10} -> {new_s}{delta}")
        if not self.stage_rows:
            lines.append("  (no stage timings recorded)")
        drifted = [r for r in self.counter_rows if not r.equal]
        lines.append("")
        lines.append(
            f"stage counters: {len(self.counter_rows)} compared, "
            f"{len(drifted)} changed"
        )
        for row in drifted:
            lines.append(f"  !! {row.key}: {row.old!s} -> {row.new!s}")
        if self.plan_rows:
            edited = [r for r in self.plan_rows if not r.equal]
            lines.append("")
            lines.append(
                f"plan nodes: {len(self.plan_rows)} compared, "
                f"{len(edited)} edited"
                + (" — count changes attribute to these edits:" if edited else "")
            )
            for row in edited:
                old_s = row.old if row.old is not None else "(absent)"
                new_s = row.new if row.new is not None else "(absent)"
                lines.append(f"  !! {row.key}: {old_s} -> {new_s}")
        lines.append("")
        verdict = "COUNTS MATCH" if self.counts_match else "COUNTS DIFFER"
        mismatches = sum(1 for r in self.count_rows if not r.equal)
        lines.append(
            f"{verdict} ({mismatches} mismatched count field(s); "
            f"{len(changed)} stage timing(s) moved)"
        )
        return "\n".join(lines)


def plan_attribution_rows(
    old_plan: dict[str, Any], new_plan: dict[str, Any]
) -> tuple[DiffRow, ...]:
    """Per-node fingerprint rows attributing a diff to plan edits.

    Empty unless both plan records carry node fingerprints (pre-plan
    manifests, or degraded object-mode plans, have none) — the diff then
    says nothing about the plan rather than guessing.
    """
    old_nodes = (old_plan.get("fingerprints") or {}).get("nodes") or {}
    new_nodes = (new_plan.get("fingerprints") or {}).get("nodes") or {}
    if not old_nodes or not new_nodes:
        return ()
    return tuple(
        DiffRow("plan", node_id, old_nodes.get(node_id), new_nodes.get(node_id))
        for node_id in sorted(set(old_nodes) | set(new_nodes))
    )


def diff_manifests(old: RunManifest, new: RunManifest) -> ManifestDiff:
    """Compare two manifests: counts field-by-field, stages path-by-path,
    and — when both carry a plan record — plan nodes fingerprint-by-
    fingerprint, so count drift is attributable to specific node edits."""
    count_rows = tuple(
        DiffRow("counts", key, old.counts.get(key), new.counts.get(key))
        for key in sorted(set(old.counts) | set(new.counts))
    )
    stage_paths = sorted(set(old.stages) | set(new.stages))
    stage_rows = tuple(
        DiffRow(
            "stages",
            path,
            (old.stages.get(path) or {}).get("seconds"),
            (new.stages.get(path) or {}).get("seconds"),
        )
        for path in stage_paths
    )
    counter_rows = []
    for path in stage_paths:
        old_counters = (old.stages.get(path) or {}).get("counters", {})
        new_counters = (new.stages.get(path) or {}).get("counters", {})
        for key in sorted(set(old_counters) | set(new_counters)):
            counter_rows.append(
                DiffRow(
                    "stage_counters",
                    f"{path}[{key}]",
                    old_counters.get(key),
                    new_counters.get(key),
                )
            )
    return ManifestDiff(
        old=old,
        new=new,
        count_rows=count_rows,
        stage_rows=stage_rows,
        counter_rows=tuple(counter_rows),
        plan_rows=plan_attribution_rows(old.plan, new.plan),
    )
