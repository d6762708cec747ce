"""The content-addressed on-disk artifact store.

An :class:`ArtifactStore` maps a *key* — the fingerprints of every input
of a pipeline stage, plus the code-version salt — to a stored artifact
(JSON payload + optional CSV sidecar, see :mod:`repro.store.codecs`).
:meth:`ArtifactStore.memoize` is the one entry point the pipeline glue
uses: look the key up, decode on hit, compute-and-store on miss, and
account for every decision so :meth:`ArtifactStore.explain` can answer
"what was reused, what was recomputed, and why".

The "why" comes from a per-stage *manifest*: the store remembers, for each
stage label, the input fingerprints of its previous execution; a miss is
then explained by exactly which inputs changed (a Section-10 patch replay
shows ``predict`` missing because ``matcher`` changed while every blocking
and extraction stage hits). Labels repeat deterministically across runs
(the pipeline's call order is fixed), so each call site compares against
its own previous incarnation via an occurrence counter, which
:meth:`ArtifactStore.flush` restarts at the end of each run.

A miss, an eviction or :meth:`~ArtifactStore.clear` writes ``manifest.json``
and ``index.json`` at once; a hit only marks them dirty, and
:meth:`~ArtifactStore.flush` (called when an
:class:`~repro.runtime.context.EngineSession` closes) writes them once.
Every state write is atomic: temp file, fsync, ``os.replace``.

Layout under ``root/``::

    objects/<kind>/<digest>.json   # payload
    objects/<kind>/<digest>.csv    # optional sidecar (feature matrices)
    manifest.json                  # stage label -> last {digest, parts}
    index.json                     # LRU bookkeeping for eviction

Stores are optional everywhere: a session's ``store`` defaults to
``None``, and a storeless run is bit-identical to a stored one.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from ..errors import StoreError
from ..runtime.instrument import Instrumentation, count
from .codecs import ArtifactCodec
from .fingerprint import CODE_SALT, fingerprint_value

_SAFE_KIND = set("abcdefghijklmnopqrstuvwxyz0123456789_")


def _short(digest: str | None) -> str:
    return (digest or "?")[:10]


@dataclass(frozen=True)
class StoreEvent:
    """One memoize/bypass decision, in call order."""

    label: str
    kind: str
    digest: str
    status: str  # "hit" | "miss" | "bypass"
    reason: str


@dataclass(frozen=True)
class StoreStats:
    """Hit/miss/bypass/eviction accounting of one store session."""

    hits: int
    misses: int
    bypasses: int
    evictions: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.bypasses

    def __str__(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses / "
            f"{self.bypasses} bypasses / {self.evictions} evictions"
        )


@dataclass
class _Index:
    """LRU state persisted as ``index.json``."""

    seq: int = 0
    entries: dict[str, int] = field(default_factory=dict)


class ArtifactStore:
    """A content-addressed store for pipeline artifacts.

    Parameters
    ----------
    root:
        Directory holding the artifacts (created if absent).
    max_entries:
        Optional artifact-count cap; exceeding it evicts the least
        recently used artifacts. ``None`` (default) never evicts.
    salt:
        Extra user salt mixed into every key (to segregate experiments
        sharing one root directory).
    """

    def __init__(
        self,
        root: str | Path,
        max_entries: int | None = None,
        salt: str = "",
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise StoreError(f"max_entries must be >= 1, got {max_entries}")
        self.root = Path(root)
        (self.root / "objects").mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.salt = salt
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0
        self.events: list[StoreEvent] = []
        self._manifest: dict[str, dict[str, Any]] = self._load_json(
            self.root / "manifest.json", {}
        )
        raw = self._load_json(self.root / "index.json", {"seq": 0, "entries": {}})
        self._index = _Index(seq=int(raw["seq"]), entries=dict(raw["entries"]))
        self._label_calls: dict[str, int] = {}
        #: hits changed the manifest/index since they were last written
        self._dirty = False

    # ------------------------------------------------------------------
    # persistence helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _load_json(path: Path, default: Any) -> Any:
        if not path.exists():
            return default
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise StoreError(f"corrupt store file {path}: {exc}") from exc

    @staticmethod
    def _write_atomic(path: Path, text: str) -> None:
        """Replace *path* with *text*: a reader sees the old file or the
        new one, never a torn write."""
        # a unique name opened like any other file (mkstemp would make
        # it 0600, unlike the file it replaces)
        tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "x", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _save_state(self) -> None:
        self._write_atomic(
            self.root / "manifest.json", json.dumps(self._manifest, sort_keys=True)
        )
        self._write_atomic(
            self.root / "index.json",
            json.dumps({"seq": self._index.seq, "entries": self._index.entries}),
        )
        self._dirty = False

    def flush(self) -> None:
        """End a run: write any state hits deferred, and restart the
        label sequence so the next run's stages compare against this
        run's manifest slots. :meth:`EngineSession.close
        <repro.runtime.context.EngineSession.close>` calls it."""
        if self._dirty:
            self._save_state()
        self._label_calls.clear()

    def _paths(self, kind: str, digest: str) -> tuple[Path, Path]:
        if not kind or not set(kind) <= _SAFE_KIND:
            raise StoreError(f"invalid artifact kind {kind!r}")
        base = self.root / "objects" / kind
        return base / f"{digest}.json", base / f"{digest}.csv"

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------
    def digest(self, parts: Mapping[str, str]) -> str:
        """The store key for named input fingerprints (salted)."""
        return fingerprint_value(
            {"code": CODE_SALT, "salt": self.salt, "parts": dict(parts)}
        )

    def _sequenced(self, label: str) -> str:
        """Disambiguate repeated stage labels by call order within a session."""
        n = self._label_calls.get(label, 0)
        self._label_calls[label] = n + 1
        return label if n == 0 else f"{label}#{n + 1}"

    # ------------------------------------------------------------------
    # the memoization entry point
    # ------------------------------------------------------------------
    def memoize(
        self,
        kind: str,
        label: str,
        parts: Mapping[str, str],
        compute: Callable[[], Any],
        codec: ArtifactCodec,
        *,
        instrumentation: Instrumentation | None = None,
        context: Mapping[str, Any] | None = None,
    ) -> Any:
        """Return the artifact for *parts*, computing and storing on miss.

        *label* names the stage for the explain report ("block:overlap:...");
        *parts* maps input names to fingerprints; *context* is forwarded to
        ``codec.decode`` (live tables a payload cannot embed).
        """
        label = self._sequenced(label)
        digest = self.digest(parts)
        json_path, csv_path = self._paths(kind, digest)
        if json_path.exists():
            payload = self._load_json(json_path, None)
            sidecar = (
                csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
            )
            obj = codec.decode(payload, sidecar, **dict(context or {}))
            self.hits += 1
            count(instrumentation, "store_hits")
            self._record(label, kind, digest, "hit", "reused (all inputs unchanged)")
            self._touch(kind, digest)
            self._remember(label, digest, parts)
            self._dirty = True  # written by flush(), once per run
            return obj
        reason = self._miss_reason(label, parts)
        self.misses += 1
        count(instrumentation, "store_misses")
        self._record(label, kind, digest, "miss", reason)
        obj = compute()
        payload, sidecar = codec.encode(obj)
        json_path.parent.mkdir(parents=True, exist_ok=True)
        json_path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        if sidecar is not None:
            csv_path.write_text(sidecar, encoding="utf-8")
        self._touch(kind, digest)
        self._remember(label, digest, parts)
        self._evict(instrumentation)
        self._save_state()
        return obj

    def bypass(
        self,
        label: str,
        reason: str,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        """Record that a stage could not be cached (and why)."""
        self.bypasses += 1
        count(instrumentation, "store_bypasses")
        self._record(self._sequenced(label), "-", "-", "bypass", reason)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _record(
        self, label: str, kind: str, digest: str, status: str, reason: str
    ) -> None:
        self.events.append(StoreEvent(label, kind, digest, status, reason))

    def _remember(self, label: str, digest: str, parts: Mapping[str, str]) -> None:
        self._manifest[label] = {"digest": digest, "parts": dict(parts)}

    def _miss_reason(self, label: str, parts: Mapping[str, str]) -> str:
        prev = self._manifest.get(label)
        if prev is None:
            return "first computation (no prior run recorded this stage)"
        prev_parts = prev.get("parts", {})
        changed = sorted(
            k
            for k in set(parts) | set(prev_parts)
            if dict(parts).get(k) != prev_parts.get(k)
        )
        if not changed:
            return "key unchanged but artifact missing (evicted or deleted)"
        diffs = ", ".join(
            f"{k} ({_short(prev_parts.get(k))} -> {_short(dict(parts).get(k))})"
            for k in changed
        )
        return f"inputs changed: {diffs}"

    def _touch(self, kind: str, digest: str) -> None:
        self._index.seq += 1
        self._index.entries[f"{kind}/{digest}"] = self._index.seq

    def _evict(self, instrumentation: Instrumentation | None = None) -> None:
        if self.max_entries is None:
            return
        while len(self._index.entries) > self.max_entries:
            victim = min(self._index.entries, key=self._index.entries.get)
            del self._index.entries[victim]
            kind, _, digest = victim.partition("/")
            json_path, csv_path = self._paths(kind, digest)
            json_path.unlink(missing_ok=True)
            csv_path.unlink(missing_ok=True)
            self.evictions += 1
            count(instrumentation, "store_evictions")

    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            bypasses=self.bypasses,
            evictions=self.evictions,
        )

    def __len__(self) -> int:
        return len(self._index.entries)

    def clear(self) -> None:
        """Delete every artifact (manifest survives, so explain still works)."""
        for entry in list(self._index.entries):
            kind, _, digest = entry.partition("/")
            json_path, csv_path = self._paths(kind, digest)
            json_path.unlink(missing_ok=True)
            csv_path.unlink(missing_ok=True)
        self._index.entries.clear()
        self._save_state()

    # ------------------------------------------------------------------
    # the explain report
    # ------------------------------------------------------------------
    def explain(self, title: str = "") -> str:
        """Render this session's reuse decisions, stage by stage."""
        lines = []
        if title:
            lines.append(title)
            lines.append("-" * len(title))
        lines.append(f"artifact store @ {self.root}")
        lines.append(f"  {self.stats()}; {len(self)} artifacts on disk")
        width = max((len(e.label) for e in self.events), default=0)
        for event in self.events:
            lines.append(
                f"  {event.status.upper():<6} {event.label:<{width}}  "
                f"{event.kind:<14} {_short(event.digest):<10}  {event.reason}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ArtifactStore {str(self.root)!r}: {len(self)} artifacts>"
