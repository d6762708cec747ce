"""Million-row synthetic blocking workload, streamed.

The Figure-2 scenario generator is faithful to the paper but tops out
around tens of thousands of rows: it materializes project objects, and
its title reuse produces a token-frequency profile too benign to stress
blocking. This module generates the *adversarial* profile blocking must
survive at the ROADMAP's million-row scale, with exactly the structure
the capped token blockers are built for:

* every row's title holds 8 tokens — a per-row unique core plus,
  for some rows, shared "family" tokens drawn from two pools:
  pool **A** (few families, many members) whose posting lists grow
  *linearly* with the row count, and pool **B** (many families, few
  members) whose lists grow slowly — together a two-knee approximation
  of a Zipf token distribution with precisely known block sizes;
* a fixed fraction of left rows *match* one right row (6 of 8 tokens
  shared → Jaccard 2/3, overlap 6): ground truth is returned alongside
  the tables, so benchmarks can measure recall exactly;
* "collider" left rows share exactly 3 tokens with a whole family —
  enough to pass the overlap blocker's K=3 verification, far below any
  Jaccard threshold — so uncapped exact blocking produces
  family-size-quadratic candidates, while a Jaccard-verified blocker's
  output would stay match-proportional;
* with a size cap ~40, pool-A families are capped at every scale and
  pool-B families are capped only past ~400k rows, which is what makes
  capped candidate growth *sub-linear* (the 10×-rows < 10×-pairs band).

Rows are **pure functions of (seed, side, row index)** — per-row
splitmix64 streams, no sequential RNG — so :func:`iter_scale_rows` is a
true streaming generator: any slice of either table can be produced in
O(slice) memory, left rows can cite their right partner without the
right table in memory, and the result is independent of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import DatasetError
from ..table import Table

_MASK64 = (1 << 64) - 1


def _mix(*parts: int) -> int:
    """splitmix64 folded over *parts* — the per-row random stream."""
    x = 0x9E3779B97F4A7C15
    for p in parts:
        x = (x ^ (p & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        x ^= x >> 31
    return x


def _u01(*parts: int) -> float:
    return _mix(*parts) / 2**64


@dataclass(frozen=True)
class ScaleConfig:
    """Knobs for the scaled workload; defaults match the benchmark bands.

    ``rows`` is the per-table row count. Family pool sizes are *counts of
    families*; the expected family block size is
    ``rows * fraction / families`` — with the defaults, pool A blocks at
    one member per 1 000 rows and pool B at one per 10 000.
    """

    rows: int
    seed: int = 0
    matched_fraction: float = 0.3
    families_a: int = 200
    family_fraction_a: float = 0.2
    collider_fraction_a: float = 0.05
    families_b: int = 2000
    family_fraction_b: float = 0.2
    collider_fraction_b: float = 0.03

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise DatasetError(f"rows must be >= 1, got {self.rows}")
        total = (
            self.matched_fraction
            + self.collider_fraction_a
            + self.collider_fraction_b
        )
        if total > 1.0:
            raise DatasetError(
                "matched + collider fractions must not exceed 1, "
                f"got {total:.3f}"
            )


def _family_tokens(pool: str, family: int) -> list[str]:
    return [f"f{pool}{family}t{t}" for t in range(4)]


def _right_tokens(config: ScaleConfig, i: int) -> list[str]:
    """Right row *i*'s 8 title tokens (pure function of seed and i)."""
    draw = _u01(config.seed, 1, i)
    unique = [f"u{i}t{t}" for t in range(4)]
    if draw < config.family_fraction_a:
        fam = _mix(config.seed, 2, i) % config.families_a
        return _family_tokens("a", fam) + unique
    if draw < config.family_fraction_a + config.family_fraction_b:
        fam = _mix(config.seed, 3, i) % config.families_b
        return _family_tokens("b", fam) + unique
    return unique + [f"u{i}t{t}" for t in range(4, 8)]


def _left_partner(config: ScaleConfig, i: int) -> int | None:
    """The right row a matched left row *i* copies, else ``None``."""
    if _u01(config.seed, 4, i) < config.matched_fraction:
        return _mix(config.seed, 5, i) % config.rows
    return None


def _left_tokens(config: ScaleConfig, i: int) -> list[str]:
    """Left row *i*'s title tokens (pure function of seed and i)."""
    partner = _left_partner(config, i)
    if partner is not None:
        # 6 of the partner's 8 tokens + 1 fresh: overlap 6, Jaccard 2/3.
        return _right_tokens(config, partner)[:6] + [f"x{i}t0"]
    draw = _u01(config.seed, 4, i) - config.matched_fraction
    fresh = [f"x{i}t{t}" for t in range(8)]
    if draw < config.collider_fraction_a:
        fam = _mix(config.seed, 6, i) % config.families_a
        return _family_tokens("a", fam)[:3] + fresh
    if draw < config.collider_fraction_a + config.collider_fraction_b:
        fam = _mix(config.seed, 7, i) % config.families_b
        return _family_tokens("b", fam)[:3] + fresh
    return fresh


def iter_scale_rows(
    config: ScaleConfig, side: str, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, str]]:
    """Stream ``(row id, title)`` for ``side in {"left", "right"}``.

    Any ``[start, stop)`` slice streams in O(1) memory per row; slicing
    and chunking never change row content.
    """
    if side not in ("left", "right"):
        raise DatasetError(f"side must be 'left' or 'right', got {side!r}")
    stop = config.rows if stop is None else min(stop, config.rows)
    tokens_of = _left_tokens if side == "left" else _right_tokens
    for i in range(start, stop):
        yield i, " ".join(tokens_of(config, i))


def true_matches(config: ScaleConfig) -> list[tuple[int, int]]:
    """Ground-truth (left id, right id) matched pairs, left-row order."""
    out = []
    for i in range(config.rows):
        partner = _left_partner(config, i)
        if partner is not None:
            out.append((i, partner))
    return out


def scale_tables(config: ScaleConfig) -> tuple[Table, Table, list[tuple[int, int]]]:
    """Materialize ``(left, right, matches)`` tables for benchmarks.

    Row ids are ints (the key column); titles are single space-joined
    strings ready for the whitespace tokenizer.
    """
    l_ids, l_titles = [], []
    for rid, title in iter_scale_rows(config, "left"):
        l_ids.append(rid)
        l_titles.append(title)
    r_ids, r_titles = [], []
    for rid, title in iter_scale_rows(config, "right"):
        r_ids.append(rid)
        r_titles.append(title)
    left = Table({"id": l_ids, "title": l_titles}, name=f"scale_l_{config.rows}")
    right = Table({"id": r_ids, "title": r_titles}, name=f"scale_r_{config.rows}")
    return left, right, true_matches(config)
