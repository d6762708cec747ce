"""Section 7 — the three-blocker blocking plan.

1. an attribute-equivalence blocker on the award-number suffix (so every
   M1 pair survives into the candidate set) -> C1;
2. an overlap blocker on normalized titles, word tokens, K=3 -> C2;
3. an overlap-coefficient blocker (threshold 0.7) to rescue similar titles
   shorter than 3 tokens -> C3;
4. C = C1 ∪ C2 ∪ C3, then the blocking debugger confirms the top-ranked
   pairs *outside* C are not matches.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..blocking import (
    AttrEquivalenceBlocker,
    CandidateSet,
    MissedPairReport,
    OverlapBlocker,
    OverlapCoefficientBlocker,
    OverlapReport,
    debug_blocker,
    overlap_report,
    union_candidates,
)
from ..errors import BlockingError
from ..runtime.context import EngineSession, resolve_session
from ..runtime.instrument import stage
from ..text.normalize import normalize_title
from ..text.patterns import award_number_suffix
from .preprocess import ProjectedTables

OVERLAP_THRESHOLD = 3
COEFFICIENT_THRESHOLD = 0.7


def make_blockers() -> list:
    """The paper's three blockers, in application order."""
    return [
        AttrEquivalenceBlocker(
            "AwardNumber", "AwardNumber", l_preprocess=award_number_suffix
        ),
        OverlapBlocker(
            "AwardTitle", "AwardTitle",
            threshold=OVERLAP_THRESHOLD, normalizer=normalize_title,
        ),
        OverlapCoefficientBlocker(
            "AwardTitle", "AwardTitle",
            threshold=COEFFICIENT_THRESHOLD, normalizer=normalize_title,
        ),
    ]


@dataclass(frozen=True)
class BlockingOutcome:
    """All Section-7 artifacts."""

    c1: CandidateSet
    c2: CandidateSet
    c3: CandidateSet
    candidates: CandidateSet  # the consolidated C
    c2_c3_report: OverlapReport
    debugger_top: tuple[MissedPairReport, ...]

    def summary(self) -> str:
        return (
            f"|C1|={len(self.c1)}, |C2|={len(self.c2)}, |C3|={len(self.c3)}, "
            f"|C|={len(self.candidates)}; {self.c2_c3_report}"
        )


def run_blocking(
    tables: ProjectedTables,
    debug_top_k: int = 100,
    *,
    session: EngineSession | None = None,
    blockers: "list | None" = None,
) -> BlockingOutcome:
    """Execute the blocking plan and the debugger check.

    Runs under *session* (or the ambient session when ``None``): its
    instrumentation records per-blocker stage timings and pair counts,
    and its store memoizes each blocker's candidate set by content
    fingerprints.

    *blockers* substitutes a custom three-blocker plan (e.g. built by
    :func:`repro.blocking.create_blockers`, or the block nodes of a
    ``casestudy --plan`` spec) for the paper's recipe; it must supply exactly three
    blockers, applied in C1/C2/C3 order.
    """
    resolved = resolve_session(session)
    instrumentation = resolved.instrumentation
    if blockers is None:
        blockers = make_blockers()
    if len(blockers) != 3:
        raise BlockingError(
            f"the Section-7 plan takes exactly 3 blockers, got {len(blockers)}"
        )
    ae, overlap, coefficient = blockers
    args = (tables.umetrics, tables.usda, tables.l_key, tables.r_key)
    with stage(instrumentation, "C1:attr_equiv"):
        c1 = ae.block_tables(*args, name="C1", session=resolved)
    with stage(instrumentation, "C2:overlap_k3"):
        c2 = overlap.block_tables(*args, name="C2", session=resolved)
    with stage(instrumentation, "C3:coefficient"):
        c3 = coefficient.block_tables(*args, name="C3", session=resolved)
    with stage(instrumentation, "union"):
        candidates = union_candidates([c1, c2, c3], name="C")
    # The debugger ranks excluded pairs by the blocking attribute (titles):
    # a pair blocking dropped *because its titles diverge* cannot re-rank
    # high on titles, which is exactly why the paper's check came back
    # clean. (Adding EmployeeName here is a worthwhile extension — it
    # surfaces number-rule matches with rewritten titles — but it changes
    # the Section-7 narrative; see the blocking debugger example.)
    top = debug_blocker(
        candidates,
        attr_pairs=[("AwardTitle", "AwardTitle")],
        top_k=debug_top_k,
        session=resolved,
    )
    return BlockingOutcome(
        c1=c1,
        c2=c2,
        c3=c3,
        candidates=candidates,
        c2_c3_report=overlap_report(c2, c3),
        debugger_top=tuple(top),
    )


def threshold_sweep(
    tables: ProjectedTables, thresholds: tuple[int, ...] = (1, 2, 3, 5, 7)
) -> dict[int, int]:
    """Candidate-set size per overlap threshold K — the experiment behind
    the paper's choice of K=3 (K=1 -> ~200K pairs, K=7 -> a few hundred)."""
    sizes = {}
    for k in thresholds:
        blocker = OverlapBlocker(
            "AwardTitle", "AwardTitle", threshold=k, normalizer=normalize_title
        )
        sizes[k] = len(
            blocker.block_tables(
                tables.umetrics, tables.usda, tables.l_key, tables.r_key
            )
        )
    return sizes
