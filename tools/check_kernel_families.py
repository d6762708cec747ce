#!/usr/bin/env python
"""Fail CI when a deployed kernel family regresses below the references.

``benchmarks/bench_kernels.py`` writes per-family speedups to
``benchmarks/out/kernels.json``. This guard re-reads that JSON after the
bench runs and fails the perf-smoke job when any family listed in
:data:`repro.similarity.batch.DEPLOYED_FAMILIES` reports a speedup
< 1.0x vs its references on either case-study tokenization (ws, qgm_3)
— for the character family, on either input (AwardTitle words, date
strings).

The bench asserts the same gates while timing; the guard exists so the
numbers in the *uploaded artifact* are what gets checked (a bench edit
cannot silently drop an assertion without also touching this file or the
JSON schema), and so the failure message names the offending key. Run
locally with ``python tools/check_kernel_families.py`` after the bench.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.similarity.batch import DEPLOYED_FAMILIES  # noqa: E402

TOKENIZATIONS = ("ws", "qgm_3")

#: kernels.json keys holding each deployed family's speedup vs the
#: string references; every listed key must be >= 1.0.
FAMILY_KEYS = {
    "batch": [f"family_batch_{tok}_speedup" for tok in TOKENIZATIONS],
    "character": [
        f"character_{measure}_{inputs}_speedup"
        for measure in ("jaro", "jaro_winkler", "levenshtein_similarity")
        for inputs in ("tokens", "dates")
    ],
}


def check(data: dict) -> list[str]:
    """All gate violations in *data* (empty means the artifact is clean)."""
    problems: list[str] = []
    recorded = data.get("deployed_families")
    if recorded is not None and tuple(recorded) != tuple(DEPLOYED_FAMILIES):
        problems.append(
            f"kernels.json deployed_families {recorded} does not match "
            f"repro.similarity.batch.DEPLOYED_FAMILIES {list(DEPLOYED_FAMILIES)}"
        )
    for family in DEPLOYED_FAMILIES:
        keys = FAMILY_KEYS.get(family)
        if keys is None:
            problems.append(f"no speedup keys known for deployed family {family!r}")
            continue
        for key in keys:
            value = data.get(key)
            if value is None:
                problems.append(f"missing key {key!r} for deployed family {family!r}")
            elif value < 1.0:
                problems.append(
                    f"deployed family {family!r} slower than string "
                    f"references: {key} = {value:.3f}x"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default=REPO / "benchmarks" / "out" / "kernels.json",
        type=Path,
        help="kernels.json written by bench_kernels.py",
    )
    args = parser.parse_args(argv)
    if not args.path.exists():
        print(f"check_kernel_families: {args.path} not found (run the bench first)")
        return 2
    payload = json.loads(args.path.read_text())
    # emit_report wraps the bench's data dict in an envelope with
    # benchmark/platform metadata; accept both the wrapped and raw forms,
    # and drop the volatile run-provenance fields (timestamp, git_sha)
    # either way — only measured numbers are gated.
    data = {
        k: v for k, v in payload.get("data", payload).items()
        if k not in ("timestamp", "git_sha")
    }
    problems = check(data)
    if problems:
        print(f"check_kernel_families: FAIL ({args.path})")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        "check_kernel_families: OK — deployed families "
        f"{list(DEPLOYED_FAMILIES)} all >= 1.0x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
