#!/usr/bin/env python
"""Fail CI when per-call session plumbing grows back.

Every pipeline entry point takes one keyword-only ``session=`` (an
:class:`~repro.runtime.context.EngineSession`) or uses the ambient one.
This lint walks every module under ``src/repro`` with ``ast`` and fails
when it finds

* a function/method *definition* declaring a ``workers``,
  ``instrumentation`` or ``store`` parameter, or
* a *call* passing ``workers=`` / ``instrumentation=`` / ``store=`` to
  anything other than the session and runtime-primitive constructors
  that legitimately take them (``ALLOWED_CALLEES``).

The only exemptions are ``SHIM_MODULES``: the primitives that take such
a handle as their *subject* — the session itself, the instrumentation,
the obs collectors and the artifact store.

A second check keeps the Figure-10 recipe in one place
(``repro.plan.figure10_spec``): the hand-written recipe constructors
(``make_blockers`` / ``positive_rules`` / ``default_negative_rules``) may
only be called from their defining modules and the registry factories
(``RECIPE_ALLOWED``); everywhere else — benchmarks and examples included
— derives the recipe from the plan (``figure10_spec`` /
``recipe_from_spec`` / ``figure10_workflow``).

Run locally with ``python tools/lint_session_plumbing.py``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

BANNED_KEYWORDS = {"workers", "instrumentation", "store"}

#: Primitives that take an instrumentation or store handle as their
#: *subject* (events are recorded onto it, or it is what they build), not
#: as threaded plumbing. Do not add entries — route new code through
#: EngineSession instead.
SHIM_MODULES = {
    "repro/runtime/context.py",
    "repro/runtime/instrument.py",
    "repro/obs/trace.py",
    "repro/obs/metrics.py",
    "repro/obs/manifest.py",
    "repro/store/store.py",
}

#: Callees that legitimately accept the keywords everywhere: session and
#: runtime-primitive constructors, and the metrics collector (which
#: *consumes* an instrumentation handle).
ALLOWED_CALLEES = {
    "EngineSession",
    "Instrumentation",
    "TracingInstrumentation",
    "collect_metrics",
}


#: The hand-written Figure-10 recipe constructors — reference code the
#: config recipe is pinned against — callable only from their defining
#: modules (and the registry factory that wraps one). Everywhere else
#: derives the recipe from the plan. Do not add entries.
RECIPE_ALLOWED = {
    "make_blockers": {"repro/casestudy/blocking_plan.py"},
    "positive_rules": {"repro/casestudy/workflows.py"},
    "default_negative_rules": {
        "repro/rules/negative.py",
        "repro/rules/factory.py",
    },
}


def _callee_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr  # obs.collect_metrics(...)
    if isinstance(func, ast.Name):
        return func.id
    return ""


def lint_recipe_calls(path: Path, rel: str) -> list[str]:
    """Flag hand-wired Figure-10 recipe calls outside ``RECIPE_ALLOWED``.

    Only bare-name calls count: ``positive_rules`` is also a workflow
    *attribute* name, and ``obj.positive_rules`` accesses are fine.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        name = node.func.id
        allowed = RECIPE_ALLOWED.get(name)
        if allowed is not None and rel not in allowed:
            problems.append(
                f"{rel}:{node.lineno}: call to {name}() hand-wires the "
                f"Figure-10 recipe — derive it from the plan "
                f"(repro.plan.figure10_spec / recipe_from_spec / "
                f"figure10_workflow) instead"
            )
    return problems


def lint_file(path: Path, rel: str) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            declared = [
                a.arg
                for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                if a.arg in BANNED_KEYWORDS
            ]
            for name in declared:
                problems.append(
                    f"{rel}:{node.lineno}: def {node.name}(... {name}= ...) "
                    f"declares per-call session plumbing — take session= "
                    f"instead"
                )
        elif isinstance(node, ast.Call):
            callee = _callee_name(node)
            if callee in ALLOWED_CALLEES:
                continue
            for keyword in node.keywords:
                if keyword.arg in BANNED_KEYWORDS:
                    problems.append(
                        f"{rel}:{node.lineno}: call to {callee or '<expr>'}() "
                        f"threads {keyword.arg}= — pass/enter an EngineSession "
                        f"instead"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src",
        default=str(Path(__file__).resolve().parent.parent / "src"),
        help="source root to scan (default: <repo>/src)",
    )
    args = parser.parse_args(argv)
    src = Path(args.src)
    problems: list[str] = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        problems.extend(lint_recipe_calls(path, rel))
        if rel in SHIM_MODULES:
            continue
        problems.extend(lint_file(path, rel))
    # the recipe freeze also covers benchmarks and examples — the very
    # call sites the plan refactor deduplicated
    repo = src.parent
    for extra_root in ("benchmarks", "examples"):
        root = repo / extra_root
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.py")):
            rel = f"{extra_root}/{path.relative_to(root).as_posix()}"
            problems.extend(lint_recipe_calls(path, rel))
    for problem in problems:
        print(problem)
    if problems:
        print(
            f"\n{len(problems)} session-plumbing violation(s); see "
            f"tools/lint_session_plumbing.py"
        )
        return 1
    print("session-plumbing lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
