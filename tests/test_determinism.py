"""Cross-process determinism sweep.

The artifact store assumes every cacheable stage is a pure function of its
fingerprinted inputs. That only holds if the seeded primitives underneath
— down-sampling, forest training, cross-validation, and the Figure-10
blocking plan — are bit-identical across *fresh processes* (not merely
within one process, where dict order and interning can mask
nondeterminism). Each scriptlet below runs twice in subprocesses with
different ``PYTHONHASHSEED`` values and must print the same output both
times.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

PREAMBLE = """
import hashlib, json
import numpy as np

def emit(obj):
    blob = json.dumps(obj, sort_keys=True)
    print(hashlib.sha256(blob.encode()).hexdigest())
"""

DOWN_SAMPLE = PREAMBLE + """
from repro.blocking import down_sample
from repro.table import Table

rng = np.random.default_rng(45)
a = Table({
    "id": list(range(60)),
    "t": [f"alpha beta w{i % 7} t{i % 11} gamma" for i in range(60)],
}, name="A")
b = Table({
    "id": list(range(40)),
    "t": [f"alpha delta w{i % 5} t{i % 13}" for i in range(40)],
}, name="B")
sa, sb = down_sample(a, b, ["t"], b_size=15, a_size=20, rng=rng)
emit({"a_ids": list(sa["id"]), "b_ids": list(sb["id"])})
"""

FOREST = PREAMBLE + """
from repro.core.serialize import serialize_model
from repro.ml import RandomForestClassifier

rng = np.random.default_rng(7)
X = rng.normal(size=(80, 5))
y = (X[:, 0] + 0.3 * X[:, 1] > 0).astype(int).tolist()
model = RandomForestClassifier(n_trees=12, seed=3).fit(X, y)
proba = model.predict_proba(rng.normal(size=(20, 5)))
emit({
    "model": serialize_model(model),
    "proba": [repr(float(p)) for p in np.ravel(proba)],
})
"""

CROSS_VALIDATE = PREAMBLE + """
from repro.ml import RandomForestClassifier
from repro.ml.model_selection import cross_validate

rng = np.random.default_rng(11)
X = rng.normal(size=(90, 4))
y = (X[:, 0] - 0.2 * X[:, 3] > 0).astype(int).tolist()
result = cross_validate(
    RandomForestClassifier(n_trees=8, seed=5), X, y, n_folds=5, seed=9
)
emit({
    "folds": [
        [repr(float(fold.precision)), repr(float(fold.recall)), repr(float(fold.f1))]
        for fold in result.fold_scores
    ]
})
"""

#: The full-scale Figure-10 blocking plan under a store: each blocker's
#: pairs in order, their union, and a digest of every file the store
#: writes. Full scale on purpose: the coefficient blocker's string-hash
#: probe order once swapped 4 of its 1,340 pairs here, and no smaller
#: scenario showed it.
FIGURE10_BLOCKING = PREAMBLE + """
import tempfile
from pathlib import Path

from repro.casestudy.blocking_plan import run_blocking
from repro.casestudy.preprocess import preprocess
from repro.datasets import ScenarioConfig, generate_scenario
from repro.runtime import EngineSession
from repro.store import ArtifactStore

tables = preprocess(
    generate_scenario(ScenarioConfig(seed=45)), include_project_number=False
)
with tempfile.TemporaryDirectory() as root:
    with EngineSession(store=ArtifactStore(root)) as session:
        outcome = run_blocking(tables, session=session)
    files = {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }
pairs = {
    name: [list(pair) for pair in getattr(outcome, name).pairs]
    for name in ("c1", "c2", "c3", "candidates")
}
print(json.dumps({
    "sizes": {name: len(p) for name, p in pairs.items()},
    "pairs": {
        name: hashlib.sha256(json.dumps(p).encode()).hexdigest()
        for name, p in pairs.items()
    },
    "files": files,
}, sort_keys=True))
"""


def run_fresh(script: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "name, script",
    [
        ("down_sample", DOWN_SAMPLE),
        ("forest_training", FOREST),
        ("cross_validation", CROSS_VALIDATE),
    ],
)
def test_bit_identical_across_processes(name, script):
    # different hash seeds shuffle set/dict iteration between the two
    # processes, so any order-dependence in the primitives shows up here
    first = run_fresh(script, hash_seed="0")
    second = run_fresh(script, hash_seed="1")
    assert first == second, f"{name} is not deterministic across processes"
    assert len(first) == 64  # a single sha256 line, no stray output


def test_figure10_blocking_identical_across_processes():
    # C1, C2, C3 and their union, pair for pair in order, and every store
    # file byte for byte, under two hash seeds
    first = json.loads(run_fresh(FIGURE10_BLOCKING, hash_seed="0"))
    second = json.loads(run_fresh(FIGURE10_BLOCKING, hash_seed="1"))
    assert first["sizes"] == {"c1": 230, "c2": 3111, "c3": 1340, "candidates": 3154}
    assert second["sizes"] == first["sizes"]
    for name in ("c1", "c2", "c3", "candidates"):
        assert first["pairs"][name] == second["pairs"][name], (
            f"{name} pair order differs across processes"
        )
    assert first["files"], "the store wrote no files"
    assert sorted(first["files"]) == sorted(second["files"])
    differing = [
        path for path in first["files"] if first["files"][path] != second["files"][path]
    ]
    assert not differing, f"store files differ across processes: {differing}"
