"""Checks of the benchmark itself.

    python3 -m pytest perfbench/tests

* Two runs on one seed write identical inputs and give identical exact counts.
* Every metric a run prints is declared in BENCHMARK.json with the same unit.
* The independent output checker rejects wrong outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402

WORKLOADS = ("resolve-wide", "resolve-many", "cover-delta4", "oracle-crosscheck")
EXACT = ("resolve.steps", "polycycles.parts", "oddcover.joins", "oddcover.parts",
         "perms.permutation_entries")


def bench(workload: str, trace: int) -> tuple[str, dict]:
    """One short run; returns the hash of its inputs and the result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    sha = next(line.split("sha256=")[1] for line in lines if "sha256=" in line)
    return sha, json.loads(lines[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_and_counts(workload):
    runs = {trace: [bench(workload, trace) for _ in range(2)] for trace in (0, 1)}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        (sha1, first), (sha2, second) = runs[trace]
        assert sha1 == sha2
        assert first["correct"] and second["correct"]
        units = {k: v["unit"] for k, v in first["metrics"].items()}
        assert units == declared(kind)
    (_, plain1), (_, plain2) = runs[0]
    assert plain1["metrics"]["cert_ratio"] == plain2["metrics"]["cert_ratio"]
    (_, traced1), (_, traced2) = runs[1]
    for name in EXACT:
        assert traced1["metrics"][name] == traced2["metrics"][name], name


def test_resolution_checker_rejects_bad_walks():
    p, q = [0, 0, 1, 1], [1, 0, 0, 1]
    assert check.check_resolution(p, q, 2, [[0, 2]]) is None
    assert "twice" in check.check_resolution(p, q, 2, [[0, 1]])
    assert "target" in check.check_resolution(p, q, 2, [])
    assert "bound" in check.check_resolution(p, q, 2, [[0, 2]] * 5)


def test_cover_checkers_reject_bad_covers():
    square = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}

    def cover(kind, parts):
        return {"type": "odd_cover", "kind": kind, "parts": parts}

    assert check.check_cover(square, cover("cycle", [square["edges"]]), "cycle", 3) is None
    assert check.check_cover(square, cover("path", [[[0, 1], [1, 2], [2, 3]], [[0, 3]]]), "path", 3) is None
    assert "xor" in check.check_cover(square, cover("path", [[[0, 1], [1, 2]]]), "path", 3)
    assert "not a path" in check.check_cover(square, cover("path", [square["edges"]]), "path", 3)
    split = [[[0, 1]], [[1, 2]], [[2, 3]], [[0, 3]]]
    assert "exceed" in check.check_cover(square, cover("path", split), "path", 3)

    forests = [[[0, 1], [1, 2]], [[2, 3]], [[0, 3]]]
    assert check.check_forests(square, cover("linear_forest", forests)) is None
    assert "share" in check.check_forests(square, cover("linear_forest", [[[0, 1], [1, 2]], [[1, 2], [2, 3]], [[0, 3]]]))
    assert "differs" in check.check_forests(square, cover("linear_forest", [[[0, 1]], [[2, 3]], [[0, 3]]]))
