"""The checks behind a certificate's promises are explicit raises, so they
still fire under ``python -O``, which strips ``assert`` statements."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyresolve

# Each line prints whether one check raised AssertionError.
SCRIPT = """
import importlib
from polyresolve import cli, polycycles
from polyresolve.graphs import simple_graph
from polyresolve.oddcover import _make_cert
from polyresolve.oracles import MoveAccounting
from polyresolve.perms import Partition

def fires(check):
    try:
        check()
    except AssertionError:
        return True
    return False

print("asserts on:", __debug__)
print("gain identity:", fires(lambda: MoveAccounting(1, 1, 4)))

g = simple_graph(3, [(0, 1), (1, 2)])
print("cover shape:", fires(lambda: _make_cert("cycle", [[(0, 1), (1, 2)]], g)))
print("cover xor:", fires(lambda: _make_cert("path", [[(0, 1)]], g)))

# A one-swap pair has the bound 2; repeat the walk's steps past it.
rs = importlib.import_module("polyresolve.resolve")
convert = rs.resolution_from_decomposition
rs.resolution_from_decomposition = lambda p, parts: rs.Resolution(p, convert(p, parts).taus * 3)
print("length bound:", fires(lambda: rs.resolve(Partition(2, (0, 1)), Partition(2, (1, 0)))))

# A decomposition that returns the whole bowtie (degree 4 at vertex 2) as
# its one part, which is no polycycle.
bowtie = simple_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
split = polycycles.directed_polycycle_decomposition
polycycles.directed_polycycle_decomposition = (
    lambda d, t: polycycles.PolycycleDecomposition((tuple(range(d.m)),), 0))
print("polycycle parts:", fires(lambda: polycycles.undirected_polycycle_decomposition(bowtie, 2)))
polycycles.directed_polycycle_decomposition = split

# An exact search that finds nothing, although the construction bounds it.
cli.exact_odd_cover = lambda *args: None
print("exact cover found:", fires(lambda: cli._construct_cover(g, "path", True, None)))
"""


def test_output_guards_fire_under_python_O():
    src = str(Path(polyresolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "asserts on: False",
        "gain identity: True",
        "cover shape: True",
        "cover xor: True",
        "length bound: True",
        "polycycle parts: True",
        "exact cover found: True",
    ]


# Each line prints whether one part-count or output guard raised
# AssertionError when a stub hands the construction one part too many, bad
# forests, or no cover at all.
BOUNDS_SCRIPT = """
from polyresolve import oddcover, oracles
from polyresolve.graphs import edge, simple_graph
from polyresolve.oddcover import OddCoverCert

def fires(check):
    try:
        check()
    except AssertionError:
        return True
    except Exception:
        return False
    return False

def complete(n):
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

make_cert, split = oddcover._make_cert, oddcover._split_forests

def too_many(target, count):
    # The real cover for every graph but ``target``, which gets ``count`` parts.
    def stub(kind, parts, g):
        if g is target:
            return OddCoverCert(kind, (frozenset(),) * count)
        return make_cert(kind, parts, g)
    return stub

def bounded(name, cover, g, bound):
    oddcover._make_cert = too_many(g, bound + 1)
    print(name + ":", fires(lambda: cover(g)))
    oddcover._make_cert = make_cert

k5, k7 = complete(5), complete(7)
fork = simple_graph(3, [(0, 1), (0, 2)])
bounded("delta4 paths", oddcover.path_odd_cover_delta4, k5, 3)
bounded("delta4 cycles", oddcover.cycle_odd_cover_delta4, k5, 3)
bounded("eulerian paths", lambda g: oddcover.odd_cover_eulerian(g, "path"), k7, 5)
# One odd-vertex pair, and Delta_e = 2: the bound is 1 + 2.
bounded("general paths", oddcover.path_odd_cover_general, fork, 3)

def forests(name, triple):
    oddcover._split_forests = lambda *args: (triple, None)
    print(name + ":", fires(lambda: oddcover.linear_forest_decomposition(k5)))
    oddcover._split_forests = split

one = frozenset({edge(0, 1)})
forests("forests xor", (k5.edges, k5.edges, frozenset()))
forests("forests disjoint", (k5.edges, one, one))
forests("forests shape", (k5.edges, frozenset(), frozenset()))

# The fork's constructive cover has 3 paths, past the tight bound of 2, so
# the tight cover falls back on the exact search, here stubbed to find nothing.
oracles.exact_odd_cover = lambda *args: None
print("tight attainable:", fires(lambda: oracles.tight_path_odd_cover(fork)))
"""

BOUND_CHECKS = (
    "delta4 paths",
    "delta4 cycles",
    "eulerian paths",
    "general paths",
    "forests xor",
    "forests disjoint",
    "forests shape",
    "tight attainable",
)


@pytest.fixture(scope="module")
def bound_guards():
    src = str(Path(polyresolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", BOUNDS_SCRIPT], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    return dict(line.split(": ") for line in run.stdout.splitlines())


@pytest.mark.parametrize("check", BOUND_CHECKS)
def test_part_count_guards_fire_under_python_O(bound_guards, check):
    assert bound_guards[check] == "True"
