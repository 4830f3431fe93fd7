"""The checks behind a certificate's promises are explicit raises, so they
still fire under ``python -O``, which strips ``assert`` statements."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
cli._bounded_cover_search = lambda *args: None
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
