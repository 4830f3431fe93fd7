"""The checks behind a certificate's promises are explicit raises, so they
still fire under ``python -O``, which strips ``assert`` statements."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyresolve

# Each line prints whether one check raised AssertionError.
SCRIPT = """
import contextlib, importlib, io, json, os, random, tempfile
from polyresolve import cli, oddcover, polycycles
from polyresolve.generators import random_delta4_eulerian_graph
from polyresolve.graphs import simple_graph
from polyresolve.jsonio import emit_graph, emit_instance
from polyresolve.oddcover import _make_cert
from polyresolve.oracles import verify_certificate
from polyresolve.perms import CycleSeq, Partition, Resolution

def fires(check):
    try:
        check()
    except AssertionError:
        return True
    return False

print("asserts on:", __debug__)

g = simple_graph(3, [(0, 1), (1, 2)])
print("cover shape:", fires(lambda: _make_cert("cycle", [[(0, 1), (1, 2)]], g)))
print("cover xor:", fires(lambda: _make_cert("path", [[(0, 1)]], g)))

# A one-swap pair has the bound 2; repeat the walk's steps past it.
rs = importlib.import_module("polyresolve.resolve")
convert = rs._walk
rs._walk = lambda parts: convert(parts) * 3
print("length bound:", fires(lambda: rs.resolve(Partition(2, (0, 1)), Partition(2, (1, 0)))))
rs._walk = convert

# A valid walk of three swaps, one step past the bound 2 of the shape (1, 1).
walk = Resolution(Partition(2, (0, 1)), (CycleSeq((0, 1)),) * 3)
print("walk bound:", verify_certificate((walk.start, Partition(2, (1, 0))), walk).detail)

# A residual split that gives every tail of the oriented bowtie its first
# slot in the first part: both arcs into vertex 2 (in-degree 2) land there,
# so that part is no polycycle.
bowtie = simple_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
split = polycycles._split_residual
polycycles._split_residual = lambda k, arcs, heads: [arcs[0::2], arcs[1::2]]
print("polycycle parts:", fires(lambda: polycycles.undirected_polycycle_decomposition(bowtie, 2)))
polycycles._split_residual = split

# An exact search that finds nothing, although the construction bounds it.
cli.exact_odd_cover = lambda *args: None
print("exact cover found:", fires(lambda: cli._construct_cover(g, "path", True, None)))

def cli_run(argv, payload):
    # The exit code, and whether stdout holds a failed report.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([*argv, path])
    return code, '"pass": false' in out.getvalue()

# Crash guards: with asserts they would let a later line crash (a KeyError
# on the unmatched vertex's -1, on the missing anchor's None) or hang (a
# walk on the residual that never closes).  Three items swap each way, so
# one matching round runs before the residual of degree 2 is split.
swap = (Partition(2, (0, 0, 0, 1, 1, 1)), Partition(2, (1, 1, 1, 0, 0, 0)))
matcher = polycycles._hopcroft_karp
polycycles._hopcroft_karp = lambda n_left, n_right, adj: [-1] * n_left
print("unmatched vertex:", *cli_run(["resolve", "--instance"], emit_instance(swap)))
polycycles._hopcroft_karp = matcher
# Move the first slot to the next head: one head then has three slots.
split = polycycles._split_residual
polycycles._split_residual = lambda k, arcs, heads: split(
    k, arcs, [(heads[0] + 1) % (len(heads) // k), *heads[1:]])
print("broken residual:", *cli_run(["resolve", "--instance"], emit_instance(swap)))
polycycles._split_residual = split
# A pair split whose first factor swaps items 0 and 1, both in cluster 0.
# The walk checks no factor, so the one check refuses step 0 (exit 1).
pair = rs._pair
rs._pair = lambda assign, cs, ds: [(0, 1), *pair(assign, cs, ds)]
try:
    rs.resolve(*swap)
except AssertionError as exc:
    detail = str(exc)
print("bad factor:", *cli_run(["resolve", "--instance"], emit_instance(swap)), detail)
rs._pair = pair
# The path cover of two disjoint K5s makes two joins.
k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
two_k5 = simple_graph(10, [e for u, v in k5 for e in ((u, v), (u + 5, v + 5))])
anchor = oddcover._Surgery.anchor
oddcover._Surgery.anchor = lambda self, i, j: None
print("missing anchor:", *cli_run(["oddcover", "--graph"], emit_graph(two_k5)))
oddcover._Surgery.anchor = anchor
# Faults in the pair cores meet only the split's endpoint state, which
# refuses forests that are not linear as a failed check (exit 1).  A
# transversal that picks no edge leaves a polycycle in the first forest.
paths = ["oddcover", "--graph"]
cycles = ["oddcover", "--kind", "cycle", "--graph"]
forests = ["arboricity", "--graph"]
three = emit_graph(random_delta4_eulerian_graph(random.Random(1), components=3))
transversal = oddcover._transversal
oddcover._transversal = lambda comps, avoid=(): frozenset()
for name, argv in (("paths", paths), ("cycles", cycles), ("forests", forests)):
    print("empty transversal, " + name + ":", *cli_run(argv, three))
oddcover._transversal = transversal
# A forest walk that finds no paths.  The cycle cover of K5 splits no
# forest, and the decomposition joins none, so it walks none.
oddcover.linear_forest_paths = lambda edges: None
print("no forest paths:", *cli_run(paths, emit_graph(simple_graph(5, k5))))
"""


def test_output_guards_fire_under_python_O():
    src = str(Path(polyresolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout.splitlines() == [
        "asserts on: False",
        "cover shape: True",
        "cover xor: True",
        "length bound: True",
        "walk bound: 3 steps exceed the bound 2",
        "polycycle parts: True",
        "exact cover found: True",
        "unmatched vertex: 1 True",
        "broken residual: 1 True",
        "bad factor: 1 True step 0 revisits a cluster",
        "missing anchor: 1 True",
        "empty transversal, paths: 1 True",
        "empty transversal, cycles: 1 True",
        "empty transversal, forests: 1 True",
        "no forest paths: 1 True",
    ]


# Each line prints the AssertionError one part-count or output guard
# raised, or "passed", when a stub hands the construction a valid cover
# with one part more than its bound, bad forests, swapped shared-endpoint
# sets, or no cover at all.  The stubs sit before the cover's one check, so
# that check has to refuse them.
BOUNDS_SCRIPT = """
from collections import Counter
from polyresolve import oddcover, oracles
from polyresolve.graphs import _links, edge, simple_graph

def refusal(check):
    try:
        check()
    except AssertionError as exc:
        return str(exc)
    return "passed"

def complete(n):
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

def one_more(kind, parts):
    # The same xor from one more part: a path gives up an end edge, and a
    # cycle splits along a chord into two cycles.
    parts = [frozenset(part) for part in parts]
    for k, part in enumerate(parts):
        if kind == "path" and len(part) >= 2:
            ends = Counter(v for e in part for v in e)
            e = next(e for e in sorted(part) if 1 in (ends[e[0]], ends[e[1]]))
            split = [part - {e}, frozenset({e})]
        elif kind == "cycle" and len(part) >= 4:
            links = _links(part)
            a = min(links)
            b = min(links[a])
            c = next(w for w in links[b] if w != a)
            arc = {edge(a, b), edge(b, c)}
            split = [frozenset(arc | {edge(a, c)}), (part - arc) | {edge(a, c)}]
        else:
            continue
        return parts[:k] + split + parts[k + 1:]

def bounded(name, step, stub, cover, g):
    real = getattr(oddcover, step)
    setattr(oddcover, step, stub(real))
    print(name + ":", refusal(lambda: cover(g)))
    setattr(oddcover, step, real)

def split_forests(real):
    def stub(*args, **kw):
        final, facts = real(*args, **kw)
        return one_more("path", final), facts
    return stub

def swap_r_sets(real):
    def stub(*args, **kw):
        final, r_sets = real(*args, **kw)
        r_sets = dict(r_sets)
        r_sets[(0, 1)], r_sets[(0, 2)] = r_sets[(0, 2)], r_sets[(0, 1)]
        return final, r_sets
    return stub

def split_parts(kind):
    def wrap(real):
        return lambda *args: one_more(kind, real(*args))
    return wrap

k5, k7 = complete(5), complete(7)
# Two disjoint K5s take the crossing route to three closed cycles.
two_k5 = simple_graph(10, [e for u, v in k5.edges for e in ((u, v), (u + 5, v + 5))])
fork = simple_graph(3, [(0, 1), (0, 2)])
bounded("delta4 paths", "_reduce_endpoints", split_forests, oddcover.path_odd_cover_delta4, k5)
bounded("delta4 cycles", "_close_into_cycles", split_parts("cycle"),
        oddcover.cycle_odd_cover_delta4, two_k5)
# Closing forest 1 with R_02's edge and forest 2 with R_01's.
bounded("delta4 r sets", "_reduce_endpoints", swap_r_sets, oddcover.cycle_odd_cover_delta4, two_k5)
# The last of the three polycycles of K7 gets its own two-path cover.
bounded("eulerian paths", "_polycycle_cover", split_parts("path"),
        lambda g: oddcover.odd_cover_eulerian(g, "path"), k7)
# The fork plus its matching edge (1, 2) is a triangle; a three-path cover
# of it that avoids (1, 2) gives the fork four paths, one past 1 + 2.
triangle = tuple(map(frozenset, (
    {edge(0, 1)}, {edge(0, 1), edge(0, 2)}, {edge(0, 1), edge(1, 2)})))
bounded("general paths", "_eulerian_cover", lambda real: lambda *args: triangle,
        oddcover.path_odd_cover_general, fork)

def forests(name, triple):
    bounded(name, "_split_forests", lambda real: lambda *args: triple,
            oddcover.linear_forest_decomposition, k5)

# Forests that miss edges of K5, share one, or are no forest.
one = frozenset({edge(0, 1)})
forests("forests xor", (one, frozenset(), frozenset()))
forests("forests disjoint", (one, one, frozenset()))
forests("forests shape", (k5.edges, frozenset(), frozenset()))

# The fork's constructive cover has 3 paths, past the tight bound of 2, so
# the tight cover falls back on the exact search, here stubbed to find nothing.
oracles.exact_odd_cover = lambda *args: None
print("tight attainable:", refusal(lambda: oracles.tight_path_odd_cover(fork)))
"""

BOUND_CHECKS = {
    "delta4 paths": "4 paths exceed the bound 3",
    "delta4 cycles": "4 cycles exceed the bound 3",
    "delta4 r sets": "part 1 not a cycle",
    "eulerian paths": "6 paths exceed the bound 5",
    "general paths": "4 paths exceed the bound 3",
    "forests xor": "union differs from the graph",
    "forests disjoint": "parts 0 and 1 share an edge",
    "forests shape": "part 0 not a linear forest",
    "tight attainable": "the tight bound is always attainable",
}


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
    return dict(line.split(": ", 1) for line in run.stdout.splitlines())


@pytest.mark.parametrize("check", BOUND_CHECKS)
def test_part_count_guards_fire_under_python_O(bound_guards, check):
    assert bound_guards[check] == BOUND_CHECKS[check]


# The asserts left in the package are proof invariants: every output still
# passes its checker by an explicit raise, and every crash guard is one.
ASSERTS_LEFT = 24


def test_no_new_asserts_in_the_package():
    # A new guard written as an assert would vanish under python -O.
    package = Path(polyresolve.__file__).resolve().parent
    count = sum(isinstance(node, ast.Assert)
                for path in package.glob("*.py") for node in ast.walk(ast.parse(path.read_text())))
    assert count <= ASSERTS_LEFT


# Input errors are ValueError (TooLarge among them, exit 2) and failed checks
# AssertionError (exit 1).  The two others are Python's own protocol errors:
# an argument of a type with no DOT form, and a write to an immutable object.
RAISED = {"ValueError", "TooLarge", "AssertionError"}
PROTOCOL_RAISES = {("dot.py", "emit_dot", "TypeError"),
                   ("perms.py", "__setattr__", "AttributeError")}


def _raises(tree: ast.AST, scope: str = ""):
    """(enclosing function, raised name) of every raise under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield from _raises(node, node.name)
            continue
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield scope, ast.unparse(exc) if exc else "raise"
        yield from _raises(node, scope)


def test_every_raise_is_an_input_error_or_a_failed_check():
    package = Path(polyresolve.__file__).resolve().parent
    others = {(path.name, scope, name)
              for path in package.glob("*.py")
              for scope, name in _raises(ast.parse(path.read_text()))
              if name not in RAISED}
    assert others <= PROTOCOL_RAISES
    classes = [node.name for node in ast.walk(ast.parse((package / "errors.py").read_text()))
               if isinstance(node, ast.ClassDef)]
    assert classes == ["TooLarge"]
