"""Large-instance tier: resolutions on thousands to 10^5 items, and odd
covers of graphs with about 10^4 and 2 * 10^5 edges.

Each test builds a seeded equal-shape pair, resolves it, verifies the walk
and pins its steps by a digest.  The steps were first recorded from the
dense, recursive construction (given the stack depth it needed), so they
show the output does not depend on how permutations are stored or how the
matcher augments.  They were re-recorded once, when the last two matching
rounds gave way to a split of the residual along its cycles, which moves
the last two classes of every decomposition.  The scale tests also hold
resolve plus verification to a wall-clock budget.  Each budget is at least
five times the slowest of several runs on a 2-vCPU x86-64 VM with CPython
3.11 (1.0 s at m = 30,000, 5.8 s at m = 100,000; both vary about 2x with
the host's load).  Per-step work proportional to m took over seven minutes
at m = 30,000.

The decomposition test splits the difference digraph of 50,000 clusters
of 2 items (m = 100,000) and pins a digest of its parts.  Its budget, 10 s,
is over five times the slowest of several runs on the same VM (0.4 s; with
the two matching rounds the split replaced it took 1.2-1.4 s, and with the
deque pools and Counter-based checks before them 2.3-2.6 s).

The cover tests run the maximum-degree-4 path and cycle covers on 800
stacked random components (E = 10,143), check them with the independent
verifier and pin their digests.  Re-analysing all three forests after
every endpoint join did not finish one such cover in 28 minutes; the
incremental surgery takes 0.5-1.2 s on the same VM, and the budget is
10 s.  One more runs the path cover on a single connected graph, the xor
of two seeded Hamiltonian cycles on 10^5 vertices (E = 199,992), where
each stage walks the whole graph at once.  It took 5.1-6.5 s on the same
VM (8.7 s when every stage re-derived the components from edge tuples),
and its budget is 40 s.  The cycle cover of the same graph takes the
even-intersection route on its two crossing polycycles.  It took 3.9-4.2 s
in three runs on the same VM, and its budget is 40 s too.

The diameter test checks the exact diameters of (4, 4, 4) and (5, 3, 2)
that ``selftest`` asserts against a frozen copy of the item-coded BFS the
table search replaced (``test_oracles.item_diameter_bfs``).  The item
search takes most of its time: 3.8 to 4.1 s for (4, 4, 4) and 0.2 s for
(5, 3, 2) on the same VM.  Its budget is 30 s.

The exact cover test clears the cached part tables and runs ``oddcover
--exact --kind path`` on an 8-vertex graph whose optimum is 2 paths, so
the cold build of K_8's table (54,796 paths) is most of its time: 0.14 to
0.29 s on the same VM.  Its budget is 3 s.  Run the tier alone with
``pytest -m large``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

import pytest

from polyresolve.cli import main
from polyresolve.generators import random_delta4_eulerian_graph
from polyresolve.graphs import SimpleGraph, degrees, edge, edge_components, simple_graph
from polyresolve.jsonio import emit_cover, emit_graph, emit_resolution
from polyresolve.oddcover import check_cover, cycle_odd_cover_delta4, path_odd_cover_delta4
from polyresolve.oracles import _part_table, exact_diameter_bfs, verify_certificate
from polyresolve.perms import Partition, cdg, check_resolution, resolution_length_bound
from polyresolve.polycycles import directed_polycycle_decomposition
from polyresolve.resolve import resolve
from test_oracles import item_diameter_bfs

pytestmark = pytest.mark.large


def _equal_shape_pair(n: int, k: int, seed: int) -> tuple[Partition, Partition]:
    rng = random.Random(seed)
    base = [c for c in range(n) for _ in range(k)]
    left, right = base[:], base[:]
    rng.shuffle(left)
    rng.shuffle(right)
    return Partition(n, tuple(left)), Partition(n, tuple(right))


def _digest(r) -> str:
    return hashlib.sha256(json.dumps(emit_resolution(r)).encode()).hexdigest()


@pytest.mark.parametrize(
    "n, digest",
    [
        (3000, "5f3cd615864435047d58f46a693cb5bcd821c5bea33d6d06db4e8694e5492dd8"),
        (5000, "62a4d964fbf8708ab50a6bd22ba65eb0473e603ef059d10cc82f21dd87539451"),
    ],
)
def test_resolve_many_small_clusters(n, digest):
    # Clusters of 3 items: the matcher's augmenting paths run thousands of
    # vertices deep, past the interpreter's default recursion limit.
    p, q = _equal_shape_pair(n, 3, seed=1)
    r = resolve(p, q)
    assert check_resolution(p, q, r.taus) is None
    assert len(r.taus) <= resolution_length_bound(p.sizes())
    assert _digest(r) == digest


@pytest.mark.parametrize(
    "n, k, budget_s, digest",
    [
        # m = 30,000 and 4,068 steps
        (10, 3000, 10.0, "7a10a9cb37e16350a887f718a0a0a29120b0da9c35ab0993cf93a880cab22f24"),
        # m = 100,000 and 8 steps
        (20000, 5, 30.0, "465bdea003c0571b707cfb815970daf6d07c22a6b0e9e1ca85a899a4a6f89637"),
    ],
)
def test_resolve_and_verify_at_scale(n, k, budget_s, digest):
    p, q = _equal_shape_pair(n, k, seed=1)
    t0 = time.perf_counter()
    r = resolve(p, q)
    failure = check_resolution(p, q, r.taus)
    elapsed = time.perf_counter() - t0
    assert failure is None
    assert len(r.taus) <= resolution_length_bound(p.sizes())
    assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
    assert _digest(r) == digest


def test_polycycle_decomposition_at_scale():
    # The difference digraph of 50,000 clusters x 2 items: m = 100,000
    # arcs and t = 2, so both classes come from the walks on the residual
    # and no matching round runs.  The digest was re-recorded when that
    # split replaced the two Hopcroft-Karp rounds.
    p, q = _equal_shape_pair(50000, 2, seed=1)
    d = cdg(p, q)
    t0 = time.perf_counter()
    dec = directed_polycycle_decomposition(d, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    parts = [sorted(part) for part in dec.parts]
    blob = json.dumps({"parts": parts, "suffix": dec.cycle_suffix_len})
    assert (
        hashlib.sha256(blob.encode()).hexdigest()
        == "4e381e666a9a00973870eb8a1a11627154886be8d533b44afc13ad0728d686b7"
    )


@pytest.mark.parametrize(
    "cover, digest",
    [
        (path_odd_cover_delta4, "29b3f81f92073166fe82873b2e2c02ca36abd04ed00612f9cac9e16831b2ff43"),
        (cycle_odd_cover_delta4, "7236dc415e527b4bf01744368d1b3b9086bd6702a00b3300c4409a1daa2c61f0"),
    ],
)
def test_delta4_cover_at_scale(cover, digest):
    g = random_delta4_eulerian_graph(random.Random(1), components=800)
    assert g.m == 10143
    t0 = time.perf_counter()
    cert = cover(g)
    elapsed = time.perf_counter() - t0
    assert verify_certificate(g, cert).passed
    assert len(cert.parts) <= 3
    assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
    assert hashlib.sha256(json.dumps(emit_cover(cert)).encode()).hexdigest() == digest


def _two_hamiltonian_cycles() -> SimpleGraph:
    """The xor of two seeded Hamiltonian cycles on 10^5 vertices: one
    component, maximum degree 4 and 199,992 edges, so every stage of a
    cover runs on the whole graph at once."""
    rng = random.Random(1)
    n = 100_000
    edges: set = set()
    for _ in range(2):
        order = list(range(n))
        rng.shuffle(order)
        edges ^= {edge(order[i - 1], order[i]) for i in range(n)}
    g = simple_graph(n, edges)
    assert g.m == 199_992 and degrees(g).delta == 4
    assert len(edge_components(g.edges)) == 1
    return g


def test_delta4_path_cover_of_one_connected_graph_at_scale():
    g = _two_hamiltonian_cycles()
    t0 = time.perf_counter()
    cert = path_odd_cover_delta4(g)
    elapsed = time.perf_counter() - t0
    assert check_cover(g, cert) is None
    assert len(cert.parts) == 3
    assert elapsed < 40.0, f"took {elapsed:.2f}s, budget 40s"
    assert (
        hashlib.sha256(json.dumps(emit_cover(cert)).encode()).hexdigest()
        == "423ea144aa543651099c1046ea4afd6c36bcd4b7226fd886522ab4d31daa4a70"
    )


def test_delta4_cycle_cover_of_one_connected_graph_at_scale():
    # The same graph's two polycycles cross, so the cover takes the
    # even-intersection route and closes three forests into cycles.
    g = _two_hamiltonian_cycles()
    t0 = time.perf_counter()
    cert = cycle_odd_cover_delta4(g)
    elapsed = time.perf_counter() - t0
    assert check_cover(g, cert) is None
    assert len(cert.parts) == 3
    assert elapsed < 40.0, f"took {elapsed:.2f}s, budget 40s"
    assert (
        hashlib.sha256(json.dumps(emit_cover(cert)).encode()).hexdigest()
        == "ab9c3216a1381dd989ffdaf28a1f1f2fd15e151b5e3626c88c5c6616fb97aa1a"
    )


def test_exact_path_cover_builds_the_k8_table_cold(tmp_path, capsys):
    g = simple_graph(8, [(0, 1), (0, 3), (0, 6), (0, 7), (1, 3), (1, 4), (1, 6),
                         (2, 3), (2, 5), (3, 7), (4, 7), (5, 6), (6, 7)])
    path = tmp_path / "g8.json"
    path.write_text(json.dumps(emit_graph(g)))
    _part_table.cache_clear()
    t0 = time.perf_counter()
    rc = main(["oddcover", "--graph", str(path), "--exact", "--kind", "path"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["parts"]) == 2
    assert _part_table.cache_info().misses == 1
    assert len(_part_table(8, "path").parts) == 54_796
    assert elapsed < 3.0, f"took {elapsed:.2f}s, budget 3s"


def test_table_diameters_match_the_item_bfs():
    t0 = time.perf_counter()
    for shape, diameter in (((4, 4, 4), 4), ((5, 3, 2), 5)):
        assert exact_diameter_bfs(shape) == diameter
        assert item_diameter_bfs(shape) == diameter
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"
