"""
Odd covers of a graph by few paths or cycles
============================================

An odd cover is a family of subgraphs whose edge-wise symmetric difference
is the whole graph: each edge must appear in an odd number of parts.  This
script covers complete graphs with paths and cycles, checks the counts
against exhaustive minima, and verifies every certificate independently.
"""

from polyresolve import (
    cycle_odd_cover_delta4,
    degrees,
    min_odd_cover_exhaustive,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
    simple_graph,
    verify_certificate,
)
from polyresolve.oracles import tight_path_odd_cover


def complete(n):
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# K5 is 4-regular, so the Eulerian constructions apply: three parts always
# suffice, and the certificate checker confirms the xor equals the graph.
k5 = complete(5)
paths = path_odd_cover_delta4(k5)
cycles = cycle_odd_cover_delta4(k5)
print("K5:", len(paths.parts), "paths /", len(cycles.parts), "cycles")
for cert in (paths, cycles):
    report = verify_certificate(k5, cert)
    assert report.passed, report.detail
    print("  verified", cert.kind, "cover in", report.elapsed_ms, "ms")

# The exhaustive oracle enumerates all path/cycle subgraphs as bitmasks and
# proves the true minima: K5 needs 2 cycles (two Hamiltonian cycles) but
# the degree-4 construction is allowed to use 3.
print("K5 exact minima:", min_odd_cover_exhaustive(k5, "path", 3), "paths /",
      min_odd_cover_exhaustive(k5, "cycle", 3), "cycles")

# K7 is 6-regular; the Eulerian splitting gives Delta/2 cycle layers and
# the path bound (3*Delta + 3) // 4 = 5.
k7 = complete(7)
print("K7:", len(odd_cover_eulerian(k7, "path").parts), "paths (bound 5),",
      len(odd_cover_eulerian(k7, "cycle").parts), "cycles (bound 5)")
print("K7 exact minima:", min_odd_cover_exhaustive(k7, "path", 5), "paths /",
      min_odd_cover_exhaustive(k7, "cycle", 5), "cycles")

# General graphs (odd degrees allowed) first pair up odd vertices with
# paths, then cover the remaining Eulerian graph.
star = simple_graph(4, [(0, 1), (0, 2), (0, 3)])
weak = path_odd_cover_general(star)
tight = tight_path_odd_cover(star)
print("3-star:", len(weak.parts), "paths weak,", len(tight.parts), "tight,",
      min_odd_cover_exhaustive(star, "path", 4), "optimal")

# A cycle cover can only exist when every degree is even.
p3 = simple_graph(3, [(0, 1), (1, 2)])
assert degrees(p3).v_odd == 2
assert min_odd_cover_exhaustive(p3, "cycle", 4) is None
print("P3 has odd vertices: no cycle cover exists, as the oracle confirms")
