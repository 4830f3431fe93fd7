"""
Polytope diameters and provably hard instances
==============================================

The partitions of a fixed shape form the vertices of a polytope whose
edges are single cyclic exchanges.  This script compares exact diameters,
found by breadth-first search over contingency tables, with the
constructive bound k1 + ceil(k2/2) and the paper's headline bound
ceil(3K/2) on every shape of at most 4 clusters and 12 items within the
default search cap, then generates instances whose shortest resolutions
provably approach the bound.
"""

from polyresolve import (
    exact_diameter_bfs,
    gen_lower_bound_instance,
    min_resolution_length,
    resolve,
)
from polyresolve.errors import TooLarge
from polyresolve.perms import resolution_length_bound


def shapes(items, clusters, largest):
    """Every shape of ``items`` items in at most ``clusters`` clusters of
    at most ``largest`` items, sizes in descending order."""
    if items == 0:
        yield ()
        return
    if clusters == 0:
        return
    for k in range(min(items, largest), 0, -1):
        for rest in shapes(items - k, clusters - 1, k):
            yield (k,) + rest


# The search runs from one vertex: item relabeling is vertex-transitive.
# Its states are the contingency tables against that vertex, so shapes far
# beyond a search over item assignments are in reach.
print("shape              exact  k1+ceil(k2/2)  ceil(3K/2)")
skipped = 0
for m in range(1, 13):
    for shape in shapes(m, 4, m):
        try:
            exact = exact_diameter_bfs(shape)
        except TooLarge:  # more vertices than the default cap
            skipped += 1
            continue
        bound = resolution_length_bound(shape)
        headline = (3 * shape[0] + 1) // 2
        assert exact <= bound <= headline
        print(f"{str(shape):18} {exact:5}  {bound:13}  {headline:10}")
print(f"({skipped} shapes have more vertices than the cap)")

# The hard family pairs clusters off and swaps their contents wholesale.
# Each instance carries its own certified lower bound.
print("\nhard instances:")
for shape in ((2, 2, 2, 2), (3, 3, 2, 2), (2, 2, 2, 1, 1)):
    inst = gen_lower_bound_instance(shape)
    res = resolve(inst.p, inst.q)
    line = (f"shape {shape}: family {inst.family}, "
            f"lower bound {inst.bound}, constructed {len(res.taus)}")
    if sum(shape) <= 10:
        exact = min_resolution_length(inst.p, inst.q)
        line += f", exact {exact}"
        assert inst.bound <= exact <= len(res.taus)
    print(line)
