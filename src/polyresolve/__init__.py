"""Certified short edge-walks between partition-polytope vertices and
certified small path/cycle odd-covers of graphs.

Constructions always emit replayable certificates; independent brute-force
oracles (`polyresolve.oracles`) re-derive the small cases so every bound
can be cross-checked.  The package root holds the names the README and the
demos use; everything else is imported from its module.  See the README
for the command-line surface.
"""

from .graphs import SubgraphShape, classify, degrees, simple_graph
from .oddcover import (
    cycle_odd_cover_delta4,
    linear_forest_decomposition,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
)
from .oracles import (
    exact_diameter_bfs,
    min_odd_cover_exhaustive,
    min_resolution_length,
    verify_certificate,
)
from .perms import verify_resolution
from .resolve import gen_lower_bound_instance, gen_pp36_instance, resolve
