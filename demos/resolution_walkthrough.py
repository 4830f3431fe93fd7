"""
Building a certified short resolution, step by step
===================================================

A resolution walks between two partitions of the same items by cyclic
exchanges that never pass through a cluster twice.  This script builds the
18-item instance whose resolutions provably need 5 moves, certifies the
lower bound, constructs a matching 5-move walk, and replays it.
"""

from polyresolve import (
    gen_lower_bound_instance,
    gen_pp36_instance,
    resolve,
    verify_resolution,
)
from polyresolve.dot import emit_dot
from polyresolve.perms import CycleSeq, cycle_is_p_cycle

# The instance: six clusters of three items, paired off so that every item
# must cross to its partner cluster.
p, q = gen_pp36_instance()
print("start :", p.assign)
print("target:", q.assign)

# Every one of the 18 items is displaced and needs 2 progress units (leave
# the source, reach the target); a single exchange gains at most 9 units,
# so ceil(2*18 / 9) = 4 moves are necessary.  The hard family's instance of
# shape (3, 3, 3, 3, 3, 3) is this one up to the labels of clusters and
# items, and carries that bound.
print("progress lower bound:", gen_lower_bound_instance((3,) * 6).bound)

# The best possible opening move takes one item from each cluster around a
# six-cluster circuit: three items land straight in their targets (whole
# moves) and three make half a move each, for the maximum gain of 9.  Every
# item of the move leaves its source, so it makes a whole move exactly when
# it reaches its target.
opening = CycleSeq((0, 9, 3, 12, 6, 15))
assert cycle_is_p_cycle(opening, p)
after = p.apply(opening)
whole = sum(after(x) == q(x) for x in opening.items)
half = len(opening) - whole
gain = 2 * whole + half
assert (whole, half, gain) == (3, 3, 9)
print(f"opening move {opening.items} -> {whole} whole moves, {half} half moves, gain {gain}")

# A breadth-first search over the contingency tables of the instance shows
# no 4-move resolution exists (that is the expensive certified fact behind
# the "5", checked by `polyresolve selftest`); here we just build the 5-move
# walk the constructive bound guarantees.
res = resolve(p, q)
print(f"constructed resolution with {len(res.taus)} moves:")
for i, tau in enumerate(res.taus):
    print(f"  move {i}: cycle {tau.items}")

# Replay the walk one partition at a time and check it independently.
states = res.replay()
assert states[0] == p and states[-1] == q
assert verify_resolution(p, q, res.taus)
print("replayed", len(states) - 1, "steps; end state matches the target")

# The DOT rendering draws each move as colored arcs between cluster boxes.
print("\nGraphviz preview (first lines):")
print("\n".join(emit_dot(res).splitlines()[:9]))
