"""The steps ``resolve`` emits, pinned by a digest over a fixed seeded set.

The set covers wide instances (10 clusters x 50 items), many small clusters
(1500 x 2), the package's random generators, both lower-bound families and
pp36.  A change that moves any single step of any walk changes the digest,
so a refactor of the construction that passes this test emits exactly the
same certificates.
"""

from __future__ import annotations

import hashlib
import json
import random

from polyresolve.generators import random_instance, random_k2_instance
from polyresolve.jsonio import emit_resolution
from polyresolve.perms import Partition
from polyresolve.resolve import gen_lower_bound_instance, gen_pp36_instance, resolve

PINNED = "6936e9b7556ba7ea672df699ec55a1067ca8522a7aa7c53eff0a54e584442e61"


def _equal_shape_pair(rng: random.Random, sizes: list[int]) -> tuple[Partition, Partition]:
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    p, q = base[:], base[:]
    rng.shuffle(p)
    rng.shuffle(q)
    return Partition(len(sizes), tuple(p)), Partition(len(sizes), tuple(q))


def pinned_instances():
    rng = random.Random(20250716)
    for _ in range(4):
        yield _equal_shape_pair(rng, [50] * 10)
    for _ in range(3):
        yield _equal_shape_pair(rng, [2] * 1500)
    for _ in range(300):
        yield random_instance(rng)
    for _ in range(300):
        yield random_k2_instance(rng)
    for shape in ((4, 3, 2, 1), (3, 3, 2, 2), (6, 5, 5, 3, 2, 2), (3, 3, 2, 2, 1), (5, 4, 4, 2, 1), (7, 6, 4, 4, 3, 2, 1)):
        inst = gen_lower_bound_instance(shape)
        yield inst.p, inst.q
    yield gen_pp36_instance()


def steps_digest() -> str:
    h = hashlib.sha256()
    for p, q in pinned_instances():
        h.update(json.dumps(emit_resolution(resolve(p, q))).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_resolve_steps_are_pinned():
    assert steps_digest() == PINNED
