"""The shipped acceptance suite: eleven exact checks, no tolerances.

Each check exercises one headline guarantee end to end — constructions
emit certificates, certificates are re-verified, and exact oracles
cross-check optimality wherever brute force is feasible.
``run_criterion`` times each check as a whole and fails it past its budget
in ``CRITERIA``.  ``run_acceptance`` returns one Report per check; the CLI
``selftest`` verb and the test suite both drive it.
"""

from __future__ import annotations

import random
import time
from itertools import combinations_with_replacement
from typing import Callable

from .generators import (
    random_delta4_eulerian_graph,
    random_delta4_graph,
    random_eulerian_graph,
    random_graph,
    random_instance,
    random_k2_instance,
)
from .graphs import degrees, edge_components, simple_graph
from .oddcover import (
    cycle_odd_cover_delta4,
    linear_forest_decomposition,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
)
from .oracles import (
    Report,
    exact_diameter_bfs,
    min_odd_cover_exhaustive,
    min_resolution_length,
    verify_certificate,
)
from .perms import (
    CycleSeq,
    Partition,
    Resolution,
    decomposition_from_resolution,
    resolution_from_decomposition,
    resolution_length_bound,
)
from .resolve import gen_lower_bound_instance, gen_pp36_instance, resolve

__all__ = ["run_acceptance", "CRITERIA"]


def _upper_bound_10k() -> str | None:
    rng = random.Random(101)
    for i in range(10_000):
        p, q = random_instance(rng, max_items=30, max_clusters=10)
        res = resolve(p, q)
        bound = resolution_length_bound(p.sizes())
        if len(res.taus) > bound:
            return f"instance {i}: length {len(res.taus)} exceeds bound {bound}"
        rep = verify_certificate((p, q), res)
        if not rep.passed:
            return f"instance {i}: {rep.detail}"
    return None


def _k2_bound_2k() -> str | None:
    rng = random.Random(102)
    for i in range(2_000):
        p, q = random_k2_instance(rng)
        res = resolve(p, q)
        if len(res.taus) > 3:
            return f"instance {i}: length {len(res.taus)} exceeds 3"
        rep = verify_certificate((p, q), res)
        if not rep.passed:
            return f"instance {i}: {rep.detail}"
    return None


def _exact_diameters() -> str | None:
    for shape, want in (((1, 1, 1, 1), 2), ((2, 2, 2, 2), 3), ((4, 4, 4), 4), ((5, 3, 2), 5)):
        got = exact_diameter_bfs(shape)
        if got != want:
            return f"diameter{shape} = {got}, want {want}"
    return None


def _lower_bound_grid() -> str | None:
    for n in range(4, 12):
        for shape in combinations_with_replacement((4, 3, 2, 1), n):
            inst = gen_lower_bound_instance(shape)
            displaced = sum(1 for a, b in zip(inst.p.assign, inst.q.assign) if a != b)
            denom = 3 * n if n % 2 == 0 else 3 * n + 1
            want = -(-4 * displaced // denom)
            if inst.bound != want:
                return f"shape {shape}: bound {inst.bound}, formula gives {want}"
            res = resolve(inst.p, inst.q)
            if len(res.taus) < inst.bound:
                return f"shape {shape}: resolve length {len(res.taus)} below bound {inst.bound}"
            rep = verify_certificate((inst.p, inst.q), res)
            if not rep.passed:
                return f"shape {shape}: {rep.detail}"
    return None


# The bidirectional table search for pp36 stores 341,722 tables when its
# two balls meet, more than the default cap of 100,000.
_PP36_CAP = 400_000


def _pp36_diameter() -> str | None:
    p, q = gen_pp36_instance()
    res = resolve(p, q)
    if len(res.taus) > 5:
        return f"resolve length {len(res.taus)} exceeds 5"
    rep = verify_certificate((p, q), res)
    if not rep.passed:
        return rep.detail
    got = min_resolution_length(p, q, cap=_PP36_CAP)
    if got != 5:
        return f"shortest resolution has length {got}, want 5"
    return None


def _delta4_covers() -> str | None:
    rng = random.Random(106)
    for i in range(500):
        g = random_delta4_eulerian_graph(rng, max_n=16)
        for kind, build in (("path", path_odd_cover_delta4), ("cycle", cycle_odd_cover_delta4)):
            cert = build(g)
            if len(cert.parts) > 3:
                return f"graph {i}: {kind} cover has {len(cert.parts)} parts"
            rep = verify_certificate(g, cert)
            if not rep.passed:
                return f"graph {i} ({kind}): {rep.detail}"
    return None


def _two_k5s() -> str | None:
    g = simple_graph(
        10,
        [(i, j) for i in range(5) for j in range(i + 1, 5)]
        + [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)],
    )
    cert = cycle_odd_cover_delta4(g)
    rep = verify_certificate(g, cert)
    if not rep.passed:
        return rep.detail
    if len(cert.parts) != 3:
        return f"cover has {len(cert.parts)} parts, want 3"
    if len(edge_components(g.edges)) != 2:
        return "two disjoint K5s are not two components"
    if g.m != 20 or g.m != degrees(g).delta * g.n // 2:
        return f"edge count {g.m}, want 20 = delta*n/2"
    return None


def _eulerian_bounds() -> str | None:
    rng = random.Random(108)
    for i in range(200):
        g = random_eulerian_graph(rng, layers=i % 4 + 1, max_n=12)
        d = degrees(g)
        dv = sorted(d.degrees, reverse=True)
        d1, d2 = dv[0], dv[1]
        for kind, bound in (
            ("path", (3 * d.delta + 3) // 4),
            ("cycle", d1 // 2 + (d2 + 3) // 4),
        ):
            cert = odd_cover_eulerian(g, kind)
            if len(cert.parts) > bound:
                return f"graph {i}: {kind} cover has {len(cert.parts)} parts, bound {bound}"
            rep = verify_certificate(g, cert)
            if not rep.passed:
                return f"graph {i} ({kind}): {rep.detail}"
    return None


def _general_path_covers() -> str | None:
    rng = random.Random(109)
    for i in range(500):
        g = random_graph(rng, max_n=14)
        cert = path_odd_cover_general(g)
        d = degrees(g)
        bound = d.v_odd // 2 + (3 * d.delta_e + 3) // 4
        if len(cert.parts) > bound:
            return f"graph {i}: cover has {len(cert.parts)} parts, bound {bound}"
        rep = verify_certificate(g, cert)
        if not rep.passed:
            return f"graph {i}: {rep.detail}"
        if g.n <= 7:
            opt = min_odd_cover_exhaustive(g, "path", max(len(cert.parts), 1))
            if opt is None:
                return f"graph {i}: constructive cover beats the exhaustive optimum"
            trivial = max(d.v_odd // 2, (d.delta + 1) // 2)
            if opt < trivial:
                return f"graph {i}: optimum {opt} below trivial bound {trivial}"
            if len(cert.parts) < opt:
                return f"graph {i}: cover of {len(cert.parts)} parts beats optimum {opt}"
    return None


def _linear_arboricity() -> str | None:
    rng = random.Random(110)
    for i in range(200):
        g = random_delta4_graph(rng)
        cert = linear_forest_decomposition(g)
        rep = verify_certificate(g, cert)
        if not rep.passed:
            return f"graph {i}: {rep.detail}"
    return None


def _random_partition(rng: random.Random) -> Partition:
    n = rng.randint(2, 6)
    m = rng.randint(n, 12)
    assign = list(range(n)) + [rng.randrange(n) for _ in range(m - n)]
    rng.shuffle(assign)
    return Partition(n, tuple(assign))


def _random_p_cycle(rng: random.Random, p: Partition) -> CycleSeq:
    by_cluster: dict[int, list[int]] = {}
    for x in range(p.m):
        by_cluster.setdefault(p(x), []).append(x)
    r = rng.randint(2, len(by_cluster))
    clusters = rng.sample(sorted(by_cluster), r)
    return CycleSeq(tuple(rng.choice(by_cluster[c]) for c in clusters))


def _round_trips() -> str | None:
    rng = random.Random(111)
    for i in range(500):
        p = _random_partition(rng)
        cur = p
        taus = []
        for _ in range(rng.randint(0, 4)):
            tau = _random_p_cycle(rng, cur)
            taus.append(tau)
            cur = cur.apply(tau)
        res = Resolution(p, tuple(taus))
        back = resolution_from_decomposition(p, decomposition_from_resolution(res))
        if back != res:
            return f"trip {i}: resolution round-trip differs"
    for i in range(500):
        p = _random_partition(rng)
        sigmas = [_random_p_cycle(rng, p) for _ in range(rng.randint(0, 4))]
        again = decomposition_from_resolution(resolution_from_decomposition(p, sigmas))
        if again != sigmas:
            return f"trip {i}: decomposition round-trip differs"
    return None


# Each criterion with its wall-clock budget in seconds, or None.
CRITERIA: tuple[tuple[str, Callable[[], str | None], int | None], ...] = (
    ("upper-bound-10k", _upper_bound_10k, 30),
    ("k2-bound-2k", _k2_bound_2k, None),
    ("exact-diameters", _exact_diameters, 10),
    ("lower-bound-grid", _lower_bound_grid, None),
    ("pp36-diameter-5", _pp36_diameter, 600),
    ("delta4-odd-covers", _delta4_covers, 60),
    ("two-k5-cycle-cover", _two_k5s, None),
    ("eulerian-bounds", _eulerian_bounds, None),
    ("general-path-covers", _general_path_covers, None),
    ("linear-arboricity", _linear_arboricity, None),
    ("decomposition-round-trip", _round_trips, None),
)


def run_criterion(name: str) -> Report:
    """Run one named criterion, timed as a whole against its budget, and
    wrap the outcome in a Report."""
    fn, budget = {key: (fn, budget) for key, fn, budget in CRITERIA}[name]
    t0 = time.perf_counter()
    try:
        detail = fn()
    except Exception as exc:  # noqa: BLE001 - the suite reports, never raises
        detail = f"crashed: {exc!r}"
    elapsed = time.perf_counter() - t0
    if detail is None and budget is not None and elapsed >= budget:
        detail = f"took {elapsed:.1f}s, budget is {budget}s"
    return Report(name, detail is None, detail or "ok", int(elapsed * 1000))


def run_acceptance() -> list[Report]:
    """Run all acceptance checks in order; one Report each."""
    return [run_criterion(name) for name, _, _ in CRITERIA]
