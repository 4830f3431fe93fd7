"""The four benchmark workloads: seeded inputs, one operation, and its check.

Inputs are made here, from the benchmark's own generators, so a change to
``polyresolve.generators`` cannot move them; the distributions follow the
package's generators of the same names.  The program sees only the JSON
files written from them.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from typing import Callable

import check

# The benchmark calls the package through these module objects at call time,
# so the traced run's rebound attributes take effect.
cli = importlib.import_module("polyresolve.cli")
jsonio = importlib.import_module("polyresolve.jsonio")
oddcover = importlib.import_module("polyresolve.oddcover")
oracles = importlib.import_module("polyresolve.oracles")
resolve_mod = importlib.import_module("polyresolve.resolve")


class OpFailed(Exception):
    """The program ran but reported failure (non-zero exit or failed self-check)."""


# ---------------------------------------------------------------- inputs


def _equal_shape_pair(rng: random.Random, sizes: list[int]) -> dict:
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    p, q = base[:], base[:]
    while p == q:
        rng.shuffle(p)
        rng.shuffle(q)
    return {"m": len(base), "n": len(sizes), "p": p, "p_prime": q}


def _delta4_eulerian(rng: random.Random, max_n: int = 16) -> tuple[int, set]:
    """Xor of two random cycles with maximum degree exactly 4
    (as ``generators.random_delta4_eulerian_graph``)."""
    while True:
        n = rng.randint(5, max_n)
        acc: set = set()
        for _ in range(2):
            length = rng.randint(3, n)
            verts = rng.sample(range(n), length)
            acc ^= {tuple(sorted((verts[i], verts[(i + 1) % length]))) for i in range(length)}
        deg = [0] * n
        for u, v in acc:
            deg[u] += 1
            deg[v] += 1
        if acc and max(deg) == 4:
            return n, acc


def _delta4(rng: random.Random, max_n: int = 14) -> tuple[int, set]:
    """Random edges capped greedily at degree 4 (as ``generators.random_delta4_graph``)."""
    n = rng.randint(2, max_n)
    deg = [0] * n
    chosen = set()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    budget = rng.randint(0, 2 * n)
    for u, v in pairs:
        if len(chosen) >= budget:
            break
        if deg[u] < 4 and deg[v] < 4:
            chosen.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return n, chosen


def _small_graph(rng: random.Random, n: int) -> set:
    """Non-empty random graph on ``n >= 2`` vertices, of random density
    (as ``generators.random_graph``)."""
    while True:
        prob = rng.uniform(0.15, 0.6)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob}
        if edges:
            return edges


def _stacked(rng: random.Random, component, count: int) -> dict:
    """Disjoint union of ``count`` random components."""
    offset, edges = 0, []
    for _ in range(count):
        n, comp = component(rng)
        edges.extend([u + offset, v + offset] for u, v in sorted(comp))
        offset += n
    return {"n": offset, "edges": edges}


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: str
    # Ops per second of --seconds: a run has seconds * rate ops.  Untraced,
    # they take 0.7 to 1.0 times --seconds on a 2-vCPU x86-64 VM with
    # CPython 3.11, depending on how busy the host is.
    rate: float
    make_input: Callable[[random.Random, int], dict]
    # (op index, input file, output file) -> the result, or None when the
    # program wrote it to the output file
    run: Callable[[int, str, str], object]
    # (input, result, op index) -> (reason or None, certificate size, its bound)
    check: Callable[[dict, object, int], tuple[str | None, int, int]]


def _cli(argv: list[str]) -> None:
    """Run one CLI verb in-process; it writes its output to the ``--out`` file."""
    code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"exit code {code}")


def _resolve_run(i: int, inp: str, out: str) -> None:
    _cli(["resolve", "--instance", inp, "--out", out])


def _resolve_check(inp: dict, out, i: int) -> tuple[str | None, int, int]:
    if not isinstance(out, dict) or out.get("type") != "resolution":
        return "output is not a resolution", 0, 0
    taus = out["taus"]
    reason = check.check_resolution(inp["p"], inp["p_prime"], inp["n"], taus)
    return reason, len(taus), check.resolution_bound(inp["p"], inp["n"])


# cover-delta4 rotates three verbs, one per op; op i uses COVER_VERBS[i % 3].
COVER_VERBS = ("path", "cycle", "arboricity")
COVER_COMPONENTS = 12


def _cover_input(rng: random.Random, i: int) -> dict:
    verb = COVER_VERBS[i % 3]
    component = _delta4 if verb == "arboricity" else _delta4_eulerian
    return _stacked(rng, component, COVER_COMPONENTS)


def _cover_run(i: int, inp: str, out: str) -> None:
    verb = COVER_VERBS[i % 3]
    if verb == "arboricity":
        _cli(["arboricity", "--graph", inp, "--out", out])
    else:
        _cli(["oddcover", "--graph", inp, "--kind", verb, "--out", out])


def _cover_check(inp: dict, out, i: int) -> tuple[str | None, int, int]:
    if not isinstance(out, dict):
        return "output is not a JSON object", 0, 3
    verb = COVER_VERBS[i % 3]
    if verb == "arboricity":
        reason = check.check_forests(inp, out)
    else:
        reason = check.check_cover(inp, out, verb, max_parts=3)
    parts = sum(1 for part in out.get("parts", ()) if part)
    return reason, parts, 3


CROSSCHECK_SHAPES = ((3, 3, 1, 1), (3, 2, 2, 1), (2, 2, 2, 2))
CROSSCHECK_ORDERS = (2, 3, 4, 5, 6, 7)


def _crosscheck_input(rng: random.Random, i: int) -> dict:
    # One pair of each shape (searches of 1120, 1680 and 2520 states) and
    # one graph, whose order rotates rather than being drawn: the
    # exhaustive search's cost grows about 8x per vertex from 5 on.  So
    # every run holds the same mix of sizes, and each op's time is a sum
    # of four searches rather than one widely spread search.  The order
    # changes every second op, so a traced run's traced and untraced
    # halves (odd and even ops) both see every order.
    n = CROSSCHECK_ORDERS[i // 2 % len(CROSSCHECK_ORDERS)]
    edges = _small_graph(rng, n)
    return {
        "instances": [_equal_shape_pair(rng, list(shape)) for shape in CROSSCHECK_SHAPES],
        "graph": {"n": n, "edges": [list(e) for e in sorted(edges)]},
    }


def _crosscheck_run(i: int, inp: str, out: str) -> tuple:
    with open(inp) as fh:
        data = json.load(fh)
    resolutions = []
    for instance in data["instances"]:
        p, q = jsonio.parse_instance(instance)
        res = resolve_mod.resolve(p, q)
        if not oracles.verify_certificate((p, q), res).passed:
            raise OpFailed("resolution failed its own verification")
        resolutions.append((res, oracles.min_resolution_length(p, q)))
    g = jsonio.parse_graph(data["graph"])
    cover = oddcover.path_odd_cover_general(g)
    if not oracles.verify_certificate(g, cover).passed:
        raise OpFailed("cover failed its own verification")
    smallest = oracles.min_odd_cover_exhaustive(g, "path", len(cover.parts))
    return resolutions, cover, smallest


def _crosscheck_check(inp: dict, out, i: int) -> tuple[str | None, int, int]:
    resolutions, cover, smallest = out
    reason, size, optimum = None, 0, 0
    for inst, (res, shortest) in zip(inp["instances"], resolutions):
        taus = [list(t.items) for t in res.taus]
        reason = reason or check.check_resolution(inst["p"], inst["p_prime"], inst["n"], taus)
        if len(taus) < shortest:
            reason = reason or "resolution beats the exact optimum"
        size += len(taus)
        optimum += shortest
    parts = [sorted(part) for part in cover.parts]
    reason = reason or check.check_cover(
        inp["graph"], {"type": "odd_cover", "kind": "path", "parts": parts}, "path", None
    )
    if smallest is None:
        reason = reason or "exhaustive search found no cover within the constructed size"
    elif len(parts) < smallest:
        reason = reason or "cover beats the exact optimum"
    return reason, size + len(parts), optimum + (smallest or 0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "resolve-wide", "10 clusters x 50 items (m=500)", 10.0,
            lambda rng, i: _equal_shape_pair(rng, [50] * 10), _resolve_run, _resolve_check,
        ),
        Workload(
            "resolve-many", "1500 clusters x 2 items (m=3000)", 13.0,
            lambda rng, i: _equal_shape_pair(rng, [2] * 1500), _resolve_run, _resolve_check,
        ),
        Workload(
            "cover-delta4",
            f"{COVER_COMPONENTS} stacked components; verbs {'/'.join(COVER_VERBS)} in turn",
            16.0, _cover_input, _cover_run, _cover_check,
        ),
        Workload(
            "oracle-crosscheck",
            "one pair each of shapes " + " ".join(",".join(map(str, s)) for s in CROSSCHECK_SHAPES)
            + "; one graph on " + "/".join(map(str, CROSSCHECK_ORDERS)) + " vertices in turn",
            14.0, _crosscheck_input, _crosscheck_run, _crosscheck_check,
        ),
    )
}
