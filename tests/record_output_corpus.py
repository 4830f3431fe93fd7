"""Record the output corpus: the bytes a fixed set of calls writes.

Run from the repository root, after a change that is meant to move them:

    PYTHONPATH=src:tests python3 tests/record_output_corpus.py

It writes ``tests/output_corpus.json``: the size in bytes of each call's
output, by call name, and one SHA-256 over every output in call order.  On
stderr it lists each call whose size changed against the file it replaces,
grown calls first, with the counts of grown, shrunk, new and gone calls.
``test_output_corpus.py`` makes the calls again and checks them against
that file.  The calls come in named groups, in this order:

- ``atlas``: every atlas graph through ``path_odd_cover_general``, even
  ones through ``odd_cover_eulerian`` (both kinds), and those of maximum
  degree at most 4 through ``linear_forest_decomposition``;
- ``stack``: seeded 12-component maximum-degree-4 graphs through the
  CLI's ``oddcover`` and ``arboricity``, with and without one edge;
- ``interlocked union`` and ``swapped route``: the two named 4-regular
  graphs of ``test_oddcover.py`` through every cover;
- ``resolve``: resolutions of seeded, lower-bound and pp36 instances, with
  their DOT renderings;
- ``gen`` and ``lowerbound``: every family and shape through the CLI, with
  DOT and ``--show-loops``;
- ``walk``: the steps of ``resolve`` on 10 x 50 and 1500 x 2 pairs, 300
  ``random_instance`` and 300 ``random_k2_instance`` draws, six
  lower-bound shapes and pp36;
- ``cover``: ``path_odd_cover_delta4`` and ``cycle_odd_cover_delta4`` on
  1, 2, 3, 12 and 24 stacked components, ``odd_cover_eulerian`` at maximum
  degree 6 and 8, ``path_odd_cover_general`` and
  ``linear_forest_decomposition`` of seeded graphs;
- ``search``: on graphs of 2 to 7 vertices, ``tight_path_odd_cover`` and
  the parts ``exact_odd_cover`` finds for paths and for cycles;
- ``resolution dot``: the DOT text of seeded walks of 6 x 40 and 30 x 3
  items;
- ``even8``: ``odd_cover_eulerian``, both kinds, on each of the 242 even
  graphs on 8 vertices with an edge (``test_exhaustive_small.py``).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from collections.abc import Iterator
from pathlib import Path

import networkx as nx

from polyresolve.cli import main
from polyresolve.dot import emit_dot
from polyresolve.generators import (
    random_delta4_eulerian_graph,
    random_delta4_graph,
    random_eulerian_graph,
    random_graph,
    random_instance,
    random_k2_instance,
)
from polyresolve.graphs import SimpleGraph, degrees, edge, simple_graph
from polyresolve.jsonio import emit_cover, emit_graph, emit_resolution
from polyresolve.oddcover import (
    cycle_odd_cover_delta4,
    linear_forest_decomposition,
    odd_cover_eulerian,
    path_odd_cover_delta4,
    path_odd_cover_general,
)
from polyresolve.oracles import exact_odd_cover, tight_path_odd_cover
from polyresolve.perms import Partition
from polyresolve.resolve import gen_lower_bound_instance, gen_pp36_instance, resolve
from test_exhaustive_small import _even_graphs_on_8
from test_oddcover import H1, H2, SWAPPED_ROUTE

CORPUS = Path(__file__).with_name("output_corpus.json")

LOWER_BOUND_SHAPES = ("2,2,2,2", "3,3,2,2", "4,3,2,1", "3,3,3,3,3", "4,4,3,2,2,1", "5,4,4,3,3,2,1")
WALK_SHAPES = ((4, 3, 2, 1), (3, 3, 2, 2), (6, 5, 5, 3, 2, 2), (3, 3, 2, 2, 1), (5, 4, 4, 2, 1), (7, 6, 4, 4, 3, 2, 1))
INSTANCE_FAMILIES = ("random", "k2", "pp36")
GRAPH_FAMILIES = ("graph", "eulerian", "delta4")


def _cover(cert) -> bytes:
    return json.dumps(emit_cover(cert)).encode()


def _cli(argv: list[str], workdir: Path) -> bytes:
    """The bytes ``cli.main(argv)`` writes to ``--out``, then to ``--dot``."""
    out, dot = workdir / "out.json", workdir / "out.dot"
    code = main([*argv, "--out", str(out), "--dot", str(dot)])
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return out.read_bytes() + dot.read_bytes()


def _graph_file(g: SimpleGraph, workdir: Path) -> str:
    path = workdir / "graph.json"
    path.write_text(json.dumps(emit_graph(g)))
    return str(path)


def _equal_shape_pair(rng: random.Random, sizes: list[int]) -> tuple[Partition, Partition]:
    base = [c for c, k in enumerate(sizes) for _ in range(k)]
    p, q = base[:], base[:]
    rng.shuffle(p)
    rng.shuffle(q)
    return Partition(len(sizes), tuple(p)), Partition(len(sizes), tuple(q))


def _walk_pairs() -> Iterator[tuple[str, tuple[Partition, Partition]]]:
    rng = random.Random(20250716)
    for i in range(4):
        yield f"10x50 {i}", _equal_shape_pair(rng, [50] * 10)
    for i in range(3):
        yield f"1500x2 {i}", _equal_shape_pair(rng, [2] * 1500)
    for i in range(300):
        yield f"random {i}", random_instance(rng)
    for i in range(300):
        yield f"k2 {i}", random_k2_instance(rng)
    for shape in WALK_SHAPES:
        inst = gen_lower_bound_instance(shape)
        yield f"lower bound {','.join(map(str, shape))}", (inst.p, inst.q)
    yield "pp36", gen_pp36_instance()


def _covers() -> Iterator[tuple[str, bytes]]:
    rng = random.Random(20251018)
    for count, draws in ((1, 60), (2, 30), (3, 20), (12, 4), (24, 2)):
        for i in range(draws):
            g = random_delta4_eulerian_graph(rng, components=count)
            yield f"cover delta4 {count}x{i} path", _cover(path_odd_cover_delta4(g))
            yield f"cover delta4 {count}x{i} cycle", _cover(cycle_odd_cover_delta4(g))
    for layers in (3, 4):
        for i in range(15):
            g = random_eulerian_graph(rng, layers, max_n=14)
            yield f"cover eulerian {layers} layers {i} path", _cover(odd_cover_eulerian(g, "path"))
            yield f"cover eulerian {layers} layers {i} cycle", _cover(odd_cover_eulerian(g, "cycle"))
    for i in range(40):
        yield f"cover general {i}", _cover(path_odd_cover_general(random_graph(rng)))
    for i in range(40):
        yield f"cover forests {i}", _cover(linear_forest_decomposition(random_delta4_graph(rng)))


def _search_graph(rng: random.Random) -> SimpleGraph:
    n = rng.randint(2, 7)
    prob = rng.uniform(0.2, 0.7)
    return simple_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < prob])


def _search_eulerian(rng: random.Random) -> SimpleGraph:
    """Xor of one to three random cycles on 3 to 7 vertices."""
    n = rng.randint(3, 7)
    edges: set = set()
    for _ in range(rng.randint(1, 3)):
        verts = rng.sample(range(n), rng.randint(3, n))
        edges ^= {edge(verts[i - 1], verts[i]) for i in range(len(verts))}
    return simple_graph(n, edges)


def _parts(parts) -> list | None:
    return None if parts is None else [sorted(part) for part in parts]


def _searches() -> Iterator[tuple[str, bytes]]:
    """The exact searches within the constructive covers' sizes (``None``
    when there is no cover, as for cycles of a graph with odd degrees)."""
    rng = random.Random(20261018)
    graphs = [(f"graph {i}", _search_graph(rng)) for i in range(36)]
    graphs += [(f"eulerian {i}", _search_eulerian(rng)) for i in range(24)]
    for name, g in graphs:
        found = {
            "graph": sorted(g.edges),
            "tight": _parts(tight_path_odd_cover(g).parts),
            "path": _parts(exact_odd_cover(g, "path", len(path_odd_cover_general(g).parts))),
            "cycle": _parts(exact_odd_cover(g, "cycle", 3)),
        }
        yield f"search {name}", json.dumps(found).encode()


def _resolution_dots() -> Iterator[tuple[str, bytes]]:
    rng = random.Random(20251018)
    for n, k in ((6, 40), (30, 3)):
        p, q = _equal_shape_pair(rng, [k] * n)
        yield f"resolution dot {n}x{k}", emit_dot(resolve(p, q)).encode()


def calls(workdir: Path) -> Iterator[tuple[str, bytes]]:
    """Each call's name and output, in a fixed order."""
    for i, atlas in enumerate(nx.graph_atlas_g()):
        g = simple_graph(atlas.number_of_nodes(), atlas.edges())
        summary = degrees(g)
        yield f"atlas {i} general", _cover(path_odd_cover_general(g))
        if not summary.v_odd:
            for kind in ("path", "cycle"):
                yield f"atlas {i} eulerian {kind}", _cover(odd_cover_eulerian(g, kind))
        if summary.delta <= 4:
            yield f"atlas {i} forests", _cover(linear_forest_decomposition(g))

    rng = random.Random(20261020)
    for i in range(20):
        g = random_delta4_eulerian_graph(rng, components=12)
        for label, h in (("", g), (" less one edge", SimpleGraph(g.n, g.edges - {min(g.edges)}))):
            path = _graph_file(h, workdir)
            for kind in ("path", "cycle") if h is g else ("path",):
                yield f"stack {i}{label} oddcover {kind}", _cli(
                    ["oddcover", "--graph", path, "--kind", kind], workdir)
            yield f"stack {i}{label} arboricity", _cli(["arboricity", "--graph", path], workdir)

    for name, g in (("interlocked union", simple_graph(8, H1 + H2)), ("swapped route", SWAPPED_ROUTE)):
        yield f"{name} general", _cover(path_odd_cover_general(g))
        for kind in ("path", "cycle"):
            yield f"{name} eulerian {kind}", _cover(odd_cover_eulerian(g, kind))
        yield f"{name} forests", _cover(linear_forest_decomposition(g))

    pairs = [(f"random {seed}", random_instance(random.Random(seed))) for seed in range(30)]
    pairs += [(f"k2 {seed}", random_k2_instance(random.Random(seed))) for seed in range(30)]
    for shape in LOWER_BOUND_SHAPES:
        inst = gen_lower_bound_instance(tuple(map(int, shape.split(","))))
        pairs.append((f"lower bound {shape}", (inst.p, inst.q)))
    pairs.append(("pp36", gen_pp36_instance()))
    for name, (p, q) in pairs:
        res = resolve(p, q)
        yield f"resolve {name}", json.dumps(emit_resolution(res)).encode() + emit_dot(res).encode()

    for family in INSTANCE_FAMILIES + GRAPH_FAMILIES:
        for seed in range(1 if family == "pp36" else 5):
            argv = ["gen", "--family", family, "--seed", str(seed)]
            yield f"gen {family} {seed}", _cli(argv, workdir)
            if family in INSTANCE_FAMILIES:
                yield f"gen {family} {seed} loops", _cli([*argv, "--show-loops"], workdir)
    for shape in LOWER_BOUND_SHAPES:
        yield f"lowerbound {shape}", _cli(["lowerbound", "--shape", shape], workdir)
        yield f"lowerbound {shape} loops", _cli(["lowerbound", "--shape", shape, "--show-loops"], workdir)

    for name, (p, q) in _walk_pairs():
        yield f"walk {name}", json.dumps(emit_resolution(resolve(p, q))).encode()
    yield from _covers()
    yield from _searches()
    yield from _resolution_dots()
    for i, h in enumerate(_even_graphs_on_8()):
        if h.number_of_edges():
            g = simple_graph(8, h.edges())
            for kind in ("path", "cycle"):
                yield f"even8 {i} eulerian {kind}", _cover(odd_cover_eulerian(g, kind))


def record(workdir: Path) -> dict:
    """The corpus as ``output_corpus.json`` holds it."""
    digest = hashlib.sha256()
    sizes = {}
    for name, output in calls(workdir):
        if name in sizes:
            raise RuntimeError(f"two calls are named {name!r}")
        digest.update(name.encode() + b"\n" + output)
        sizes[name] = len(output)
    return {"sha256": digest.hexdigest(), "sizes": sizes}


def size_changes(old: dict[str, int], new: dict[str, int]) -> list[str]:
    """A line per call whose size differs from ``old`` to ``new``, grown
    calls first, then a line with the counts of grown, shrunk, new and gone
    calls."""
    grown = [name for name, size in new.items() if size > old.get(name, size)]
    shrunk = [name for name, size in new.items() if size < old.get(name, size)]
    lines = [f"{name}: {old[name]} -> {new[name]}" for name in grown + shrunk]
    fresh = sum(name not in old for name in new)
    gone = sum(name not in new for name in old)
    lines.append(f"{len(grown)} grown, {len(shrunk)} shrunk, {fresh} new, {gone} gone")
    return lines


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = record(Path(tmp))
    old = json.loads(CORPUS.read_text())["sizes"] if CORPUS.exists() else {}
    CORPUS.write_text(json.dumps(corpus, indent=0) + "\n")
    for line in size_changes(old, corpus["sizes"]):
        print(line, file=sys.stderr)
    print(f"{len(corpus['sizes'])} calls, sha256 {corpus['sha256']}", file=sys.stderr)
