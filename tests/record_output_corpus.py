"""Record the output corpus: the bytes a fixed set of calls writes.

Run from the repository root, after a change that is meant to move them:

    PYTHONPATH=src:tests python3 tests/record_output_corpus.py

It writes ``tests/output_corpus.json``: the size in bytes of each call's
output, by call name, and one SHA-256 over every output in call order.
``test_output_corpus.py`` makes the calls again and checks them against
that file.  The calls are the covers of the small-graph atlas, the CLI's
covers of stacked maximum-degree-4 graphs, the two named 4-regular graphs
of ``test_oddcover.py``, resolutions of seeded and hard instances, and
every ``gen`` family and ``lowerbound``, with their DOT renderings.
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
from polyresolve.generators import random_delta4_eulerian_graph, random_instance, random_k2_instance
from polyresolve.graphs import SimpleGraph, degrees, simple_graph
from polyresolve.jsonio import emit_cover, emit_graph, emit_resolution
from polyresolve.oddcover import linear_forest_decomposition, odd_cover_eulerian, path_odd_cover_general
from polyresolve.resolve import gen_lower_bound_instance, gen_pp36_instance, resolve
from test_oddcover import H1, H2, SWAPPED_ROUTE

CORPUS = Path(__file__).with_name("output_corpus.json")

LOWER_BOUND_SHAPES = ("2,2,2,2", "3,3,2,2", "4,3,2,1", "3,3,3,3,3", "4,4,3,2,2,1", "5,4,4,3,3,2,1")
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = record(Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=0) + "\n")
    print(f"{len(corpus['sizes'])} calls, sha256 {corpus['sha256']}", file=sys.stderr)
