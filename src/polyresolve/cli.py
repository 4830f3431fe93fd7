"""Command-line surface: generate, construct, verify, and render.

One verb per invocation.  Each construction checks its certificate once,
with the checker ``verify`` also runs (promised bound included); a failed
check prints the verification report and exits 1.  Exit codes: 0 success,
1 verification failure, 2 usage or input error, a failed write included.
Each job has one route: every path cover is ``path_odd_cover_general``,
every cycle cover ``odd_cover_eulerian``, and the hard instance is the
verb ``lowerbound``.  ``--show-loops`` needs ``--dot`` and an instance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .acceptance import CRITERIA, run_acceptance
from .dot import emit_dot
from .generators import (
    random_delta4_eulerian_graph,
    random_delta4_graph,
    random_graph,
    random_instance,
    random_k2_instance,
)
from .graphs import SimpleGraph, degrees
from .jsonio import (
    MAX_COUNT,
    emit_cover,
    emit_graph,
    emit_instance,
    emit_report,
    emit_resolution,
    parse_cover,
    parse_graph,
    parse_instance,
    parse_resolution,
)
from .oddcover import (
    OddCoverCert,
    _make_cert,
    linear_forest_decomposition,
    odd_cover_bound,
    odd_cover_eulerian,
    path_odd_cover_general,
)
from .oracles import Report, exact_diameter_bfs, exact_odd_cover, verify_certificate
from .perms import cdg, resolution_length_bound
from .resolve import gen_lower_bound_instance, gen_pp36_instance, resolve

__all__ = ["main"]

# Each family's generator, given the seeded rng.
_GEN_FAMILIES = {"random": random_instance, "k2": random_k2_instance,
                 "pp36": lambda rng: gen_pp36_instance(), "graph": random_graph,
                 "eulerian": random_delta4_eulerian_graph, "delta4": random_delta4_graph}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process: ``parse_args``
    leaves it unchanged, so each ``main`` call reuses it."""
    top = argparse.ArgumentParser(
        prog="polyresolve",
        description="Certified short resolutions between partitions and small odd-covers of graphs.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(verb: str, help_text: str, **flags) -> argparse.ArgumentParser:
        p = sub.add_parser(verb, help=help_text)
        if flags.get("instance"):
            p.add_argument("--instance", metavar="F", help="instance JSON file")
        if flags.get("graph"):
            p.add_argument("--graph", metavar="F", help="graph JSON file")
        if flags.get("shape"):
            p.add_argument("--shape", metavar="a,b,c", help="cluster sizes, comma separated")
        if flags.get("kind"):
            p.add_argument("--kind", choices=("path", "cycle"), default="path")
        if flags.get("exact"):
            p.add_argument("--exact", action="store_true")
        if flags.get("seed"):
            p.add_argument("--seed", type=int, default=0, metavar="N")
        if flags.get("out"):
            p.add_argument("--out", metavar="F", help="write JSON here instead of stdout")
        if flags.get("dot"):
            p.add_argument("--dot", metavar="F", help="also write a DOT rendering here")
        if flags.get("cap"):
            p.add_argument("--cap", type=int, metavar="N", help="state cap override")
        if flags.get("show_loops"):
            p.add_argument("--show-loops", action="store_true", help="draw loops in the --dot rendering")
        return p

    add("resolve", "build a verified short resolution for an instance",
        instance=True, out=True, dot=True)
    add("oddcover", "build a verified small odd-cover of a graph",
        graph=True, kind=True, exact=True, out=True, dot=True, cap=True)
    add("arboricity", "decompose a max-degree-4 graph into three linear forests",
        graph=True, out=True, dot=True)
    add("diameter", "polytope diameter for a shape (upper bound, or exact BFS)",
        shape=True, exact=True, cap=True)
    add("lowerbound", "emit a hard instance with its proven lower bound",
        shape=True, out=True, dot=True, show_loops=True)
    ver = add("verify", "re-check a certificate against its instance or graph",
              instance=True, graph=True, out=True)
    ver.add_argument("certificate", metavar="CERT", help="certificate JSON file")
    add("gen", "emit a seeded random instance or graph",
        seed=True, out=True, dot=True, show_loops=True)
    sub.choices["gen"].add_argument("--family", choices=tuple(_GEN_FAMILIES), default="random")
    add("selftest", "run the acceptance suite")
    return top


def _parse_shape(text: str | None) -> tuple[int, ...]:
    if not text:
        raise ValueError("--shape is required for this verb")
    try:
        shape = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--shape must be comma-separated integers, got {text!r}")
    if not shape or any(k < 0 for k in shape):
        raise ValueError("--shape entries must be non-negative")
    if len(shape) > MAX_COUNT or sum(shape) > MAX_COUNT:
        raise ValueError(f"--shape exceeds the limit of {MAX_COUNT} clusters or items")
    return shape


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")


def _partitions(inst) -> tuple:
    """The two partitions of an instance, with or without a lower bound."""
    return (inst.p, inst.q) if hasattr(inst, "bound") else inst


def _load_instance(path: str | None):
    if not path:
        raise ValueError("--instance is required for this verb")
    return _partitions(parse_instance(_load_json(path)))


def _load_graph(path: str | None) -> SimpleGraph:
    if not path:
        raise ValueError("--graph is required for this verb")
    return parse_graph(_load_json(path))


def _write(payload: dict | str, path: str | None) -> None:
    """Write ``payload`` to ``path``, or to stdout; a failed write is an
    input error (exit 2).  Once stdout fails, it points at the null device,
    so that the interpreter's final flush of it fails no more."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    try:
        if path:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text, flush=True)
    except OSError as exc:
        if not path:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ValueError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}") from None


def _emit_checked(check: str, emit, args, build) -> int:
    """Write the certificate ``build()`` returns, and its DOT rendering.
    The construction checks it once and raises AssertionError when the
    check fails; that is reported as ``verify`` reports it, with exit 1."""
    try:
        cert = build()
    except AssertionError as exc:
        detail = str(exc) or "a construction check failed"
        _write(emit_report(Report(check, False, detail, 0)), None)
        return 1
    _write(emit(cert), args.out)
    if args.dot:
        _write(emit_dot(cert), args.dot)
    return 0


def _run_resolve(args) -> int:
    p, q = _load_instance(args.instance)
    return _emit_checked("resolution", emit_resolution, args, lambda: resolve(p, q))


def _construct_cover(g: SimpleGraph, kind: str, exact: bool, cap: int | None) -> OddCoverCert:
    """The constructive cover, or with ``exact`` the smallest cover within
    ``odd_cover_bound``, which the constructive one meets; the search's
    state cap refuses a large graph before any cover is built."""
    if kind == "cycle" and degrees(g).v_odd:
        raise ValueError("cycle odd-covers need every degree even")
    if exact:
        parts = exact_odd_cover(g, kind, odd_cover_bound(g, kind), cap)
        if parts is None:
            raise AssertionError("the exact search found no cover within the promised bound")
        return _make_cert(kind, parts, g)
    return path_odd_cover_general(g) if kind == "path" else odd_cover_eulerian(g, kind)


def _run_oddcover(args) -> int:
    g = _load_graph(args.graph)
    return _emit_checked(f"odd_cover[{args.kind}]", emit_cover, args,
                         lambda: _construct_cover(g, args.kind, args.exact, args.cap))


def _run_arboricity(args) -> int:
    g = _load_graph(args.graph)
    return _emit_checked("linear_forest", emit_cover, args, lambda: linear_forest_decomposition(g))


def _run_diameter(args) -> int:
    shape = _parse_shape(args.shape)
    diameter = exact_diameter_bfs(shape, args.cap) if args.exact else resolution_length_bound(shape)
    _write(str(diameter), None)
    return 0


def _write_generated(obj, args) -> int:
    """Write a generated graph or instance, and with ``--dot`` its DOT
    rendering: a graph's own, an instance's cluster difference digraph,
    whose loops ``--show-loops`` draws.  A graph has no loops to draw."""
    is_graph = isinstance(obj, SimpleGraph)
    if is_graph and args.show_loops:
        raise ValueError("--show-loops has no loops to draw in a graph")
    _write(emit_graph(obj) if is_graph else emit_instance(obj), args.out)
    if args.dot:
        drawn = obj if is_graph else cdg(*_partitions(obj))
        _write(emit_dot(drawn, show_loops=args.show_loops), args.dot)
    return 0


def _run_lowerbound(args) -> int:
    return _write_generated(gen_lower_bound_instance(_parse_shape(args.shape)), args)


def _run_verify(args) -> int:
    data = _load_json(args.certificate)
    if not isinstance(data, dict) or "type" not in data:
        raise ValueError(f"{args.certificate} is not a certificate (missing 'type')")
    # A bad instance or graph file is an input error (exit 2); only the
    # certificate itself is reported as malformed (exit 1).
    kind = data["type"]
    if kind == "resolution":
        target = _load_instance(args.instance)
    elif kind == "odd_cover":
        target = _load_graph(args.graph)
    else:
        raise ValueError(f"unknown certificate type {kind!r}")
    try:
        cert = parse_resolution(data, target[0]) if kind == "resolution" else parse_cover(data)
        report = verify_certificate(target, cert)
    except ValueError as exc:
        report = Report("certificate", False, f"malformed certificate: {exc}", 0)
    _write(emit_report(report), args.out)
    return 0 if report.passed else 1


def _run_gen(args) -> int:
    return _write_generated(_GEN_FAMILIES[args.family](random.Random(args.seed)), args)


def _run_selftest(args) -> int:
    reports = run_acceptance()
    budgets = {name: budget for name, _, budget in CRITERIA if budget is not None}
    lines = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        budget = f", budget {budgets[rep.check]} s" if rep.check in budgets else ""
        lines.append(f"{status} {rep.check}: {rep.detail} ({rep.elapsed_ms} ms{budget})")
    passed = sum(r.passed for r in reports)
    _write("\n".join([*lines, f"{passed}/{len(reports)} checks passed"]), None)
    return 0 if passed == len(reports) else 1


_DISPATCH = {
    "resolve": _run_resolve,
    "oddcover": _run_oddcover,
    "arboricity": _run_arboricity,
    "diameter": _run_diameter,
    "lowerbound": _run_lowerbound,
    "verify": _run_verify,
    "gen": _run_gen,
    "selftest": _run_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (code 2) or the help (code 0).
        return exc.code
    try:
        if getattr(args, "cap", None) is not None and args.cap < 1:
            raise ValueError(f"--cap must be a positive integer, got {args.cap}")
        if getattr(args, "show_loops", False) and not args.dot:
            raise ValueError("--show-loops needs --dot, the rendering it draws loops in")
        return _DISPATCH[args.verb](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
