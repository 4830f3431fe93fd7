"""DOT text rendering for graphs, difference digraphs, and certificates.

``emit_dot`` produces Graphviz source: undirected graphs as ``graph``
blocks, digraphs as ``digraph`` blocks with loops suppressed unless asked
for, and certificates with one color/style per part.  Resolutions render
as cluster-level exchange digraphs, arcs labeled by the item that moves
and colored by step.
"""

from __future__ import annotations

from .graphs import Digraph, SimpleGraph
from .oddcover import OddCoverCert
from .perms import Resolution

__all__ = ["emit_dot"]

_PALETTE = (
    ("red3", "solid"),
    ("blue3", "solid"),
    ("forestgreen", "solid"),
    ("darkorange2", "dashed"),
    ("purple3", "dashed"),
    ("deeppink3", "dashed"),
    ("teal", "bold"),
    ("gray40", "bold"),
)


def _style(i: int) -> str:
    color, style = _PALETTE[i % len(_PALETTE)]
    return f'color="{color}", style="{style}"'


def _graph_lines(g: SimpleGraph) -> list[str]:
    lines = [f"  {v};" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in sorted(g.edges)]
    return lines


def _digraph_lines(g: Digraph, show_loops: bool) -> list[str]:
    lines = [f"  {v};" for v in range(g.n)]
    for i in range(g.m):
        t, h = g.tails[i], g.heads[i]
        if t == h and not show_loops:
            continue
        lines.append(f'  {t} -> {h} [label="{i}"];')
    return lines


def _cover_lines(cert: OddCoverCert) -> list[str]:
    vs = sorted({v for part in cert.parts for e in part for v in e})
    lines = [f"  {v};" for v in vs]
    for i, part in enumerate(cert.parts):
        for u, v in sorted(part):
            lines.append(f'  {u} -- {v} [{_style(i)}, label="part {i}"];')
    return lines


def _resolution_lines(res: Resolution) -> list[str]:
    lines = [f'  {c} [shape=box, label="cluster {c}"];' for c in range(res.start.n)]
    for i, (tau, before) in enumerate(res.steps()):
        items = tau.items
        for j, x in enumerate(items):
            dst = before[items[(j + 1) % len(items)]]
            lines.append(f'  {before[x]} -> {dst} [{_style(i)}, label="{x}"];')
    return lines


def emit_dot(obj, show_loops: bool = False) -> str:
    """Render a graph, digraph, cover certificate, or resolution as DOT.

    A resolution is replayed as :func:`perms.check_resolution` replays it:
    an invalid step raises ``ValueError`` naming the step and its fault."""
    if isinstance(obj, SimpleGraph):
        head, lines = "graph G {", _graph_lines(obj)
    elif isinstance(obj, Digraph):
        head, lines = "digraph G {", _digraph_lines(obj, show_loops)
    elif isinstance(obj, OddCoverCert):
        head, lines = "graph G {", _cover_lines(obj)
    elif isinstance(obj, Resolution):
        head, lines = "digraph G {", _resolution_lines(obj)
    else:
        raise TypeError(f"no DOT form for {type(obj).__name__}")
    return "\n".join([head, *lines, "}"]) + "\n"
