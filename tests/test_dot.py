"""Tests for DOT rendering of graphs, digraphs, covers, and resolutions."""

from __future__ import annotations

import pytest

from polyresolve.dot import emit_dot
from polyresolve.graphs import Digraph, edge, simple_graph
from polyresolve.oddcover import OddCoverCert
from polyresolve.perms import CycleSeq, Partition, Resolution, cdg


def test_graph_block():
    g = simple_graph(3, [(0, 1), (1, 2)])
    out = emit_dot(g)
    assert out.startswith("graph G {\n")
    assert out.endswith("}\n")
    assert "  0 -- 1;" in out
    assert "  1 -- 2;" in out
    assert "->" not in out


def test_empty_graph_block():
    assert emit_dot(simple_graph(0, [])) == "graph G {\n}\n"


def test_isolated_vertices_are_declared():
    out = emit_dot(simple_graph(2, []))
    assert "  0;" in out and "  1;" in out


def test_digraph_block_arcs_carry_ids():
    d = Digraph(2, (0, 1), (1, 0))
    out = emit_dot(d)
    assert out.startswith("digraph G {\n")
    assert '  0 -> 1 [label="0"];' in out
    assert '  1 -> 0 [label="1"];' in out


def test_digraph_loops_suppressed_by_default():
    p = Partition(2, (0, 0, 1))
    q = Partition(2, (0, 1, 1))
    d = cdg(p, q)
    out = emit_dot(d)
    assert '  0 -> 1 [label="1"];' in out
    assert "0 -> 0" not in out and "1 -> 1" not in out
    out_loops = emit_dot(d, show_loops=True)
    assert '  0 -> 0 [label="0"];' in out_loops
    assert '  1 -> 1 [label="2"];' in out_loops


def test_cover_parts_get_distinct_styles():
    cert = OddCoverCert(
        "path", (frozenset({edge(0, 1)}), frozenset({edge(1, 2)}))
    )
    out = emit_dot(cert)
    assert 'label="part 0"' in out
    assert 'label="part 1"' in out
    styles = {
        ln.split("[", 1)[1].split(", label")[0]
        for ln in out.splitlines()
        if "label=\"part" in ln
    }
    assert len(styles) == 2


def test_resolution_renders_cluster_moves():
    p = Partition(2, (0, 0, 1, 1))
    r = Resolution(p, (CycleSeq((0, 2)),))
    out = emit_dot(r)
    assert out.startswith("digraph G {\n")
    assert '  0 [shape=box, label="cluster 0"];' in out
    assert '  1 [shape=box, label="cluster 1"];' in out
    # Item 0 moves from cluster 0 to item 2's cluster, and vice versa.
    assert '  0 -> 1 [color="red3", style="solid", label="0"];' in out
    assert '  1 -> 0 [color="red3", style="solid", label="2"];' in out


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        emit_dot(42)


def test_invalid_resolution_is_not_rendered():
    p = Partition(2, (0, 0, 1, 1))
    with pytest.raises(ValueError, match="step 1 revisits a cluster"):
        emit_dot(Resolution(p, (CycleSeq((0, 2)), CycleSeq((1, 2)))))

