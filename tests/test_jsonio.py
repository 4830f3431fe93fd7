"""Round-trip and validation tests for the JSON wire formats."""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from polyresolve.generators import random_graph, random_instance
from polyresolve.graphs import edge, simple_graph
from polyresolve.jsonio import (
    emit_cover,
    emit_graph,
    emit_instance,
    emit_report,
    emit_resolution,
    parse_cover,
    parse_graph,
    parse_instance,
    parse_report,
    parse_resolution,
)
from polyresolve.oddcover import OddCoverCert, path_odd_cover_general
from polyresolve.oracles import Report
from polyresolve.perms import CycleSeq, Partition, Resolution
from polyresolve.resolve import LowerBoundInstance, gen_lower_bound_instance, resolve


def through_json(d: dict) -> dict:
    return json.loads(json.dumps(d))


# --- graphs -------------------------------------------------------------------


def test_graph_wire_format():
    g = simple_graph(4, [(2, 0), (1, 3)])
    d = emit_graph(g)
    assert d == {"n": 4, "edges": [[0, 2], [1, 3]]}
    assert parse_graph(through_json(d)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_graph_round_trip(seed):
    g = random_graph(random.Random(seed))
    assert parse_graph(through_json(emit_graph(g))) == g


# --- instances ----------------------------------------------------------------


def test_instance_wire_format():
    p = Partition(2, (0, 0, 1))
    q = Partition(2, (1, 0, 0))
    d = emit_instance((p, q))
    assert d == {"m": 3, "n": 2, "p": [0, 0, 1], "p_prime": [1, 0, 0]}
    assert parse_instance(through_json(d)) == (p, q)


def test_lower_bound_instance_round_trip():
    inst = gen_lower_bound_instance((3, 2, 2, 1))
    d = emit_instance(inst)
    assert d["bound"] == inst.bound and d["family"] == inst.family
    back = parse_instance(through_json(d))
    assert isinstance(back, LowerBoundInstance)
    assert back == inst


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_instance_round_trip(seed):
    p, q = random_instance(random.Random(seed))
    assert parse_instance(through_json(emit_instance((p, q)))) == (p, q)


def test_instance_rejects_inconsistent_m():
    with pytest.raises(ValueError):
        parse_instance({"m": 5, "n": 2, "p": [0, 1], "p_prime": [1, 0]})


def test_instance_rejects_partial_bound():
    with pytest.raises(ValueError):
        parse_instance({"m": 2, "n": 2, "p": [0, 1], "p_prime": [1, 0], "bound": 1})


def test_instance_names_a_boolean_label():
    doc = json.loads('{"m": 3, "n": 2, "p": [0, 1, true], "p_prime": [1, 0, 1]}')
    with pytest.raises(ValueError, match="^p must be an integer, got bool$"):
        parse_instance(doc)


def test_instance_names_the_first_cluster_out_of_range():
    doc = {"m": 4, "n": 2, "p": [0, 1, 1, 0], "p_prime": [1, 3, -1, 0]}
    with pytest.raises(ValueError, match="^cluster 3 out of range for n=2$"):
        parse_instance(doc)


@pytest.mark.parametrize("doc, message", [
    ({"m": 0, "n": -5, "p": [], "p_prime": []}, "n must be non-negative, got -5"),
    ({"m": -1, "n": 2, "p": [], "p_prime": []}, "m must be non-negative, got -1"),
])
def test_instance_refuses_a_negative_count(doc, message):
    # An empty instance with a negative count was read as valid.
    with pytest.raises(ValueError) as exc:
        parse_instance(through_json(doc))
    assert str(exc.value) == message


# --- resolutions ----------------------------------------------------------------


def test_resolution_wire_format():
    p = Partition(2, (0, 0, 1, 1))
    r = Resolution(p, (CycleSeq((0, 2)), CycleSeq((1, 3))))
    d = emit_resolution(r)
    assert d == {"type": "resolution", "taus": [[0, 2], [1, 3]]}
    assert parse_resolution(through_json(d), p) == r


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_resolution_round_trip(seed):
    p, q = random_instance(random.Random(seed))
    r = resolve(p, q)
    assert parse_resolution(through_json(emit_resolution(r)), p) == r


def test_resolution_rejects_wrong_type():
    with pytest.raises(ValueError):
        parse_resolution({"type": "odd_cover", "taus": []}, Partition(1, (0,)))


# --- covers ---------------------------------------------------------------------


def test_cover_wire_format():
    cert = OddCoverCert("path", (frozenset({edge(1, 0)}),))
    d = emit_cover(cert)
    assert d == {"type": "odd_cover", "kind": "path", "parts": [[[0, 1]]]}
    assert parse_cover(through_json(d)) == cert


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_cover_round_trip(seed):
    g = random_graph(random.Random(seed))
    cert = path_odd_cover_general(g)
    assert parse_cover(through_json(emit_cover(cert))) == cert


def test_cover_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_cover({"type": "odd_cover", "kind": "tree", "parts": []})


# --- reports ----------------------------------------------------------------------


def test_report_round_trip():
    r = Report("diameter", True, "ok", 12)
    d = emit_report(r)
    assert d == {"check": "diameter", "pass": True, "detail": "ok", "elapsed_ms": 12}
    assert parse_report(through_json(d)) == r


@pytest.mark.parametrize("key, value, message", [
    ("elapsed_ms", None, "elapsed_ms must be an integer, got NoneType"),
    ("elapsed_ms", [12], "elapsed_ms must be an integer, got list"),
    ("pass", "yes", "pass must be a JSON boolean, got str"),
    ("pass", 1, "pass must be a JSON boolean, got int"),
])
def test_malformed_reports_are_value_errors(key, value, message):
    d = {**emit_report(Report("diameter", True, "ok", 12)), key: value}
    with pytest.raises(ValueError) as exc:
        parse_report(through_json(d))
    assert str(exc.value) == message


# --- errors ---------------------------------------------------


def test_parse_reports_missing_keys():
    with pytest.raises(ValueError, match="missing key 'edges'"):
        parse_graph({"n": 3})
    with pytest.raises(ValueError, match="expected a JSON object"):
        parse_graph([1, 2])


MALFORMED_EDGES = [
    # (n, edges, the message), the first offender named in list order
    (3, {"a": 1}, "edges must be a JSON array, got dict"),
    (3, [[0, 1], 5], "edges must be a JSON array, got int"),
    (3, [[0, 1], "12"], "edges must be a JSON array, got str"),
    (3, [[0, 1], None], "edges must be a JSON array, got NoneType"),
    (3, [[0, 1], [1, "2"]], "edges must be an integer, got str"),
    (3, [[0, 1], [1, 2.0]], "edges must be an integer, got float"),
    (3, [[0, 1], [True, 2]], "edges must be an integer, got bool"),
    (3, [[0, 1], [1]], "every entry of edges must be a pair of integers"),
    (3, [[0, 1], []], "every entry of edges must be a pair of integers"),
    (3, [[0, 1], [0, 1, 2]], "every entry of edges must be a pair of integers"),
    (3, [[0, 1, 2], "x"], "every entry of edges must be a pair of integers"),
    (3, [[0, 1], [2, 2]], "loop edge 2"),
    # A loop is named before an edge out of range.
    (3, [[0, 3], [2, 2]], "loop edge 2"),
    (3, [[0, 1], [1, 3]], "edge (1,3) invalid for n=3"),
    (3, [[0, 1], [-1, 2]], "edge (-1,2) invalid for n=3"),
    (3, [[2, 5], [1, 0]], "edge (2,5) invalid for n=3"),
    (0, [[0, 1]], "edge (0,1) invalid for n=0"),
    (-1, [[0, 1]], "n must be non-negative, got -1"),
    # An empty graph with a negative count was read as valid.
    (-3, [], "n must be non-negative, got -3"),
]


@pytest.mark.parametrize("n, edges, message", MALFORMED_EDGES)
def test_malformed_edges_are_named_byte_for_byte(n, edges, message):
    # The pairs are checked in one C-level pass; the per-edge loop behind
    # it must still raise exactly these messages.
    with pytest.raises(ValueError) as exc:
        parse_graph(through_json({"n": n, "edges": edges}))
    assert str(exc.value) == message


@pytest.mark.parametrize("parts, message", [
    ([[[0, 1]], [[1, 1]]], "loop edge 1"),
    ([[[0, 1]], [[1, "a"]]], "a part must be an integer, got str"),
    ([[[0, 1, 2]]], "every entry of a part must be a pair of integers"),
    ([5], "a part must be a JSON array, got int"),
    ({"x": 1}, "parts must be a JSON array, got dict"),
    ([[[0, 1], [1, 2], [1, 0]]], "a part lists edge (0,1) twice"),
])
def test_malformed_cover_parts_are_named_byte_for_byte(parts, message):
    with pytest.raises(ValueError) as exc:
        parse_cover(through_json({"type": "odd_cover", "kind": "path", "parts": parts}))
    assert str(exc.value) == message
