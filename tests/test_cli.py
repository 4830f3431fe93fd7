"""End-to-end tests of the command line, driven in-process through main()."""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polyresolve import cli, oddcover
from polyresolve.cli import main
from polyresolve.generators import random_delta4_eulerian_graph
from polyresolve.graphs import Digraph, SimpleGraph, simple_graph
from polyresolve.jsonio import emit_cover, emit_graph, emit_instance
from polyresolve.oracles import Report
from polyresolve.perms import Partition
from test_docs import _env
from test_oddcover import _count_calls


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def swap_instance(tmp_path):
    p = Partition(2, (0, 0, 1, 1))
    q = Partition(2, (1, 1, 0, 0))
    return write_json(tmp_path / "inst.json", emit_instance((p, q)))


def k5_graph(tmp_path):
    g = simple_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    return write_json(tmp_path / "k5.json", emit_graph(g))


# --- resolve -------------------------------------------------------------------


def test_resolve_writes_verified_certificate(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    out = tmp_path / "res.json"
    assert main(["resolve", "--instance", inst, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["type"] == "resolution"
    assert 1 <= len(cert["taus"]) <= 3


def test_resolve_prints_to_stdout(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    assert main(["resolve", "--instance", inst]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["type"] == "resolution"


def test_resolve_missing_instance_is_usage_error(capsys):
    assert main(["resolve"]) == 2


def test_resolve_unreadable_file_is_usage_error(tmp_path, capsys):
    assert main(["resolve", "--instance", str(tmp_path / "nope.json")]) == 2


def test_resolve_unequal_shapes_is_input_error(tmp_path, capsys):
    inst = write_json(tmp_path / "inst.json", {"m": 3, "n": 2, "p": [0, 0, 1], "p_prime": [0, 1, 1]})
    assert main(["resolve", "--instance", inst]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "p and q must have equal per-cluster sizes" in err


def test_resolve_dot_output(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    dot = tmp_path / "res.dot"
    assert main(["resolve", "--instance", inst, "--dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph G {")


# --- oddcover and arboricity -----------------------------------------------------


def test_oddcover_paths(tmp_path, capsys):
    g = k5_graph(tmp_path)
    out = tmp_path / "cover.json"
    assert main(["oddcover", "--graph", g, "--kind", "path", "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["kind"] == "path"
    assert len(cert["parts"]) <= 3


def test_oddcover_paths_of_an_eulerian_graph_are_its_eulerian_cover(tmp_path, capsys):
    # Every path cover goes through path_odd_cover_general, which on a
    # graph with no odd vertex adds no matching edge.
    g = random_delta4_eulerian_graph(random.Random(2), components=12)
    assert main(["oddcover", "--graph", write_json(tmp_path / "g.json", emit_graph(g)),
                 "--kind", "path"]) == 0
    assert capsys.readouterr().out == json.dumps(emit_cover(oddcover.odd_cover_eulerian(g, "path"))) + "\n"


def test_oddcover_exact_cycles(tmp_path, capsys):
    g = k5_graph(tmp_path)
    out = tmp_path / "cover.json"
    rc = main(["oddcover", "--graph", g, "--kind", "cycle", "--exact", "--out", str(out)])
    assert rc == 0
    cert = json.loads(out.read_text())
    assert cert["kind"] == "cycle"
    assert len(cert["parts"]) == 2


def test_oddcover_exact_of_the_empty_graph(tmp_path, capsys):
    g = tmp_path / "empty.json"
    g.write_text(json.dumps({"n": 0, "edges": []}))
    for kind in ("path", "cycle"):
        assert main(["oddcover", "--graph", str(g), "--kind", kind, "--exact"]) == 0
        assert json.loads(capsys.readouterr().out)["parts"] == []


def test_oddcover_exact_search_too_large(tmp_path, capsys):
    # K_9 has 493,200 paths, far above the state cap of 9.
    p9 = write_json(tmp_path / "p9.json", {"n": 9, "edges": [[i, i + 1] for i in range(8)]})
    start = time.perf_counter()
    assert main(["oddcover", "--graph", p9, "--exact", "--cap", "9"]) == 2
    assert "cap" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


def test_oddcover_exact_is_bounded_by_the_state_cap_alone(tmp_path, capsys, monkeypatch):
    # K_9 has 62,814 cycles, within the default state cap, and 493,200
    # paths, past it; no vertex limit comes first.
    monkeypatch.delenv("POLYRESOLVE_CAP", raising=False)
    c9 = write_json(tmp_path / "c9.json", {"n": 9, "edges": [[i, (i + 1) % 9] for i in range(9)]})
    assert main(["oddcover", "--graph", c9, "--kind", "cycle", "--exact"]) == 0
    assert len(json.loads(capsys.readouterr().out)["parts"]) == 1
    p9 = write_json(tmp_path / "p9.json", {"n": 9, "edges": [[i, i + 1] for i in range(8)]})
    assert main(["oddcover", "--graph", p9, "--kind", "path", "--exact"]) == 2
    assert "the cap" in capsys.readouterr().err


def test_oddcover_exact_past_the_cap_builds_no_cover(tmp_path, capsys, monkeypatch):
    # The exact route searches within the promised bound, so the state cap
    # refuses before any cover is built.  K_10 has more cycles and paths,
    # and K_9 more paths, than the default cap.
    monkeypatch.delenv("POLYRESOLVE_CAP", raising=False)
    calls = _count_calls(monkeypatch, oddcover, ["_eulerian_cover", "path_odd_cover_general"])
    c10 = {"n": 10, "edges": [[i, (i + 1) % 10] for i in range(10)]}
    p9 = {"n": 9, "edges": [[i, i + 1] for i in range(8)]}
    for doc, kind in ((c10, "cycle"), (c10, "path"), (p9, "path")):
        g = write_json(tmp_path / "g.json", doc)
        assert main(["oddcover", "--graph", g, "--kind", kind, "--exact"]) == 2
        assert "the cap" in capsys.readouterr().err
    assert calls == {"_eulerian_cover": 0, "path_odd_cover_general": 0}


def test_oddcover_exact_cap_raises_the_state_cap(tmp_path, capsys, monkeypatch):
    # K_6 has 975 paths: past a state cap of 500, within one of 100,000.
    monkeypatch.setenv("POLYRESOLVE_CAP", "500")
    p6 = write_json(tmp_path / "p6.json", {"n": 6, "edges": [[i, i + 1] for i in range(5)]})
    assert main(["oddcover", "--graph", p6, "--exact", "--cap", "100000"]) == 0
    assert len(json.loads(capsys.readouterr().out)["parts"]) == 1


def test_oddcover_failed_construction_check_exits_one(tmp_path, capsys, monkeypatch):
    # A polycycle step that hands back the 5-cycle whole: no path cover.
    monkeypatch.setattr(oddcover, "_polycycle_cover", lambda edges, comps, kind: [edges])
    c5 = write_json(tmp_path / "c5.json", {"n": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]})
    assert main(["oddcover", "--graph", c5, "--kind", "path"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["check"] == "odd_cover[path]"
    assert report["detail"] == "part 0 not a path"


def test_oddcover_cycle_parity_obstruction(tmp_path, capsys):
    g = write_json(tmp_path / "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    assert main(["oddcover", "--graph", g, "--kind", "cycle"]) == 2
    assert "cycle odd-covers need every degree even" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [{"n": 3, "edges": 5}, {"n": 3, "edges": [[0, 1, 2]]}, {"n": "3", "edges": []}])
def test_oddcover_mistyped_graph_is_input_error(tmp_path, capsys, doc):
    g = write_json(tmp_path / "bad.json", doc)
    assert main(["oddcover", "--graph", g]) == 2


@pytest.mark.parametrize("verb", ["oddcover", "arboricity"])
def test_huge_vertex_count_is_input_error(tmp_path, capsys, verb):
    # Sizing a degree vector by this count ended in MemoryError.
    g = write_json(tmp_path / "huge.json", {"n": 10**12, "edges": []})
    assert main([verb, "--graph", g]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_huge_cluster_count_is_input_error(tmp_path, capsys):
    inst = write_json(tmp_path / "huge.json", {"m": 2, "n": 10**12, "p": [0, 1], "p_prime": [1, 0]})
    assert main(["resolve", "--instance", inst]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["oddcover", "arboricity", "resolve", "verify"])
def test_negative_count_is_input_error(tmp_path, capsys, verb):
    # An empty graph or instance with a negative count was certified (exit 0).
    g = write_json(tmp_path / "g.json", {"n": -3, "edges": []})
    inst = write_json(tmp_path / "inst.json", {"m": 0, "n": -5, "p": [], "p_prime": []})
    if verb == "resolve":
        argv = ["resolve", "--instance", inst]
    elif verb == "verify":
        cover = write_json(tmp_path / "cover.json", {"type": "odd_cover", "kind": "path", "parts": []})
        steps = write_json(tmp_path / "res.json", {"type": "resolution", "taus": []})
        assert main(["verify", "--graph", g, cover]) == 2
        assert "n must be non-negative, got -3" in capsys.readouterr().err
        argv = ["verify", "--instance", inst, steps]
    else:
        argv = [verb, "--graph", g]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "n must be non-negative, got -" in err


@pytest.mark.parametrize("verb, kind, odd, counts", [
    ("oddcover", "path", False, 1),
    ("oddcover", "cycle", False, 1),
    ("oddcover", "path", True, 2),
    ("arboricity", None, True, 2),
])
def test_a_cli_cover_counts_each_graph_degrees_once(tmp_path, capsys, monkeypatch, verb, kind, odd, counts):
    # The route, the construction's threshold and the verifier's bound read
    # one degree summary per graph: the input's, and for a graph with odd
    # degrees also the Eulerian graph it is completed to.  They counted
    # 3 and 4 times when each reader counted for itself.  No cover counts
    # the degrees of its orientation: they are half the graph's.
    def refuse(self):
        raise RuntimeError("a cover counted the degrees of a digraph")

    monkeypatch.setattr(Digraph, "out_degrees", refuse)
    monkeypatch.setattr(Digraph, "in_degrees", refuse)
    g = random_delta4_eulerian_graph(random.Random(1), components=12)
    if odd:
        g = SimpleGraph(g.n, g.edges - {min(g.edges)})
    path = write_json(tmp_path / "g.json", emit_graph(g))
    calls = []
    original = SimpleGraph.degree_vector
    monkeypatch.setattr(SimpleGraph, "degree_vector", lambda self: calls.append(self) or original(self))
    assert main([verb, "--graph", path] + (["--kind", kind] if kind else [])) == 0
    assert json.loads(capsys.readouterr().out)["type"] == "odd_cover"
    assert len(calls) == counts


def test_arboricity(tmp_path, capsys):
    g = k5_graph(tmp_path)
    out = tmp_path / "forests.json"
    assert main(["arboricity", "--graph", g, "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["kind"] == "linear_forest"
    assert len(cert["parts"]) == 3


def test_arboricity_rejects_high_degree(tmp_path, capsys):
    star5 = {"n": 6, "edges": [[0, i] for i in range(1, 6)]}
    g = write_json(tmp_path / "star5.json", star5)
    assert main(["arboricity", "--graph", g]) == 2
    assert "maximum degree must be at most 4, got 5" in capsys.readouterr().err


# --- diameter and lowerbound ------------------------------------------------------


def test_diameter_bound_and_exact(capsys):
    assert main(["diameter", "--shape", "2,2"]) == 0
    bound = int(capsys.readouterr().out.strip())
    assert bound == 3
    assert main(["diameter", "--shape", "2,2", "--exact"]) == 0
    assert int(capsys.readouterr().out.strip()) == 2


def test_diameter_exact_cap(capsys):
    assert main(["diameter", "--shape", "4,4,4,4", "--exact", "--cap", "100"]) == 2


@pytest.mark.parametrize("argv", [
    ["diameter", "--exact", "--shape", "2,2", "--cap", "-5"],
    ["oddcover", "--exact", "--cap", "0"],
])
def test_cap_below_one_is_usage_error(capsys, argv):
    # They said "more than -5 vertices, the cap" and "at most 0 vertices".
    assert main(argv) == 2
    assert "--cap must be a positive integer" in capsys.readouterr().err


def test_env_cap_not_an_integer_is_usage_error(capsys, monkeypatch):
    # It said "invalid literal for int() with base 10: 'abc'".
    monkeypatch.setenv("POLYRESOLVE_CAP", "abc")
    assert main(["diameter", "--exact", "--shape", "2,2"]) == 2
    assert "POLYRESOLVE_CAP must be a positive integer, got 'abc'" in capsys.readouterr().err


def test_diameter_bad_shape(capsys):
    assert main(["diameter", "--shape", "2,x"]) == 2


def test_lowerbound_emits_instance(tmp_path, capsys):
    out = tmp_path / "hard.json"
    assert main(["lowerbound", "--shape", "2,2,2,2", "--out", str(out)]) == 0
    inst = json.loads(out.read_text())
    assert inst["bound"] == 3
    assert inst["family"] == "even2cycles"


def test_lowerbound_show_loops_without_dot_is_usage_error(tmp_path, capsys):
    out = tmp_path / "hard.json"
    assert main(["lowerbound", "--shape", "2,2,2,2", "--show-loops", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --show-loops needs --dot, the rendering it draws loops in\n"
    assert not out.exists()


def test_lowerbound_needs_four_clusters(capsys):
    assert main(["lowerbound", "--shape", "2,2"]) == 2
    assert "need at least 4 clusters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["lowerbound", "--shape", "200000000,1,1,1"],
        ["diameter", "--exact", "--shape", "3000000"],
        ["diameter", "--shape", "999999,2"],
    ],
)
def test_oversized_shape_is_usage_error(capsys, argv):
    # The lowerbound generator sized its lists by these entries (MemoryError).
    start = time.perf_counter()
    assert main(argv) == 2
    assert "exceeds the limit" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


def test_diameter_exact_counts_vertices_with_early_exit(capsys):
    start = time.perf_counter()
    assert main(["diameter", "--exact", "--shape", "500000,500000"]) == 2
    assert "cap" in capsys.readouterr().err
    assert main(["diameter", "--exact", "--shape", "1000000"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert time.perf_counter() - start < 5


def test_diameter_exact_many_items_few_vertices_is_quick(capsys):
    # 10,000 vertices pass the cap; the search runs over their two tables.
    start = time.perf_counter()
    assert main(["diameter", "--exact", "--shape", "9999,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert time.perf_counter() - start < 1


# --- verify ------------------------------------------------------------------------


def test_verify_good_certificate(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    cert = tmp_path / "res.json"
    assert main(["resolve", "--instance", inst, "--out", str(cert)]) == 0
    assert main(["verify", "--instance", inst, str(cert)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


def test_verify_bad_certificate_exits_one(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    cert = write_json(tmp_path / "bad.json", {"type": "resolution", "taus": []})
    assert main(["verify", "--instance", inst, str(cert)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False


def test_verify_malformed_certificate_exits_one(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    cert = write_json(tmp_path / "bad.json", {"type": "resolution", "taus": [[0, 1, 0]]})
    assert main(["verify", "--instance", inst, str(cert)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert "malformed" in report["detail"]


@pytest.mark.parametrize("n", ["x", 10**12])
def test_verify_bad_instance_file_is_input_error(tmp_path, capsys, n):
    inst = swap_instance(tmp_path)
    cert = tmp_path / "res.json"
    assert main(["resolve", "--instance", inst, "--out", str(cert)]) == 0
    doc = json.loads((tmp_path / "inst.json").read_text())
    doc["n"] = n
    bad = write_json(tmp_path / "bad_inst.json", doc)
    assert main(["verify", "--instance", bad, str(cert)]) == 2
    out, err = capsys.readouterr()
    assert "malformed" not in out and err.startswith("error:")


def test_verify_bad_graph_file_is_input_error(tmp_path, capsys):
    g = k5_graph(tmp_path)
    cert = tmp_path / "cover.json"
    assert main(["oddcover", "--graph", g, "--kind", "cycle", "--out", str(cert)]) == 0
    bad = write_json(tmp_path / "bad_graph.json", {"n": "x", "edges": []})
    assert main(["verify", "--graph", bad, str(cert)]) == 2


def test_verify_non_array_steps_is_malformed(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    cert = write_json(tmp_path / "bad.json", {"type": "resolution", "taus": 5})
    assert main(["verify", "--instance", inst, str(cert)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "malformed" in report["detail"]


def test_verify_cover_against_graph(tmp_path, capsys):
    g = k5_graph(tmp_path)
    cert = tmp_path / "cover.json"
    assert main(["oddcover", "--graph", g, "--kind", "cycle", "--out", str(cert)]) == 0
    assert main(["verify", "--graph", g, str(cert)]) == 0


def test_verify_refuses_a_walk_past_its_bound(tmp_path, capsys):
    # Three swaps walk (0, 1) to (1, 0), one step past the bound 2 of (1, 1).
    inst = write_json(tmp_path / "inst.json",
                      emit_instance((Partition(2, (0, 1)), Partition(2, (1, 0)))))
    cert = write_json(tmp_path / "walk.json", {"type": "resolution", "taus": [[0, 1]] * 3})
    assert main(["verify", "--instance", inst, cert]) == 1
    assert json.loads(capsys.readouterr().out)["detail"] == "3 steps exceed the bound 2"


def test_verify_refuses_a_cover_past_its_bound(tmp_path, capsys):
    # K_3 as its three one-edge paths, one past its bound ceil(3*2/4) = 2.
    k3 = write_json(tmp_path / "k3.json", {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]})
    parts = [[[0, 1]], [[0, 2]], [[1, 2]]]
    cert = write_json(tmp_path / "cover.json", {"type": "odd_cover", "kind": "path", "parts": parts})
    assert main(["verify", "--graph", k3, cert]) == 1
    assert json.loads(capsys.readouterr().out)["detail"] == "3 paths exceed the bound 2"


def test_verify_unreadable_certificate_exits_two(tmp_path, capsys):
    inst = swap_instance(tmp_path)
    missing = str(tmp_path / "missing.json")
    assert main(["verify", "--instance", inst, missing]) == 2


# --- gen ---------------------------------------------------------------------------


def test_gen_is_deterministic(capsys):
    assert main(["gen", "--family", "random", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--family", "random", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--family", "random", "--seed", "8"]) == 0
    assert capsys.readouterr().out != first


def test_gen_families(tmp_path, capsys):
    for family, extra, keys in [
        ("random", [], {"p", "p_prime"}),
        ("k2", [], {"p", "p_prime"}),
        ("pp36", [], {"p", "p_prime"}),
        ("graph", [], {"edges"}),
        ("eulerian", [], {"edges"}),
        ("delta4", [], {"edges"}),
    ]:
        assert main(["gen", "--family", family, *extra]) == 0, family
        payload = json.loads(capsys.readouterr().out)
        assert keys <= set(payload), family


def test_gen_unknown_family_rejected(capsys):
    assert main(["gen", "--family", "nonsense"]) == 2
    assert "invalid choice: 'nonsense'" in capsys.readouterr().err


def test_gen_has_no_lowerbound_family(capsys):
    # The hard instance has one verb, ``lowerbound``.
    assert main(["gen", "--family", "lowerbound", "--shape", "2,2,2,2"]) == 2
    assert "invalid choice: 'lowerbound'" in capsys.readouterr().err


def test_gen_takes_no_shape(capsys):
    assert main(["gen", "--shape", "3,3"]) == 2
    assert "unrecognized arguments: --shape 3,3" in capsys.readouterr().err


def test_gen_show_loops_without_dot_is_usage_error(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert main(["gen", "--family", "random", "--show-loops", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --show-loops needs --dot, the rendering it draws loops in\n"
    assert not out.exists()


@pytest.mark.parametrize("family", ["graph", "eulerian", "delta4"])
def test_gen_show_loops_of_a_graph_is_usage_error(tmp_path, capsys, family):
    # A graph's DOT rendering has no loops to draw.
    out, dot = tmp_path / "g.json", tmp_path / "g.dot"
    argv = ["gen", "--family", family, "--out", str(out), "--dot", str(dot), "--show-loops"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --show-loops has no loops to draw in a graph\n"
    assert not out.exists() and not dot.exists()


# --- failed writes -------------------------------------------------------------


@pytest.mark.parametrize("flag", ["--out", "--dot"])
@pytest.mark.parametrize("where", ["missing directory", "directory", "full device"])
def test_a_failed_write_is_an_input_error(tmp_path, capsys, flag, where):
    target = {"missing directory": tmp_path / "missing" / "g.json", "directory": tmp_path,
              "full device": Path("/dev/full")}[where]
    if where == "full device" and not target.exists():
        pytest.skip("no /dev/full here")
    assert main(["gen", "--family", "graph", flag, str(target)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {target}: ")


@pytest.mark.parametrize("argv", [["gen"], ["diameter", "--shape", "3,2,2"], ["selftest"]])
def test_a_closed_stdout_exits_two_without_a_traceback(argv):
    # The pipe's read end is closed before the CLI writes its few bytes,
    # so the write fails on the flush.  The acceptance run is stubbed.
    code = ("import sys; from polyresolve import cli; from polyresolve.oracles import Report; "
            "cli.run_acceptance = lambda: [Report('check', True, 'ok', 1)]; "
            f"sys.exit(cli.main({argv!r}))")
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-c", code], env=_env(),
                             stdout=write, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert run.returncode == 2
    assert run.stderr == "error: cannot write stdout: Broken pipe\n"


def test_stdout_closed_by_the_reader_midway_exits_two_without_a_traceback():
    # As in `polyresolve lowerbound ... | head -c 20`: the output is a few
    # MB, far more than a pipe holds, and the reader stops after 20 bytes.
    argv = ["lowerbound", "--shape", "100000,100000,100000,100000"]
    with subprocess.Popen([sys.executable, "-m", "polyresolve.cli", *argv], env=_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(20) == b'{"m": 400000, "n": 4'
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


# --- parser level errors and selftest ------------------------------------------------


def test_unknown_verb_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: verb"),
    (["gen", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
    (["oddcover", "--graph", "g.json", "--cap", "many"], "argument --cap: invalid int value: 'many'"),
])
def test_argparse_usage_errors_return_two(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["gen", "-h"]])
def test_help_returns_zero(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: polyresolve")


# The criteria themselves run once each in test_acceptance.py; these tests
# check the verb's wiring over stubbed reports.


def _stub_acceptance(monkeypatch, verdicts):
    reports = [Report(f"check-{i}", ok, "ok" if ok else "it broke", i) for i, ok in enumerate(verdicts)]
    monkeypatch.setattr(cli, "run_acceptance", lambda: reports)


def test_selftest_passes(monkeypatch, capsys):
    _stub_acceptance(monkeypatch, [True] * 11)
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"PASS check-{i}: ok ({i} ms)" for i in range(11)]
    assert lines[-1] == "11/11 checks passed"


def test_selftest_fails_on_one_failing_report(monkeypatch, capsys):
    _stub_acceptance(monkeypatch, [True, False, True])
    assert main(["selftest"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "PASS check-0: ok (0 ms)",
        "FAIL check-1: it broke (1 ms)",
        "PASS check-2: ok (2 ms)",
        "2/3 checks passed",
    ]


def test_selftest_prints_each_budget_next_to_the_time(monkeypatch, capsys):
    reports = [Report("upper-bound-10k", True, "ok", 5), Report("k2-bound-2k", True, "ok", 7)]
    monkeypatch.setattr(cli, "run_acceptance", lambda: reports)
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "PASS upper-bound-10k: ok (5 ms, budget 30 s)",
        "PASS k2-bound-2k: ok (7 ms)",
    ]


def test_parser_is_built_once(monkeypatch, capsys):
    assert main(["diameter", "--shape", "2,2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["diameter", "--shape", "3,1"]) == 0
    assert built == []
    assert capsys.readouterr().out.split() == ["3", "4"]
