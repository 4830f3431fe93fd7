"""Fuzz of the command line over arbitrary JSON documents and arguments.

Whatever the input files hold, a verb ends in exit 0 (verified output),
1 (verification failure, with its ``"pass": false`` report) or 2 (usage or
input error), never in an uncaught exception; ``gen``, ``lowerbound`` and
``diameter`` end in 0 or 2.  Integers are small, so that a well-formed document
describes a small instance or graph, or far above ``jsonio.MAX_COUNT``, so
that a count drawn from them is refused before anything is sized by it.
The verbs that take no file, ``gen``, ``lowerbound`` and ``diameter``, get
each flag they accept with drawn values: shapes small, empty, negative,
not integers or above ``MAX_COUNT``; seeds, families and caps that argparse
refuses; ``--out`` and ``--dot`` in a missing directory or on a directory;
an unknown flag; and ``POLYRESOLVE_CAP`` valid, below 1 or not an integer,
set and restored in each example.  ``--exact`` always comes with a cap of
at most 1,000, by ``--cap`` or ``POLYRESOLVE_CAP``, since at the default
cap one exact diameter of eight clusters takes seconds.

Arbitrary JSON is almost never a valid graph, instance or certificate, so
a second fuzz draws documents the package writes itself (a small graph,
an instance of equal shapes, a certificate built for them) and perturbs
each at most once, dropping, repeating or swapping one entry: ``verify``
reaches exit 0 and 1 over its run, and the other file verbs exit 0.  It
also draws ``oddcover --exact`` on graphs of at most 7 vertices, which
reaches exit 0 and 2, and ``--dot`` to a writable file.
"""

from __future__ import annotations

import json
import os
import random
from collections import defaultdict
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyresolve.cli import _GEN_FAMILIES, main
from polyresolve.generators import random_delta4_graph, random_graph, random_instance
from polyresolve.jsonio import MAX_COUNT, emit_cover, emit_graph, emit_instance, emit_resolution
from polyresolve.oddcover import linear_forest_decomposition, path_odd_cover_general
from polyresolve.resolve import resolve

WIRE_KEYS = ("n", "m", "edges", "p", "p_prime", "bound", "family", "type", "taus", "kind", "parts")
WIRE_WORDS = ("resolution", "odd_cover", "path", "cycle", "linear_forest")

small_ints = st.integers(-2, 8)
huge_ints = st.integers(MAX_COUNT + 1, 10**18)
scalars = (
    st.none()
    | st.booleans()
    | small_ints
    | huge_ints
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.text(max_size=3)
    | st.sampled_from(WIRE_WORDS)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(WIRE_KEYS), inner, max_size=4),
    max_leaves=24,
)
# Documents shaped like the wire formats, with arbitrary values under their keys.
int_rows = st.lists(st.lists(small_ints, max_size=4), max_size=8)
wire_documents = st.dictionaries(
    st.sampled_from(WIRE_KEYS),
    json_values | int_rows | st.lists(small_ints, max_size=10) | huge_ints,
    max_size=len(WIRE_KEYS),
)
documents = wire_documents | json_values


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(verb=st.sampled_from(["resolve", "oddcover", "arboricity", "verify"]), doc=documents, other=documents)
def test_cli_exit_codes_on_arbitrary_json(tmp_path, capsys, verb, doc, other):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    first.write_text(json.dumps(doc))
    second.write_text(json.dumps(other))
    out = str(tmp_path / "out.json")
    if verb == "resolve":
        argv = ["resolve", "--instance", str(first), "--out", out]
    elif verb in ("oddcover", "arboricity"):
        argv = [verb, "--graph", str(first), "--out", out]
    else:
        argv = ["verify", "--instance", str(second), "--graph", str(second), str(first), "--out", out]
    code = main(argv)
    stdout = capsys.readouterr().out
    assert code in (0, 1, 2)
    if code == 1:
        # A failed check is reported: ``verify`` writes its report to
        # --out, a construction its failed check to stdout.
        report = json.loads(Path(out).read_text() if verb == "verify" else stdout)
        assert report["pass"] is False


def _perturbed(rng: random.Random, doc: dict, keys: tuple[str, ...]) -> dict:
    """doc, or doc with one entry of one of its lists (under one of
    ``keys``, or one level below) dropped, repeated or swapped with another."""
    how = rng.choice(("keep", "drop", "repeat", "swap"))
    key = rng.choice(keys)
    entries = doc[key] = list(doc[key])
    if entries and rng.random() < 0.5 and isinstance(entries[0], list):
        i = rng.randrange(len(entries))
        entries[i] = list(entries[i])
        entries = entries[i]
    if how == "drop" and entries:
        del entries[rng.randrange(len(entries))]
    elif how == "repeat" and entries:
        i = rng.randrange(len(entries))
        entries.insert(i, entries[i])
    elif how == "swap" and len(entries) > 1:
        i, j = rng.sample(range(len(entries)), 2)
        entries[i], entries[j] = entries[j], entries[i]
    return doc


@st.composite
def well_formed_runs(draw, tmp_path):
    """An argv of a file verb over seeded well-formed documents, each
    perturbed at most once: a small graph, an instance of equal shapes,
    and a certificate built for them by the package.  ``oddcover`` may
    search exactly, on a graph of at most 7 vertices, with ``--cap``
    unset, in 1..10**6 or below 1; the construction verbs may also write
    ``--dot`` to a writable file."""
    verb = draw(st.sampled_from(["resolve", "oddcover", "arboricity", "verify"]))
    exact = verb == "oddcover" and draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    out = str(tmp_path / "out.json")
    arboricity = verb == "arboricity" or rng.random() < 0.3
    g = (random_delta4_graph if arboricity else random_graph)(rng, 7 if exact else 9)
    instance = random_instance(rng, 8, 4)
    on_instance = verb == "resolve" or verb == "verify" and rng.random() < 0.5
    target, key = (emit_instance(instance), "--instance") if on_instance else (emit_graph(g), "--graph")
    cert = None
    if verb == "verify" and on_instance:
        cert = emit_resolution(resolve(*instance))
    elif verb == "verify":
        cert = emit_cover(linear_forest_decomposition(g) if arboricity else path_odd_cover_general(g))
    first.write_text(json.dumps(_perturbed(rng, target, ("p", "p_prime") if key == "--instance" else ("edges",))))
    argv = [verb, key, str(first), "--out", out]
    if verb == "oddcover":
        argv.append(f"--kind={draw(st.sampled_from(['path', 'cycle']))}")
    if exact:
        argv.append("--exact")
        cap = draw(st.none() | st.integers(1, 10**6) | st.integers(-2, 0))
        if cap is not None:
            argv.append(f"--cap={cap}")
    if verb != "verify" and draw(st.booleans()):
        argv.append(f"--dot={tmp_path / 'out.dot'}")
    if cert is not None:
        second.write_text(json.dumps(_perturbed(rng, cert, ("taus",) if key == "--instance" else ("parts",))))
        argv.append(str(second))
    return argv


def test_cli_exit_codes_on_perturbed_well_formed_documents(tmp_path, capsys):
    # Arbitrary JSON reaches only exit 2; documents the package wrote
    # itself, perturbed at most once, reach each verb's success and
    # verify's failed check too, and the exact cover both its success and
    # a refusal, of the cap or of an odd graph's cycle cover.
    reached = defaultdict(set)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def run(data):
        argv = data.draw(well_formed_runs(tmp_path))
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        reached[argv[0]].add(code)
        if "--exact" in argv:
            reached["oddcover --exact"].add(code)

    run()
    assert {0, 1} <= reached["verify"], dict(reached)
    assert {0, 2} <= reached["oddcover --exact"], dict(reached)
    assert all(0 in reached[verb] for verb in ("resolve", "oddcover", "arboricity")), dict(reached)


def _joined(ks) -> str:
    return ",".join(map(str, ks))


# Non-increasing shapes of four or more clusters are the hard instance's domain.
shape_texts = (
    st.lists(st.integers(0, 6), min_size=4, max_size=8).map(lambda ks: _joined(sorted(ks, reverse=True)))
    | st.lists(st.integers(0, 6), max_size=8).map(_joined)
    | st.lists(st.integers(-3, 3), min_size=1, max_size=5).map(_joined)
    | st.lists(huge_ints, min_size=1, max_size=3).map(_joined)
    | st.text(alphabet="0123456789,.- x", max_size=8)
)


# POLYRESOLVE_CAP values: valid, below 1, not integers, empty (the default).
small_env_caps = st.integers(-2, 1000).map(str) | st.sampled_from(["abc", "2.5", "1e3"])
env_caps = st.none() | st.just("") | st.just("100000") | small_env_caps


@st.composite
def argument_lists(draw, tmp_path):
    """An argv and the POLYRESOLVE_CAP to run it under (None: unset)."""
    verb = draw(st.sampled_from(["gen", "lowerbound", "diameter"]))
    argv = [verb]
    env_cap = draw(env_caps)
    if verb == "gen":
        argv.append(f"--family={draw(st.sampled_from([*sorted(_GEN_FAMILIES), 'nonsense']))}")
        argv.append(f"--seed={draw(st.integers(-(10**20), 10**20) | st.sampled_from(['1.5', 'x', '']))}")
    else:
        argv.append(f"--shape={draw(shape_texts)}")
    if verb == "diameter":
        cap = draw(st.none() | st.integers(-2, 1000) | st.sampled_from(["many", "2.5"]))
        if cap is not None:
            argv.append(f"--cap={cap}")
        if draw(st.booleans()):
            argv.append("--exact")
            # An exact diameter at the default cap can take seconds.
            if cap is None:
                env_cap = draw(small_env_caps)
    else:
        # A writable file, a file in a missing directory, or a directory.
        for flag, name in (("--out", "out.json"), ("--dot", "out.dot")):
            target = draw(st.sampled_from([None, tmp_path / name, tmp_path / "missing" / name, tmp_path]))
            if target is not None:
                argv.append(f"{flag}={target}")
        if draw(st.booleans()):
            argv.append("--show-loops")
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(["--frobnicate", "--kind=path", "--shape=3,3", "-x"])))
    return argv, env_cap


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_on_drawn_arguments(tmp_path, capsys, data):
    argv, env_cap = data.draw(argument_lists(tmp_path))
    with mock.patch.dict(os.environ):
        os.environ.pop("POLYRESOLVE_CAP", None)
        if env_cap is not None:
            os.environ["POLYRESOLVE_CAP"] = env_cap
        # None of these verbs has a check that can fail.
        assert main(argv) in (0, 2)
    capsys.readouterr()
