"""Every public name, and every top-level function and class, has a
caller: ``src/``, a demo, a README code block or the console script.  The
names that only the benchmark's by-name wrappers still bind are listed, and
each must really be one of those; the definitions only they reach are
listed too, so package code that starts using one again fails here."""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import polyresolve

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(polyresolve.__file__).resolve().parent

# Bound by name in ``perfbench/spans.py``'s ``TARGETS``, and reached from no
# demo, README code block or console script; they can go once the benchmark
# reads a trace of its own.
KEPT_FOR_PERFBENCH = (
    "balanced_permutation_factorization",
    "directed_polycycle_decomposition",
    "polycycle_odd_cover",
    "forest_stats",
    "linear_forests_from_transversal",
    "flexible_exchange",
    "transversal_odd_intersection",
    "transversal_even_intersection",
    "pcycles_from_pair",
    "pcycles_from_balanced",
    "parse_report",
)

# Top-level definitions reached only through ``KEPT_FOR_PERFBENCH`` and the
# other bound names; they go with those names.
REACHED_ONLY_FROM_PERFBENCH = (
    "Permutation",
    "is_p_balanced",
    "_canon",
    "_span",
    "_check_transversal",
    "_polycycle_pair",
)


def _exported() -> dict[str, str]:
    """Each name in a package module's ``__all__``, with its module."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                out.update(dict.fromkeys(ast.literal_eval(node.value), path.stem))
    return out


def _used(tree: ast.AST) -> set[str]:
    """Names read and attributes taken under ``tree``."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _definitions() -> dict[str, str]:
    """Each top-level function and class of a package module, with its module."""
    return {node.name: path.stem for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def _called(also: set[str] = frozenset()) -> set[str]:
    """The names reached from a demo, a README code block, a console
    script or ``also``, following the bodies of the package's top-level
    definitions.  A name only a dead definition uses is not reached; an
    import is no use."""
    bodies: dict[str, set[str]] = {}
    roots: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, set()).update(_used(node))
            elif isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
                for target in node.targets:
                    bodies.setdefault(target.id, set()).update(_used(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _used(node)
    for path in (ROOT / "demos").glob("*.py"):
        roots |= _used(ast.parse(path.read_text()))
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```[a-z]*\n(.*?)```", readme, re.S):
        roots |= set(re.findall(r"\w+", block))
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]", 1)[1]
    roots |= set(re.findall(r'^\w+\s*=\s*"[\w.]+:(\w+)"', scripts.split("\n[", 1)[0], re.M))
    reached, todo = set(), list(roots | also)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(bodies.get(name, ()))
    return reached


def _bound_by_perfbench() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {name.split(".")[0] for targets in spans.TARGETS.values() for name, _ in targets}


def test_every_public_name_has_a_caller():
    exported = _exported()
    unused = sorted(set(exported) - _called())
    assert unused == sorted(KEPT_FOR_PERFBENCH), [(name, exported[name]) for name in unused]


def test_every_definition_has_a_caller():
    # Private helpers too: the definitions no caller reaches are exactly the
    # pinned ones, and the benchmark's bound names reach each of them.
    definitions = _definitions()
    unused = set(definitions) - _called()
    pinned = set(KEPT_FOR_PERFBENCH) | set(REACHED_ONLY_FROM_PERFBENCH)
    assert unused == pinned, {name: definitions.get(name) for name in unused ^ pinned}
    assert unused <= _called(_bound_by_perfbench())


def test_names_kept_for_the_benchmark_are_bound_by_it():
    assert set(KEPT_FOR_PERFBENCH) <= set(_exported())
    assert set(KEPT_FOR_PERFBENCH) <= _bound_by_perfbench()


# Each import of a private name from another package module: a core that a
# public name wraps, called past its checks.  A new entry is a caller that
# reaches into a module's core, and is added here on purpose or not at all.
PRIVATE_IMPORTS = {
    ("cli", "oddcover", "_make_cert"),
    ("oracles", "oddcover", "_make_cert"),
    ("oddcover", "graphs", "_links"),
    ("oddcover", "polycycles", "_polycycle_cover"),
    ("resolve", "graphs", "_links"),
    ("resolve", "perms", "_fault"),
    ("resolve", "perms", "_walk"),
    ("resolve", "polycycles", "_factorize"),
}


def test_cross_module_private_imports_are_pinned():
    found = {(path.stem, node.module.rsplit(".", 1)[-1], alias.name)
             for path in PACKAGE.glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module
             and (node.level or node.module.split(".")[0] == "polyresolve")
             for alias in node.names if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS
