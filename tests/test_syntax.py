"""The package parses as the oldest Python that ``pyproject.toml`` allows
(``requires-python = ">=3.10"``), whichever interpreter runs the suite."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import polyresolve

MODULES = sorted(Path(polyresolve.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
