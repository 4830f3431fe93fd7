"""The demos and the README's library example run against the package as it is."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import polyresolve

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env() -> dict:
    src = str(Path(polyresolve.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    run = subprocess.run(
        [sys.executable, str(demo)], env=_env(), capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert "certified lower bound" in run.stdout
