"""Checks of the scripts in ``demos/``, which no other test runs.

Each script must compile, every name it imports from spinopt must exist,
and it must run to exit 0, so that a change to the public API cannot break
a demo unseen: only a run catches a removed keyword or attribute.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Each demo takes about a second; the bound only stops a hung run.
RUN_TIMEOUT_S = 120


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_compiles_and_imports_exist(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    missing = []
    for node in ast.walk(ast.parse(source, str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spinopt":
            module = importlib.import_module(node.module)
            missing += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if not hasattr(module, alias.name)
            ]
    assert not missing, f"{path.name} imports names spinopt lacks: {missing}"


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, tmp_path):
    # run from an empty directory, so that a demo leaves nothing in the repo
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=RUN_TIMEOUT_S,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, f"{path.name} failed:\n{result.stderr}"
