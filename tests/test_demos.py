"""Static checks of the scripts in ``demos/``, which no other test runs.

Each script must compile, and every name it imports from spinopt must
exist, so that a change to the public API cannot break a demo unseen.
"""
import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
