"""The benchmark's traced runs patch the names in perfbench/tracing.py's
BOUNDARIES; each one must still resolve, or the traced run crashes."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BOUNDARIES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("BOUNDARIES not found in perfbench/tracing.py")


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in _boundaries()])
def test_trace_boundary_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
