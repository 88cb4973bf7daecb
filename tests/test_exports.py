"""The package's public names: every entry of ``graphfix.__all__`` must
resolve, so an API deleted from its module cannot stay exported, and
every public function and class, and every public field and method of a
public class, must have a use besides its definition."""

import ast
import re
from collections import Counter
from pathlib import Path

import graphfix


def test_every_exported_name_resolves():
    missing = [name for name in graphfix.__all__ if not hasattr(graphfix, name)]
    assert missing == []
    assert len(set(graphfix.__all__)) == len(graphfix.__all__)


def test_star_import_gives_the_exported_names():
    namespace = {}
    exec("from graphfix import *", namespace)
    assert set(graphfix.__all__) <= set(namespace)


_ROOT = Path(__file__).resolve().parents[1]


def _defined_name(node) -> str | None:
    """The name a function, class or annotated field definition defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _public_definitions() -> list[tuple[str, str]]:
    """(module, name) of every public top-level function and class, and
    (module, "Class.name") of every public field and method of a public
    class."""
    found = []
    for path in sorted((_ROOT / "src" / "graphfix").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            name = _defined_name(node)
            if isinstance(node, ast.AnnAssign) or not name or name.startswith("_"):
                continue
            found.append((path.stem, name))
            if isinstance(node, ast.ClassDef):
                members = (_defined_name(item) for item in node.body)
                found += [(path.stem, f"{name}.{m}") for m in members
                          if m and not m.startswith("_")]
    return found


def test_every_public_definition_has_a_use():
    # "no public API that nothing uses": a name whose only word in src/,
    # perfbench/ and README is its own definition has no caller there
    texts = [p.read_text(encoding="utf-8") for p in (
        *(_ROOT / "src" / "graphfix").glob("*.py"),
        *(_ROOT / "perfbench").glob("*.py"),
        _ROOT / "README.md",
    )]
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    unused = [f"{module}.{name}" for module, name in _public_definitions()
              if words[name.rsplit(".", 1)[-1]] < 2]
    assert unused == []
