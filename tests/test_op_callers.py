"""Every public function of ``autodiff.py`` has a caller in another package
module; a generic op that loses its last one moves to ``tests/oracles.py``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magvlaq"


def _autodiff_names(tree: ast.Module) -> set[str]:
    """The names a module binds to the autodiff module itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "magvlaq"):
            names |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
        elif isinstance(node, ast.Import):
            names |= {a.asname for a in node.names
                      if a.name == "magvlaq.autodiff" and a.asname}
    return names


def _references(path: Path) -> set[str]:
    """Autodiff attributes a module reads, and names it imports from autodiff."""
    tree = ast.parse(path.read_text())
    modules = _autodiff_names(tree)
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in ("autodiff", "magvlaq.autodiff"):
            used |= {a.name for a in node.names}
    return used


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    tree = ast.parse((PACKAGE / "autodiff.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(_references(p) for p in PACKAGE.glob("*.py")
                         if p.name != "autodiff.py"))
    assert {"add", "backward", "concat_rows", "mlp_forward"} <= public
    assert not public - used, f"no caller outside autodiff.py: {sorted(public - used)}"
