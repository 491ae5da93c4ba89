"""Every public function of ``autodiff.py`` and ``params.py`` has a caller in
another package module; a generic op that loses its last one moves to
``tests/oracles.py``, and a helper with one caller folds into it."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "magvlaq"


def _module_names(tree: ast.Module, module: str) -> set[str]:
    """The names a module binds to the package module ``module`` itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "magvlaq"):
            names |= {a.asname or a.name for a in node.names if a.name == module}
        elif isinstance(node, ast.Import):
            names |= {a.asname for a in node.names
                      if a.name == f"magvlaq.{module}" and a.asname}
    return names


def _references(path: Path, module: str) -> set[str]:
    """Attributes of ``module`` a file reads, and names it imports from it."""
    tree = ast.parse(path.read_text())
    modules = _module_names(tree, module)
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module in (module, f"magvlaq.{module}"):
            used |= {a.name for a in node.names}
    return used


def _public_and_uncalled(module: str) -> tuple[set[str], set[str]]:
    """Public functions of ``module`` and those no other package module uses."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set().union(*(_references(p, module) for p in PACKAGE.glob("*.py")
                         if p.name != f"{module}.py"))
    return public, public - used


def test_every_public_autodiff_function_has_a_caller_in_the_package():
    public, uncalled = _public_and_uncalled("autodiff")
    assert {"add", "backward", "concat_rows", "mlp_forward"} <= public
    assert not uncalled, f"no caller outside autodiff.py: {sorted(uncalled)}"


def test_every_public_params_function_has_a_caller_in_the_package():
    public, uncalled = _public_and_uncalled("params")
    assert {"init_mlp", "init_weight"} <= public
    assert not uncalled, f"no caller outside params.py: {sorted(uncalled)}"
