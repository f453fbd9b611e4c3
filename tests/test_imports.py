"""Every module-level import of the package's modules is used by that module."""

import ast
from pathlib import Path

import pytest

import spectral_cascade as sc

PACKAGE = Path(sc.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# (module, name) pairs imported on purpose without a use
ALLOWED = {
    # bench/tests checks that the tracer wraps this second binding of solve_xi
    ("cascade", "solve_xi"),
}


def _unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and (path.stem, name) not in ALLOWED)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []
