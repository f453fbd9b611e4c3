"""Every module-level import of the package's modules, its tests and its scripts
is used by that module."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spectral_cascade as sc

PACKAGE = Path(sc.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parents[1]
# bench/ is left out: its files change only together with the benchmark
SCANNED = MODULES + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))

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


@pytest.mark.parametrize(
    "path", SCANNED, ids=lambda p: p.stem if p.parent == PACKAGE else f"{p.parent.name}/{p.stem}")
def test_no_unused_module_imports(path):
    assert _unused_imports(path) == []


LAPACK_NAME = re.compile(r"\b(np|numpy)\.linalg\b|_umath_linalg")


def _lapack_references(path: Path) -> list:
    """(line, dotted name) of every attribute, name and import in the module
    that reaches numpy.linalg or its gufuncs."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Attribute, ast.Name)):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if LAPACK_NAME.search(name)]
    return sorted(set(found))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_linalg_calls_lapack(path):
    """linalg.py is the one module that reaches numpy.linalg, so every LAPACK
    call goes through its gufunc bindings."""
    found = _lapack_references(path)
    if path.stem == "linalg":
        assert any("_umath_linalg" in name for _, name in found)
    else:
        assert found == []


def test_cli_import_loads_no_scipy():
    probe = ("import sys, spectral_cascade.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert out.stdout.strip() == "[]"


# dataclass fields that no code reads by attribute on purpose
UNREAD_ALLOWED = {
    # format-2 split certificates store it through dataclasses.asdict, and
    # verify rederives it with every other TransformConstants field
    ("TransformConstants", "n_dom"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_loads(tops) -> set:
    """Every attribute name loaded anywhere under the given top-level folders."""
    read = set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            read |= {node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return read


def test_every_dataclass_field_is_read():
    fields = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                fields |= {(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
    read = _attribute_loads(("src", "tests", "bench", "scripts"))
    unread = sorted(f for f in fields if f[1] not in read and f not in UNREAD_ALLOWED)
    assert unread == []


# (class, name) of public methods and properties that nothing in src/, bench/
# or scripts/ reads by attribute on purpose, each with its reason; none so far
UNCALLED_ALLOWED = set()

# a public method or property name that more than one class defines: a read of
# the name does not say whose member it reads, so each is listed with its
# readers, one per defining class
SHARED_NAME_READERS = {
    "d": "BlockStructure.d in DiagonalModel.d, DiagonalModel.d in InstanceSpec.L_n, "
         "SplitProblem.d in SplitProblem.__post_init__",
    "power": "Block.power in DiagonalModel.power, DiagonalModel.power in DiagonalModel.matrix",
    "unit_power": "RotationBlock.unit_power and ScalarBlock.unit_power in Block.power, "
                  "DiagonalPowers.at and cascade's stage loop",
}


def test_every_public_method_is_called():
    """A public method or property is read by attribute somewhere in src/,
    bench/ or scripts/; one whose name another class shares counts as read
    only when SHARED_NAME_READERS lists its readers."""
    methods = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                methods |= {(node.name, stmt.name) for stmt in node.body
                            if isinstance(stmt, ast.FunctionDef)
                            and not stmt.name.startswith("_")}
    names = [name for _, name in methods]
    shared = {name for name in names if names.count(name) > 1}
    assert shared == SHARED_NAME_READERS.keys()
    read = _attribute_loads(("src", "bench", "scripts"))
    uncalled = sorted(m for m in methods if m[1] not in read and m not in UNCALLED_ALLOWED)
    assert uncalled == []


def _name_loads(tops) -> set:
    """Every name and attribute name loaded anywhere under the given top-level folders."""
    read = set()
    for top in tops:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
    return read


def test_every_public_function_is_used():
    """A module-level public function or class of the package is used by name in
    src/, bench/ or scripts/: none has its own unit test as its only caller
    (an import alone, such as a re-export in __init__.py, is no use)."""
    defined = set()
    for path in MODULES:
        defined |= {(path.stem, node.name) for node in ast.parse(path.read_text()).body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
    read = _name_loads(("src", "bench", "scripts"))
    assert sorted(d for d in defined if d[1] not in read) == []


def _readers(path: Path, name: str) -> set:
    """The functions of a module (innermost, as "module.function") that load
    ``name`` as a name or an attribute; "module.<module>" for a top-level read."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            if getattr(node, "id", getattr(node, "attr", None)) == name:
                found.add(f"{path.stem}.{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_one_singularity_rule():
    """SINGULAR_SCALE_TOL is read only by linalg._below_threshold, the one
    singularity test (of invert and polar_2x2 alike), and by
    linalg._certificate_limit, whose Frobenius bound proves that test passes:
    no third singularity rule creeps back."""
    readers = set().union(*(_readers(path, "SINGULAR_SCALE_TOL") for path in MODULES))
    assert readers == {"linalg._below_threshold", "linalg._certificate_limit"}
