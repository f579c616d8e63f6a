"""Every name ``kwl`` exports is used by the package itself or by a demo.

A feature earns its place by feeding a suite check, a CLI command or a
walkthrough; an export read only by the tests belongs in the tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kwl"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


class _Reads(ast.NodeVisitor):
    """Names and attributes read outside the definition of the same name."""

    def __init__(self):
        self.names = set()
        self._inside = []

    def _definition(self, node):
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name, ctx):
        if isinstance(ctx, ast.Load) and name not in self._inside:
            self.names.add(name)

    def visit_Name(self, node):
        self._read(node.id, node.ctx)

    def visit_Attribute(self, node):
        self._read(node.attr, node.ctx)
        self.generic_visit(node)


def test_every_export_is_used_in_kwl_or_a_demo():
    reads = _Reads()
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for path in sources + sorted((ROOT / "demos").glob("*.py")):
        reads.visit(ast.parse(path.read_text()))
    assert sorted(_exports() - reads.names) == []


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _cross_module_private_reads(path):
    """``module._name`` reads and ``from .module import _name`` imports in
    one ``kwl`` module, for every other ``kwl`` module it imports."""
    tree = ast.parse(path.read_text())
    modules, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("kwl")):
            for alias in node.names:
                if node.module in (None, "kwl"):  # ``from . import stokes``
                    modules.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.append(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("kwl"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            reads.append(f"{node.value.id}.{node.attr}")
    return reads


def test_no_kwl_module_reads_another_modules_private_names():
    reads = {path.name: _cross_module_private_reads(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}
