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
