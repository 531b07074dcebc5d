"""Every exported name has a caller in the package or a documented use."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gaussgap"
README = ROOT / "README.md"


class _References(ast.NodeVisitor):
    """Names read or attributes taken anywhere in a module, except inside
    the definition of the name itself, in imports and in ``__all__``."""

    def __init__(self):
        self.names = set()
        self._defining = []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if not any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            self.generic_visit(node)

    def _reference(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        self._reference(node.id)

    def visit_Attribute(self, node):
        self._reference(node.attr)
        self.generic_visit(node)


def _exports():
    """(module, name) for every name of gaussgap.__all__ and of each
    module's __all__."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                for name in ast.literal_eval(node.value):
                    yield path.stem, name


def test_every_export_is_used_or_documented():
    refs = _References()
    for path in SRC.glob("*.py"):
        refs.visit(ast.parse(path.read_text(encoding="utf-8")))
    readme = README.read_text(encoding="utf-8")
    unused = [
        f"{module}.{name}"
        for module, name in _exports()
        if name not in refs.names and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []
