"""Every exported name has a caller in the package or a documented use, the
scipy.linalg seam of the Fock oracle and the numpy exponential of the flow
carry every call to their routines, and the flow never imports scipy."""

import ast
import importlib
import pathlib
import re

import numpy as np

from gaussgap.dynamics import GaussianStateParams, propagator, state_evolve
from gaussgap.fock import build_space, weyl_matrix
from gaussgap.model import build_drift_diffusion, one_dim_family

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


#: module-level names through which scipy.linalg is reached on first use
SCIPY_SEAMS = (("fock", "expm"),)

#: seams that are numpy routines and never reach scipy; the benchmark tracer
#: patches dynamics.expm by this name, as it does fock.expm
NUMPY_SEAMS = (("dynamics", "expm"),)


def _seam_results():
    dd = build_drift_diffusion(one_dim_family(3.0, 1.0, 2.0, 1.0))
    state = state_evolve(dd, GaussianStateParams.vacuum(1), 0.7)
    return [
        propagator(dd, np.array([0.0, 0.5, 2.0])),
        state.mean,
        state.cov2d,
        weyl_matrix(build_space(1, 6), [0.3 + 0.1j]),
    ]


def test_scipy_linalg_seams_carry_every_call(monkeypatch):
    expected = _seam_results()
    counts = dict.fromkeys(SCIPY_SEAMS + NUMPY_SEAMS, 0)
    for key in counts:
        module = importlib.import_module(f"gaussgap.{key[0]}")
        # a seam in __all__ would be wrapped twice by the tracer
        assert key[1] not in module.__all__
        inner = getattr(module, key[1])

        def counted(*args, _key=key, _inner=inner):
            counts[_key] += 1
            return _inner(*args)

        monkeypatch.setattr(module, key[1], counted)
    got = _seam_results()
    assert all(n > 0 for n in counts.values()), counts
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_numpy_seams_import_no_scipy():
    for module, _ in NUMPY_SEAMS:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        imported = [
            alias.name if isinstance(node, ast.Import) else node.module
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert not [name for name in imported if name and name.split(".")[0] == "scipy"], module
