"""numpy is the package's only runtime dependency.

Every import in ``src/morsegraph``, at any depth (module level, inside a
function, inside ``try``), must be relative, from the standard library, or
numpy.  An optional import that falls back silently when a package is
missing fails here, not in a slow sweep.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "morsegraph").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _foreign_imports(tree: ast.AST) -> list[str]:
    """The absolute imports of ``tree`` whose top-level module is not allowed."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in ALLOWED]


def test_sources_found():
    assert "cycles.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_only_stdlib_and_numpy_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _foreign_imports(tree) == []


def test_foreign_imports_are_caught():
    source = (
        "import numpy.linalg\n"
        "from . import graph\n"
        "from .errors import InvalidParameter\n"
        "def kernel():\n"
        "    try:\n"
        "        import numba\n"
        "    except ImportError:\n"
        "        from scipy.sparse import csr_matrix\n"
    )
    assert _foreign_imports(ast.parse(source)) == ["numba", "scipy.sparse"]


def test_argument_checks_have_one_owner():
    """``_integer`` and ``_real`` are defined in ``errors.py`` alone, and the
    closed forms of ``analytic.py`` take nothing from the sampler."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if path.name != "errors.py":
            assert not defined & {"_integer", "_real"}, path.name
        if path.name == "analytic.py":
            relative = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level]
            modules = {node.module or alias.name for node in relative for alias in node.names}
            assert "gnp" not in modules
