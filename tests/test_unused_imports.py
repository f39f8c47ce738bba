"""Every name a module of the package imports is used in that module.

A deletion that leaves an import behind (a type no longer referenced, a
helper no longer called) fails here. A use is any name the module's code
loads or stores, including names inside quoted annotations; in a package's
``__init__.py`` a name listed in ``__all__`` counts as used, since there the
import is the re-export. ``from __future__`` imports are directives, not
names. No linter is needed: the standard library's ``ast`` reads the source.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "srgate"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            yield node.returns


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that `source` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted((line, name) for name, line in _imported(tree).items() if name not in used)


def test_the_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES and len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .records import GateDecision, SRLevel\n"
        "from .quality import Clip\n"
        "def f(level: SRLevel) -> 'Clip':\n"
        "    return level\n"
    )
    assert unused_imports(source) == [(2, "np"), (3, "GateDecision")]


def test_dunder_all_counts_as_a_use():
    source = "from .gating import gate, gate_adaptive\n__all__ = ['gate']\n"
    assert unused_imports(source) == [(1, "gate_adaptive")]
