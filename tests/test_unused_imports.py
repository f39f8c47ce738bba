"""Every name a module of the package imports is used in that module, and
every private name a module defines is read somewhere in the package.

A deletion that leaves an import behind (a type no longer referenced, a
helper no longer called) fails here. A use is any name the module's code
loads or stores, including names inside quoted annotations; in a package's
``__init__.py`` a name listed in ``__all__`` counts as used, since there the
import is the re-export. ``from __future__`` imports are directives, not
names.

A deletion that leaves a private helper behind fails here too: each
module-level name starting with one underscore must be read in some module
of the package, as a name, an attribute or an imported name; binding it is
not a read. No linter is needed: the standard library's ``ast`` reads the
source.
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


def _quoted_names(tree: ast.Module) -> set[str]:
    """The names inside the module's quoted annotations."""
    names = set()
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _quoted_names(tree)
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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name the module's top level binds, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names = [node.name]
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return defined


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: loaded, taken as an attribute, imported,
    or named inside a quoted annotation."""
    reads = _quoted_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads |= {alias.name for alias in node.names}
    return reads


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private module-level name that no
    module of `sources` (module name to source) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(_reads, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    )


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


def test_every_private_name_of_the_package_is_read_in_it():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_names(sources) == []


def test_unread_private_name_is_found():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_STORED_ONLY = 2\n"
            "_STORED_ONLY = 3\n"
            "def _helper() -> '_Quoted':\n"
            "    return _USED\n"
            "class _Quoted:\n"
            "    pass\n"
            "_a, (_b, _c) = 4, (5, 6)\n"
            "__all__ = []\n"
        ),
        "b.py": "from .a import _a\nimport a\nx = a._b\n",
    }
    assert unread_private_names(sources) == [
        ("a.py", 2, "_STORED_ONLY"),
        ("a.py", 4, "_helper"),
        ("a.py", 8, "_c"),
    ]
