"""Every name a module of the package imports is used in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import groupoidqm

PACKAGE = Path(groupoidqm.__file__).parent
# names kept on purpose, with the reason
KEPT = {("channels.py", "hermitian_eigh"): "perfbench's tracer test wraps this binding"}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [
        name for name in imported_names(tree)
        if name not in used and (path.name, name) not in KEPT
    ]
    assert unused == []
