"""Every import in the package is used, or marked as kept for the tracer.

Each ``src/corank`` module but ``__init__.py`` (which re-exports) is
parsed with ``ast``.  An imported name that the module never reads must
carry ``# noqa: F401`` on its import's first line, and every such name
must be listed in ``test_traced_names.KEPT_FOR_THE_TRACER``.
"""

import ast
from pathlib import Path

import pytest

from test_traced_names import KEPT_FOR_THE_TRACER

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corank"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(name, marked) of each imported name the source never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = "# noqa: F401" in lines[node.lineno - 1]
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append((name, marked))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_each_unused_import_is_marked_and_kept_for_the_tracer(path):
    unused = unused_imports(path.read_text())
    assert [name for name, marked in unused if not marked] == []
    kept = {name for module, name in KEPT_FOR_THE_TRACER if module == path.stem}
    assert {name for name, marked in unused if marked} <= kept


def test_the_check_sees_unused_and_marked_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp  # noqa: F401\n"
        "from math import (  # noqa: F401\n"
        "    pi,\n"
        "    tau,\n"
        ")\n"
        "print(tau)\n"
    )
    assert unused_imports(source) == [("os", False), ("osp", True), ("pi", True)]
