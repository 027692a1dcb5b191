"""Every top-level import in the library is read by its module.

A helper that is deleted can leave its imports behind; nothing else fails
when it does.  A package ``__init__`` imports in order to re-export, and
``__future__`` imports switch on language features, so both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sfperc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names a module's top-level imports bind that no expression in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nimport os.path\n"
              "from .errors import DomainError, RangeError\n"
              "def f(x: np.ndarray):\n    raise DomainError(math.pi)\n")
    assert unread_imports(source) == ["os", "RangeError"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []
