"""Every top-level import in the library is read by its module, and only
``experiments`` touches files.

A helper that is deleted can leave its imports behind; nothing else fails
when it does.  A package ``__init__`` imports in order to re-export, and
``__future__`` imports switch on language features, so both are exempt.
Every artifact is written by ``experiments``' one atomic writer, so no other
module may import the file modules or call ``open``.
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


_FILE_MODULES = {"csv", "os", "pathlib", "tempfile"}
# The one module that reads configs and writes every artifact.
_WRITER = SRC / "experiments.py"


def file_access(source: str) -> list[str]:
    """The file modules a module imports, anywhere in it, and its ``open`` calls."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in _FILE_MODULES]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] in _FILE_MODULES):
            found.append(node.module)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "open"):
            found.append("open()")
    return found


def test_file_access_is_found():
    source = ("import numpy as np\nfrom pathlib import Path\n"
              "def dump(x, path):\n    import csv, os.path\n"
              "    with open(path, 'w') as fh:\n        np.savetxt(fh, x)\n")
    assert file_access(source) == ["pathlib", "csv", "os.path", "open()"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p != _WRITER],
                         ids=lambda p: p.name)
def test_only_experiments_touches_files(path):
    assert file_access(path.read_text()) == []
