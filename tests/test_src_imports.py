"""Every top-level import in the library is read by its module, every
top-level function, class and constant is read somewhere, only
``experiments`` touches files, a dataclass is used only where it pays, an
experiment row holds only functions of ``experiments``, and no module sizes
two of its blocked passes by two constants of one value.

A helper that is deleted can leave its imports behind, and a caller that is
deleted can leave its helper or constant behind; nothing else fails when
they do.  A package ``__init__`` imports in order to re-export, and
``__future__`` imports switch on language features, so both are exempt.
A name counts as read where the library, the tests or the benchmark read it,
or where perfbench's tracer names it, but not in its own definition.
Every artifact is written by ``experiments``' one atomic writer, so no other
module may import the file modules or call ``open``.  A frozen dataclass
costs its generated methods at import; a record that needs no
``__post_init__``, ``cached_property`` or ``field(default_factory=...)`` is
a ``NamedTuple``, which keeps methods, properties and classmethods.
Perfbench's tracer wraps a layer function where a module's globals bind it,
so a row that held ``core_limit`` itself would call the unwrapped function
and the layer's spans would read 0 with nothing failing.  Two ``*_BLOCK``
or ``*_CHUNK`` constants of one value in one module are one block size under
two names, a fork no measurement tells apart.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from sfperc.experiments import EXPERIMENTS
from sfperc.theory import core_limit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sfperc"
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
              "from .errors import ConfigError, DomainError\n"
              "def f(x: np.ndarray):\n    raise DomainError(math.pi)\n")
    assert unread_imports(source) == ["os", "ConfigError"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The names the expressions of ``tree`` read, bare or as attributes, outside ``skip``."""
    read, todo = set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return read


def unread_definitions(source: str, elsewhere: set[str]) -> list[str]:
    """The top-level functions, classes and constants of a module, dunders
    aside, that neither ``elsewhere`` holds nor the module reads outside
    their own definition."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(t.id, node) for t in targets
                        if isinstance(t, ast.Name) and not t.id.startswith("__")]
    return [name for name, node in defined
            if name not in elsewhere and name not in names_read(tree, skip=node)]


def test_unread_definitions_are_found():
    source = ("import numpy as np\n_BLOCK = 4\n_LEFT = 2\n__version__ = '1'\n"
              "def used(x):\n    return np.split(x, _BLOCK)\n"
              "def recursive(k):\n    return recursive(k - 1) if k else 0\n"
              "class Shape:\n    def grow(self):\n        return Shape()\n"
              "def traced():\n    pass\n")
    assert unread_definitions(source, {"used", "traced"}) == ["_LEFT", "recursive", "Shape"]


def traced_names() -> set[str]:
    """The layer and function names perfbench's tracer wraps by name."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", "") == "_FUNCTIONS" for t in node.targets))
    return {node.value for node in ast.walk(table) if isinstance(node, ast.Constant)}


def test_every_top_level_definition_is_read():
    reads = {p: names_read(ast.parse(p.read_text()))
             for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))}
    traced = traced_names()
    unread = []
    for path in sorted(SRC.glob("*.py")):
        elsewhere = traced.union(*(read for p, read in reads.items() if p != path))
        unread += [f"{path.name}: {name}"
                   for name in unread_definitions(path.read_text(), elsewhere)]
    assert unread == []


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


def _name(node: ast.expr) -> str:
    """The called or named thing's last name: ``field`` for ``dataclasses.field(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def unneeded_dataclasses(source: str) -> list[str]:
    """``@dataclass`` classes with no ``__post_init__``, ``cached_property`` or
    ``field(default_factory=...)``: none of what a NamedTuple lacks."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef)
                and any(_name(d) == "dataclass" for d in cls.decorator_list)):
            continue
        needs = any(
            (isinstance(node, ast.FunctionDef)
             and (node.name == "__post_init__"
                  or any(_name(d) == "cached_property" for d in node.decorator_list)))
            or (isinstance(node, ast.Call) and _name(node) == "field"
                and any(k.arg == "default_factory" for k in node.keywords))
            for node in ast.walk(cls))
        if not needs:
            found.append(cls.name)
    return found


def test_unneeded_dataclasses_are_found():
    source = ("import dataclasses\nfrom dataclasses import dataclass, field\n"
              "from functools import cached_property\n"
              "@dataclass(frozen=True)\nclass Plain:\n    n: int\n"
              "    def size(self):\n        return self.n\n"
              "@dataclasses.dataclass\nclass Checked:\n    n: int\n"
              "    def __post_init__(self):\n        assert self.n\n"
              "@dataclass(frozen=True)\nclass Cached:\n    n: int\n"
              "    @cached_property\n    def twice(self):\n        return 2 * self.n\n"
              "@dataclass\nclass Listed:\n    xs: list = field(default_factory=list)\n"
              "@dataclass\nclass Defaulted:\n    n: int = field(default=0)\n")
    assert unneeded_dataclasses(source) == ["Plain", "Defaulted"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_dataclass_needs_its_generated_methods(path):
    assert unneeded_dataclasses(path.read_text()) == []


def foreign_callables(rows: dict) -> list[str]:
    """``name.field`` of each callable in the experiment rows that is defined
    outside ``sfperc.experiments``."""
    return [f"{name}.{field}" for name, row in rows.items()
            for field, value in zip(row._fields, row)
            if callable(value) and value.__module__ != "sfperc.experiments"]


def test_foreign_callables_are_found():
    row = EXPERIMENTS["one_neighborhood"]
    rows = {"core": row._replace(theory=core_limit), "same": row}
    assert foreign_callables(rows) == ["core.theory"]


def test_experiment_rows_hold_only_experiments_functions():
    assert foreign_callables(EXPERIMENTS) == []


def repeated_block_sizes(source: str) -> list[str]:
    """Each module-level ``*_BLOCK`` or ``*_CHUNK`` constant that binds the
    value of one bound before it in the same module."""
    first, repeats = {}, []
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) and node.value else [])
        for t in targets:
            if isinstance(t, ast.Name) and t.id.endswith(("_BLOCK", "_CHUNK")):
                value = eval(compile(ast.Expression(node.value), "<size>", "eval"), {})
                if value in first:
                    repeats.append(f"{t.id} = {first[value]}")
                else:
                    first[value] = t.id
    return repeats


def test_repeated_block_sizes_are_found():
    source = ("_MARK_BLOCK = 1 << 16\n_HOOK_BLOCK = 1 << 17\n_PAIR_CHUNK = 65536\n"
              "_CHUNK = 2 ** 16\nBLOCKS = 1 << 16\n_OFFSET_BLOCK: int = 1 << 16\n"
              "def f():\n    _LOCAL_BLOCK = 1 << 16\n")
    assert repeated_block_sizes(source) == ["_PAIR_CHUNK = _MARK_BLOCK", "_CHUNK = _MARK_BLOCK",
                                            "_OFFSET_BLOCK = _MARK_BLOCK"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_binds_one_block_size_twice(path):
    assert repeated_block_sizes(path.read_text()) == []
