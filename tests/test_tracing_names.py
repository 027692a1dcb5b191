from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def test_traced_names_resolve():
    # perfbench/tracing.py wraps library functions by name; a rename or a
    # deletion in src/ would otherwise break only `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing._FUNCTIONS
    for layer, names in tracing._FUNCTIONS.items():
        module = importlib.import_module(f"sfperc.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"sfperc.{layer}.{name}"
    graphgen = importlib.import_module("sfperc.graphgen")
    for cls_name in ("MultiGraph", "SimpleGraph"):
        cls = getattr(graphgen, cls_name)
        assert callable(getattr(cls, "validate", None)), cls_name
        # the tracer patches each class; an inherited validate would be wrapped twice
        assert "validate" in vars(cls), cls_name


def test_benchmark_imports_resolve():
    # the worker and the workloads import library names inside functions; a
    # rename in src/ would otherwise break only the benchmark's runs
    imported = [(node.module, alias.name)
                for script in ("worker.py", "workloads.py")
                for node in ast.walk(ast.parse((PERFBENCH / script).read_text()))
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sfperc")
                for alias in node.names]
    assert ("sfperc.params", "make_schedule") in imported
    for module_name, name in imported:
        assert hasattr(importlib.import_module(module_name), name), f"{module_name}.{name}"
