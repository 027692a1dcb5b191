from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
