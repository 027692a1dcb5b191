"""Outside-in tracing of the sfperc layers.

The benchmark never edits the library.  `Tracer.install` replaces each
traced function with a wrapper in every `sfperc.*` module namespace that
holds it (so `sfperc.experiments.sample_mnr` and the nested
`sfperc.components.component_sizes` lookup inside `core_report` are both
caught), and the `validate` methods on the graph classes.  Each call records
a span (name, start, end, parent span, thread id) in memory plus counts read
off its arguments and return value.  `uninstall` restores the originals.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _graph_pairs(g) -> int:
    return int(g.src.size)


# span name -> counter(args, result) returning {count name: increment}
_COUNTERS = {
    "graphgen.sample_mnr": lambda args, g: {
        "slots": int(g.mult.sum()), "pairs": _graph_pairs(g),
    },
    "graphgen.percolate_coupled": lambda args, out: {
        "pairs_in": _graph_pairs(args[0]),
        "pairs_kept": _graph_pairs(out[0]),
        "multi_pairs_in": int(np.count_nonzero(args[0].mult >= 2)),
    },
    "graphgen.sample_percolated_mnr_direct": lambda args, g: {"pairs": _graph_pairs(g)},
    "graphgen.draw_marks": lambda args, marks: {"marks": int(marks.size)},
    "components.component_sizes": lambda args, out: {"edges_in": _graph_pairs(args[0])},
    "exploration.run_exploration": lambda args, trace: {"steps": int(trace.steps)},
}

# Functions whose every sfperc namespace binding is wrapped: the ones the
# declared metrics name.  Helpers left unwrapped count as their caller's self
# time, so core_report.self_s is core extraction, the one-neighborhood count
# and the kernel check, and experiments.run.self_s holds orchestration,
# aggregation and the theory block.
_FUNCTIONS = {
    "params": ("build_weights",),
    "theory": ("compute_constants", "core_limit"),
    "graphgen": ("sample_mnr", "percolate_coupled", "sample_percolated_mnr_direct",
                 "draw_marks"),
    "components": ("component_sizes", "core_report"),
    "exploration": ("run_exploration", "sup_distance_to_limit"),
    "experiments": ("run",),
}


class Tracer:
    """Span recorder with the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, thread, child_s]
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "sfperc" or name.startswith("sfperc.")}
        for layer, names in _FUNCTIONS.items():
            home = modules[f"sfperc.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                bindings = [(mod, attr) for mod in modules.values()
                            for attr, value in list(vars(mod).items()) if value is original]
                for mod, attr in bindings:
                    self._patch(mod, attr, wrapped)
        for cls_name in ("MultiGraph", "SimpleGraph"):
            cls = getattr(modules["sfperc.graphgen"], cls_name)
            self._patch(cls, "validate", self._wrap("graphgen.validate", cls.validate))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, lock, local = self.spans, self._lock, self._local
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, threading.get_ident(), 0.0]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][5] += span[2] - span[1]
            if counter is not None:
                for key, inc in counter(args, result).items():
                    counts[f"{name}.{key}"] += inc
            return result

        return traced

    # -- reading ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (span time) and self_s (minus child spans)."""
        out: dict[str, dict[str, float]] = {}
        for name, start, end, _parent, _tid, child_s in self.spans:
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_s
        return out

    def self_time_sum(self) -> float:
        return sum(end - start - child_s for _n, start, end, _p, _t, child_s in self.spans)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tid, _child in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "thread": tid}) + "\n")


# The declared per-layer metrics: span fields per span name, then counts.
_SPAN_METRICS = {
    "graphgen.sample_mnr": ("busy_s", "calls"),
    "graphgen.percolate_coupled": ("busy_s",),
    "graphgen.sample_percolated_mnr_direct": ("busy_s",),
    "graphgen.draw_marks": ("busy_s",),
    "graphgen.validate": ("busy_s", "calls"),
    "components.component_sizes": ("busy_s", "calls"),
    "components.core_report": ("self_s",),
    "exploration.run_exploration": ("self_s",),
    "exploration.sup_distance_to_limit": ("busy_s",),
    "params.build_weights": ("busy_s",),
    "theory.compute_constants": ("busy_s",),
    "theory.core_limit": ("busy_s",),
    "experiments.run": ("self_s",),
}
_COUNT_METRICS = (
    "graphgen.sample_mnr.slots", "graphgen.sample_mnr.pairs",
    "graphgen.percolate_coupled.multi_pairs_in", "graphgen.sample_percolated_mnr_direct.pairs",
    "graphgen.draw_marks.marks", "components.component_sizes.edges_in",
    "exploration.run_exploration.steps",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics the benchmark declares, from spans and counts.

    A layer the workload never calls reads 0 (calls, times and counts alike).
    """
    totals = tracer.layer_totals()
    counts = tracer.counts
    metrics = {f"{name}.{field}": float(totals.get(name, {}).get(field, 0))
               for name, fields in _SPAN_METRICS.items() for field in fields}
    metrics.update({key: float(counts.get(key, 0)) for key in _COUNT_METRICS})
    pairs_in = counts.get("graphgen.percolate_coupled.pairs_in", 0)
    kept = counts.get("graphgen.percolate_coupled.pairs_kept", 0)
    metrics["graphgen.percolate_coupled.retained_ratio"] = kept / pairs_in if pairs_in else 0.0
    return metrics
