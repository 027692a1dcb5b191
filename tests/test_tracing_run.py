from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np

import sfperc.experiments as experiments
import sfperc.graphgen as graphgen
from sfperc.experiments import ExperimentConfig
from sfperc.params import build_weights, model_params

ROOT = Path(__file__).resolve().parents[1]


def _load(name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_around_tiny_ensembles():
    # perfbench/run.py --trace 1 wraps the library from outside and reads
    # counts off arguments and return values; a change in src/ that breaks a
    # wrapper or a count would otherwise surface only in the benchmark
    tracing, checks = _load("tracing"), _load("checks")
    configs = [ExperimentConfig(kind, n_grid=(1000,), replicas=3, master_seed=5)
               for kind in ("exploration_limit", "single_vs_multi")]
    untraced = [checks.records_digest(experiments.run(config).records) for config in configs]

    ws = build_weights(model_params(2.5, 1.0, 1000))
    rng = np.random.default_rng(3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [checks.records_digest(experiments.run(config).records) for config in configs]
        # the samplers no experiment calls, through the module the tracer patched
        graphgen.percolate_coupled(graphgen.sample_mnr(ws, rng), 0.4, rng)
        graphgen.sample_percolated_mnr_direct(ws, 0.4, rng)
    finally:
        tracer.uninstall()

    assert traced == untraced
    # uninstall put every original back
    assert not hasattr(graphgen.sample_mnr, "__wrapped__")
    assert not hasattr(experiments.run, "__wrapped__")
    for name in tracing._COUNTERS:
        assert any(key.startswith(f"{name}.") for key in tracer.counts), name
    totals = tracer.layer_totals()
    assert totals["experiments.run"]["calls"] == 2
    assert totals["exploration.run_exploration"]["calls"] == 3
    assert tracer.counts["exploration.run_exploration.steps"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(tracing.layer_metrics(tracer)) | {"trace.overhead_frac"} == {
        m["name"] for m in declared}
