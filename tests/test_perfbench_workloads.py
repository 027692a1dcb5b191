from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from sfperc.experiments import EXPERIMENTS
from sfperc.params import MODES

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_workload_configs_build(monkeypatch):
    # perfbench/workloads.py names experiments and reads the config's mode; a
    # rename in src/ would otherwise break only `perfbench/run.py`
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass resolves annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for w in workloads.WORKLOADS.values():
        config = workloads.make_config(w, 10**6, 1, 2)
        assert config.experiment == w.experiment and config.experiment in EXPERIMENTS
        assert config.mode in MODES and config.mode == EXPERIMENTS[w.experiment].mode
        assert (config.n_grid, config.master_seed, config.replicas) == ((10**6,), 1, 2)
