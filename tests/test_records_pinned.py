"""Records pinned byte for byte: a change that keeps the sampling and the
analyses must leave these digests of the canonical records alone.

A digest here moves only with a deliberate change of what a replica draws or
records, which also bumps ``RESULT_VERSION``; then the new values are pinned.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from sfperc.experiments import RESULT_VERSION, ExperimentConfig, run

# The benchmark's own digest: sha256 of the records sorted by (n, replica),
# as canonical JSON.
_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
_spec = importlib.util.spec_from_file_location("perfbench_checks", _CHECKS)
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# (experiment, n_grid, digest) at replicas=3, master_seed=1.  The core
# experiment's constant-10 rule is infeasible at n = 1e4, so it runs higher.
PINNED = [
    ("multi_giant", (10**4, 10**5),
     "95e73460b2454e9b71e8b238ee25f2ee909b7d5bff5cfa5db9538915db49a8d5"),
    ("single_vs_multi", (10**4, 10**5),
     "4bdbd3854782122f5bf06577b05e98583b0127bd63eb1ec11246963e8f80b770"),
    ("one_neighborhood", (10**5, 3 * 10**5),
     "3747aa6675af5456d8b5c04335dd4171357f440ed50e425d24e6c65d4700c3ad"),
    ("residual_components", (10**4, 10**5),
     "6796dee59172d88fe47e04c57a3039add781620635e825ded38d92a3e7b64c44"),
    ("exploration_limit", (10**4, 10**5),
     "f9625a7ebe829833005e31f5633fc5d3e323e76688ede99556928c70733f9c68"),
    ("repeat_fraction", (10**4, 10**5),
     "610d696c03b6f4198f3b73f7abe6e12d44e7e9f488bd144228be7f89241e65fa"),
]


@pytest.mark.parametrize("experiment, n_grid, digest", PINNED, ids=[p[0] for p in PINNED])
def test_records_digest_pinned(experiment, n_grid, digest):
    assert RESULT_VERSION == 2
    result = run(ExperimentConfig(experiment, n_grid=n_grid, replicas=3, master_seed=1))
    assert checks.records_digest(result.records) == digest
