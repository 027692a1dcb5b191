"""Records and whole reports pinned byte for byte: a change that keeps the
sampling and the analyses must leave these digests alone.

A records digest moves only with a deliberate change of what a replica draws
or records, which also bumps ``RESULT_VERSION``; then the new values are
pinned.  A report digest also covers the serialized config, the aggregates
and the theory block, so it moves with any change to what a report holds.
"""

from __future__ import annotations

import hashlib
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

# (experiment, n_grid, records digest, sha256 of result.to_json()) at
# replicas=3, master_seed=1.  The core experiment's constant-10 rule is
# infeasible at n = 1e4, so it runs higher.
PINNED = [
    ("multi_giant", (10**4, 10**5),
     "95e73460b2454e9b71e8b238ee25f2ee909b7d5bff5cfa5db9538915db49a8d5",
     "807e0fe27dd14e4c9b7ce100769f1633e91f5145728671c6eb20fb165e664354"),
    ("single_vs_multi", (10**4, 10**5),
     "4bdbd3854782122f5bf06577b05e98583b0127bd63eb1ec11246963e8f80b770",
     "eaad9db8086f5f3515f5f7358665d5ec14ff032d034cfc31c31c0f27540d6590"),
    ("one_neighborhood", (10**5, 3 * 10**5),
     "3747aa6675af5456d8b5c04335dd4171357f440ed50e425d24e6c65d4700c3ad",
     "ac800ece425d6a4389097d5146bfccea14b61fe1e421aaaa3225b4e284a6d3f2"),
    ("residual_components", (10**4, 10**5),
     "6796dee59172d88fe47e04c57a3039add781620635e825ded38d92a3e7b64c44",
     "06ba4b17ab0bc4c9c909950c4eaabc13c0ec87a2ba496500c723f1678db6cce9"),
    ("exploration_limit", (10**4, 10**5),
     "f9625a7ebe829833005e31f5633fc5d3e323e76688ede99556928c70733f9c68",
     "9b924dca0733bc67a08e872527b626b2adea778ffbf2d77046dd85cbb73958d9"),
    ("repeat_fraction", (10**4, 10**5),
     "610d696c03b6f4198f3b73f7abe6e12d44e7e9f488bd144228be7f89241e65fa",
     "94c86a6c1de7ac848554e831eccc557ba23f220025096060daf28e45fa352e7f"),
    ("theory_tables", (10**4, 10**5),
     "a2ca97891fa9d25314247c0ebfcb2d4435cdbdf6b62e42db8dc7105f06a4e5d9",
     "579269bccc44c3218cfcab9b8066fd450b63dc8075808eb8110ac6a5da0fe7e5"),
]


@pytest.mark.parametrize("experiment, n_grid, digest, report_digest", PINNED,
                         ids=[p[0] for p in PINNED])
def test_records_digest_pinned(experiment, n_grid, digest, report_digest):
    assert RESULT_VERSION == 2
    result = run(ExperimentConfig(experiment, n_grid=n_grid, replicas=3, master_seed=1))
    assert checks.records_digest(result.records) == digest
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == report_digest
