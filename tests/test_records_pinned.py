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
     "6891d7edecead9f7a37caa602ef19cd838b249092b60546e1b0308ae63b84551",
     "61f9235360f5579105316c4ac5e58f57c07a45f6c75d7d9a33f492a66f4d4753"),
    ("single_vs_multi", (10**4, 10**5),
     "34bc1a0fb49c5f0b0e009cbe227fdf842c3e7afe95ef3b51df3e5ed5e9fd3aa5",
     "1beb9fa99df0aedc6a1f4209d1674d9d3aed6cc4544aeb7d288e5289ed2a6eb7"),
    ("one_neighborhood", (10**5, 3 * 10**5),
     "301ea0cb3cdc038acae537a87c6d99c6506ee6ec287d022c2d6ccb26fe7c209a",
     "33d8a7a2ca2f19440a8b030c248968b6c12e0f8bb3505d1b8cffc3a0ac5c5ba9"),
    ("residual_components", (10**4, 10**5),
     "e7d80a7aa2c09b1ae409cc331004b1d4ca28fe96fe51296eb54350e3a59699a9",
     "415fbee0d24688f540d55a2d1d4ee8ceda05c6e15e2f741cdb661e6e1f807369"),
    ("exploration_limit", (10**4, 10**5),
     "e162be98907ccf7b55879075194566b40dda15a1ada5f805103d9ec1dd32313a",
     "ba88be899216cff109b6a1ec53aff4740f097278e0a5ed13541edba576947d22"),
    ("repeat_fraction", (10**4, 10**5),
     "0f82a9b0632edbf61522eec819df8667b5a7a87e7b34b2613ff6acca2d321c45",
     "c4f54c1b11ce7b0723f1bb98564adac9b7c37c63ee41f84aad9d3d7342addb09"),
    ("theory_tables", (10**4, 10**5),
     "a2ca97891fa9d25314247c0ebfcb2d4435cdbdf6b62e42db8dc7105f06a4e5d9",
     "a9c5be5dfdc137f3c3884b528796633226973eb6ed4a55bb9ddf05de020ff3a6"),
]


@pytest.mark.parametrize("experiment, n_grid, digest, report_digest", PINNED,
                         ids=[p[0] for p in PINNED])
def test_records_digest_pinned(experiment, n_grid, digest, report_digest):
    assert RESULT_VERSION == 4
    result = run(ExperimentConfig(experiment, n_grid=n_grid, replicas=3, master_seed=1))
    assert checks.records_digest(result.records) == digest
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == report_digest
