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
     "de76b6537e1c88d7641f568ba71daf1722a78b9e958ab946566013214855ffc2"),
    ("single_vs_multi", (10**4, 10**5),
     "754bf4be27adcc0cd809918207bd3387972d5613e6b97555d402d8a7003e0db9",
     "0561631f5fb513a3a1acae3ff2dc094db9b3a3a616a86e12a244745a8c3b6da5"),
    ("one_neighborhood", (10**5, 3 * 10**5),
     "e90ad86288315d7dd99cace8ea87d511cdad849192d67af343cd49bf657b7f78",
     "0284c12d567848f7cffcda9b39f08e898e80234532ecfd00ec82b05715fe44a2"),
    ("residual_components", (10**4, 10**5),
     "e7d80a7aa2c09b1ae409cc331004b1d4ca28fe96fe51296eb54350e3a59699a9",
     "9261d14faeda2be15a4bdbe8b286fed48caf53f920202680ba0bd19b32c358c2"),
    ("exploration_limit", (10**4, 10**5),
     "e162be98907ccf7b55879075194566b40dda15a1ada5f805103d9ec1dd32313a",
     "12eeb898354d041ec3890a826780405a838494446bef769f4c3935c854854688"),
    ("repeat_fraction", (10**4, 10**5),
     "0f82a9b0632edbf61522eec819df8667b5a7a87e7b34b2613ff6acca2d321c45",
     "2e84d21d8a34ff6c402a1a03431bcb04bdd5d72bb8e967c98479c29ef39b0a41"),
    ("theory_tables", (10**4, 10**5),
     "a2ca97891fa9d25314247c0ebfcb2d4435cdbdf6b62e42db8dc7105f06a4e5d9",
     "07b45b02a2e92c23bde7dcc822b8709b2b425aa7df4d927dab1aa69ed11d1649"),
]


@pytest.mark.parametrize("experiment, n_grid, digest, report_digest", PINNED,
                         ids=[p[0] for p in PINNED])
def test_records_digest_pinned(experiment, n_grid, digest, report_digest):
    assert RESULT_VERSION == 3
    result = run(ExperimentConfig(experiment, n_grid=n_grid, replicas=3, master_seed=1))
    assert checks.records_digest(result.records) == digest
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == report_digest
