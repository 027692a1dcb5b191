from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfperc
from sfperc.components import ComponentSummary, CoreReport
from sfperc.experiments import Experiment, ExperimentResult, _Context
from sfperc.exploration import ExplorationTrace
from sfperc.graphgen import MultiGraph, SimpleGraph
from sfperc.params import ModelParams, PercolationSchedule, WeightSequence
from sfperc.theory import CoreLimit, TheoryConstants

# What a one-thread JSON run never needs: the thread pool (which pulls in
# logging and queue) and the CSV writer are imported where they are used.
_ON_DEMAND = ("concurrent.futures", "logging", "queue", "csv")


def test_cli_import_leaves_thread_and_csv_modules_unloaded():
    # the modules perfbench's worker holds before it imports sfperc, then the CLI
    code = ("import numpy, json, argparse, traceback, dataclasses, sys\n"
            "import sfperc.cli\n"
            f"print(json.dumps([m for m in {_ON_DEMAND!r} if m in sys.modules]))\n")
    src = str(Path(sfperc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert json.loads(out.stdout) == []


@pytest.mark.parametrize("cls", [ModelParams, PercolationSchedule, TheoryConstants, CoreLimit,
                                 CoreReport, Experiment, _Context, WeightSequence,
                                 MultiGraph, SimpleGraph, ComponentSummary,
                                 ExplorationTrace, ExperimentResult])
def test_plain_records_are_immutable_tuples(cls):
    record = cls(*range(len(cls._fields)))
    assert isinstance(record, tuple)
    for name in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
