from __future__ import annotations

import argparse
import csv
import errno
import hashlib
import json

import numpy as np
import pytest

from sfperc import cli
from sfperc import experiments as xp
from sfperc.cli import build_parser, main
from sfperc.experiments import EXPERIMENTS, ExperimentConfig
from sfperc.graphgen import MultiGraph, SimpleGraph
from sfperc.params import LambdaRule, make_schedule, model_params

from oracles import read_edge_rows


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_giant_subcommand_prints_table(capsys):
    rc = main(["giant", "--n-grid", "200", "400", "--replicas", "2", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "c1_over_beta_mean" in out
    assert "zeta" in out


def test_theory_subcommand_prints_a_table(capsys):
    rc = main(["theory", "--n-grid", "1000", "--replicas", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "zeta_a" in out
    assert "rho_star_a" in out


def test_out_flag_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["giant", "--n-grid", "200", "--replicas", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["experiment"] == "multi_giant"
    assert f"wrote {out}" in capsys.readouterr().out


def test_csv_format_flag(tmp_path):
    out = tmp_path / "records.csv"
    rc = main(["repeat-fraction", "--n-grid", "300", "--replicas", "2",
               "--T", "1.0", "--format", "csv", "--out", str(out)])
    assert rc == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("n,replica,seed")


def test_infeasible_grid_exits_2(capsys):
    rc = main(["core", "--n-grid", "10000", "--replicas", "1"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# A horizon just below one step at n = 400, where floor(T * beta_n) = 0.
_BETA_400 = make_schedule(model_params(2.5, 1.0, 400), "multi", LambdaRule("power", 0.1)).beta_n
_JUST_BELOW_ONE_STEP = repr((1.0 - 1e-12) / _BETA_400)
# A 401-digit integer: JSON carries it exactly, and no float holds it.
_HUGE = 10**400


@pytest.mark.parametrize("command, fields, flags, message", [
    ("explore", {}, ["--T", "nan"], "T must be finite"),
    ("explore", {}, ["--T", "inf"], "T must be finite"),
    ("explore", {}, ["--T", "0"], "T must be finite"),
    ("explore", {}, ["--T", "-1"], "T must be finite"),
    ("explore", {}, ["--T", "1e-9"], "takes no step"),
    ("repeat-fraction", {"experiment": "repeat_fraction"}, ["--T", "1e-9"], "takes no step"),
    ("explore", {}, ["--T", _JUST_BELOW_ONE_STEP], "takes no step"),
    ("repeat-fraction", {"experiment": "repeat_fraction"}, ["--T", _JUST_BELOW_ONE_STEP],
     "takes no step"),
    ("explore", {"replicas": 2.5}, [], "replicas must be an integer"),
    ("explore", {"master_seed": 1.5}, [], "master_seed must be an integer"),
    ("explore", {"n_grid": [10000.7]}, [], "whole numbers"),
    ("explore", {"n_grid": 5}, [], "n_grid must be a list"),
    ("explore", {"lambda_rule": 5}, [], "lambda rule must be an object"),
    ("explore", {"lambda_rule": {"kind": "power", "value": "x"}}, [], "must be a number"),
    ("explore", {"tau": "2.5"}, [], "tau must be a finite number"),
    ("explore", {"C": "1"}, [], "C must be a finite number"),
    ("explore", {"a": "x"}, [], "a must be a finite number"),
    ("explore", {"output_path": 5}, [], "output_path must be a string"),
    ("giant", {"experiment": ["multi_giant"]}, [], "unknown experiment"),
    ("theory", {"experiment": "theory_tables"}, ["--a", "0.05"], "need a > 0.1"),
    ("core", {"experiment": "one_neighborhood", "n_grid": [100000]}, ["--a", "1e-6"],
     "is empty"),
    ("core", {"experiment": "one_neighborhood", "n_grid": [100000]}, ["--a", "1e308"],
     "exceeds n=100000"),
    ("core", {"experiment": "one_neighborhood", "n_grid": [100000], "a": 1e308}, [],
     "exceeds n=100000"),
    ("explore", {"a": _HUGE}, [], "a must be a finite number"),
    ("explore", {"tau": _HUGE}, [], "tau must be a finite number"),
    ("explore", {"C": _HUGE}, [], "C must be a finite number"),
    ("explore", {"T": _HUGE}, [], "T must be finite"),
    ("explore", {"lambda_rule": {"kind": "power", "value": _HUGE}}, [], "must be a number"),
    ("explore", {"replicas": _HUGE}, [], "replicas must be an integer"),
    ("explore", {"n_grid": [400, _HUGE]}, [], "whole numbers"),
    ("explore", {}, ["--replicas", "1" + "0" * 300], "replicas must lie in [1, 2**64)"),
    ("explore", {"replicas": 2**64}, [], "replicas must lie in [1, 2**64)"),
    ("explore", {}, ["--T", "1e308"], "overflows"),
    ("explore", {}, ["--T", "1e17"], "overflow the int64 first-draw keys"),
    ("repeat-fraction", {"experiment": "repeat_fraction"}, ["--T", "1e17"],
     "overflow the int64 first-draw keys"),
    ("residual", {"experiment": "residual_components"}, ["--T", "1e17"],
     "overflow the int64 first-draw keys"),
    ("theory", {"experiment": "theory_tables", "n_grid": [1000]}, ["--C", "1e300"],
     "c_F**2 past float range"),
    ("giant", {"experiment": "multi_giant", "n_grid": [1000]}, ["--C", "1e25"], "past 2**62"),
    ("core", {"experiment": "one_neighborhood", "n_grid": [100000]}, ["--C", "1e30"],
     "past 2**62"),
    ("single-vs-multi", {"experiment": "single_vs_multi", "n_grid": [200]}, ["--C", "1e150"],
     "past 2**62"),
    ("repeat-fraction", {"experiment": "repeat_fraction", "n_grid": [1000]}, ["--C", "1e150"],
     "past 2**62"),
    ("giant", {"experiment": "multi_giant"}, ["--T", "5"], "runs no walk"),
    ("single-vs-multi", {"experiment": "single_vs_multi"}, ["--T", "5"], "runs no walk"),
    ("core", {"experiment": "one_neighborhood", "n_grid": [100000]}, ["--T", "5"],
     "runs no walk"),
    ("theory", {"experiment": "theory_tables", "T": 5.0}, [], "runs no walk"),
    ("giant", {"experiment": "multi_giant"}, ["--a", "5"], "reads no core"),
    ("single-vs-multi", {"experiment": "single_vs_multi"}, ["--a", "5"], "reads no core"),
    ("explore", {}, ["--a", "5"], "reads no core"),
    ("residual", {"experiment": "residual_components"}, ["--a", "5"], "reads no core"),
    ("repeat-fraction", {"experiment": "repeat_fraction"}, ["--a", "5"], "reads no core"),
    ("giant", {"experiment": "multi_giant"}, ["--format", "csv"], "no output_path"),
    ("explore", {"output_format": "csv"}, [], "no output_path"),
    ("giant", {"experiment": "multi_giant", "n_grid": [1000000]},
     ["--tau", "2.995", "--lambda-kind", "constant", "--lambda-value", "1"],
     "tau=2.995 puts the limit constants past float range"),
    ("residual", {"experiment": "residual_components"},
     ["--tau", "2.9883325954778868", "--C", "483.61401510629656", "--n-grid", "528",
      "--lambda-kind", "constant", "--lambda-value", "1.0083661475085375"],
     "puts the forward-degree horizon past float range"),
], ids=["T-nan", "T-inf", "T-zero", "T-negative", "T-no-step", "T-no-step-repeat-fraction",
        "T-just-below-one-step", "T-just-below-one-step-repeat-fraction",
        "replicas-float", "seed-float",
        "n_grid-fraction", "n_grid-scalar", "lambda_rule-scalar", "lambda_value-string",
        "tau-string", "C-string", "a-string", "output_path-number", "experiment-list",
        "theory-a-below-eps", "core-empty", "core-a-1e308-flag", "core-a-1e308-config",
        "a-huge-int", "tau-huge-int", "C-huge-int", "T-huge-int", "lambda_value-huge-int",
        "replicas-huge-int", "n_grid-huge-int", "replicas-past-64-bits-flag",
        "replicas-past-64-bits-config", "T-overflows", "T-overflows-keys",
        "T-overflows-keys-repeat-fraction", "T-overflows-keys-residual",
        "theory-C-1e300", "giant-C-1e25", "core-C-1e30", "single-vs-multi-C-1e150",
        "repeat-fraction-C-1e150", "giant-T", "single-vs-multi-T", "core-T",
        "theory-T-config", "giant-a", "single-vs-multi-a", "explore-a", "residual-a",
        "repeat-fraction-a", "format-without-out-flag", "format-without-out-config",
        "giant-tau-2.995", "residual-tau-near-3"])
def test_explore_bad_config_exits_2(command, fields, flags, message, tmp_path, monkeypatch,
                                    capsys):
    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "exploration_limit", "n_grid": [400],
                                "replicas": 1, **fields}))
    rc = main([command, "--config", str(path), *flags])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("argv, key", [
    (["giant", "--tau", "2.992", "--C", "3e-6", "--lambda-kind", "constant",
      "--lambda-value", "1"], "c1_over_beta_mean"),
    (["giant", "--tau", "2.0000003670597803", "--C", "2.382500962357463e-06"],
     "c1_over_beta_mean"),
    (["theory", "--tau", "2.001"], "rho_star_a"),
], ids=["giant-tiny-zeta", "giant-tau-near-2", "theory-tau-2.001"])
def test_runs_near_both_ends_of_tau_exit_0(argv, key, capsys):
    # a zeta of 4e-85, a c_F_bar that rounds 1e-10 off c_F, and a survival
    # integrand whose u = y**(1/(1-alpha)) underflows to 0 all run
    assert main([*argv, "--n-grid", "1000", "--replicas", "1"]) == 0
    assert key in capsys.readouterr().out


@pytest.mark.parametrize("budget, message", [
    ("QUAD_MAX_PANELS", "adaptive Simpson exceeded 1 panels"),
    ("FIXED_POINT_MAX_ITER", "did not converge within 1 iterations"),
], ids=["quadrature", "fixed-point"])
def test_numerical_failure_exits_2_before_sampling(budget, message, monkeypatch, capsys):
    def no_sampling(*_):
        raise AssertionError("a replica was sampled before the theory block")

    monkeypatch.setattr(f"sfperc.theory.{budget}", 1)
    monkeypatch.setattr(xp, "sample_coupled_direct", no_sampling)
    assert main(["core", "--n-grid", "100000", "--replicas", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err


@pytest.mark.parametrize("mode", ["raw", "multi"])
def test_generate_refuses_rates_past_the_poisson_draws(mode, tmp_path, monkeypatch, capsys):
    # the slot count's rate is refused before the generator draws anything
    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"rng.{name} was read for a rate past the Poisson draws")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
    out = tmp_path / "edges.txt"
    assert main(["generate", "--C", "1e30", "--n", "1000", "--mode", mode,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "past 2**62" in err
    assert not out.exists()


def test_residual_accepts_a_walk_of_no_steps(capsys):
    # the residual experiment explores floor(T * beta_n) = 0 steps and sizes the whole graph
    assert main(["residual", "--n-grid", "400", "--replicas", "1", "--T", "1e-9"]) == 0
    assert "residual_largest_mean" in capsys.readouterr().out


def test_core_variant_flag(tmp_path, monkeypatch, capsys):
    # `core` runs the one core experiment, which records every core statistic
    argv = ["core", "--n-grid", "5000", "--replicas", "1",
            "--lambda-kind", "constant", "--lambda-value", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    for key in ("core_size", "core_giant_size", "core_giant_fraction", "core_giant_weight",
                "weight_over_beta", "one_neighborhood_size", "relative_gap"):
        assert f"{key}_mean" in out

    # the variant flag and the experiments it selected are gone, and fail closed
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--variant", "giant"])
    assert exc.value.code == 2

    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    path = tmp_path / "config.json"
    for name in ("core_giant", "core_weight"):
        path.write_text(json.dumps({"experiment": name, "n_grid": [5000], "replicas": 1}))
        assert main(["core", "--config", str(path)]) == 2
        assert "unknown experiment" in capsys.readouterr().err


def test_subcommands_cover_every_experiment_once():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    reached = {command: parser.parse_args([command]).experiment
               for command in subs.choices if command != "generate"}
    assert sorted(reached.values()) == sorted(EXPERIMENTS)
    assert reached == {spec.command: name for name, spec in EXPERIMENTS.items()}


def test_lambda_flags_must_pair():
    with pytest.raises(SystemExit):
        main(["giant", "--n-grid", "200", "--replicas", "1",
              "--lambda-kind", "constant"])


@pytest.mark.parametrize("flags", [
    ["--lambda-kind", "power"],
    ["--mode", "multi", "--lambda-kind", "power"],
    ["--mode", "single", "--lambda-value", "4"],
    ["--mode", "raw", "--lambda-kind", "constant", "--lambda-value", "4"],
], ids=["raw-kind-only", "multi-kind-only", "single-value-only", "raw-pair"])
def test_generate_lambda_flags_pair_and_need_a_schedule(flags, tmp_path, monkeypatch):
    def no_weights(*_):
        raise AssertionError("weights were built for bad flags")

    monkeypatch.setattr("sfperc.cli.build_weights", no_weights)
    out = tmp_path / "edges.txt"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "5000", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_config_file_and_subcommand_mismatch(tmp_path):
    path = tmp_path / "config.json"
    config = ExperimentConfig("multi_giant", n_grid=(200,), replicas=1)
    path.write_text(json.dumps(config.to_dict()))
    assert main(["single-vs-multi", "--config", str(path)]) == 2
    # matching subcommand consumes the same file happily
    assert main(["giant", "--config", str(path)]) == 0
    # every earlier version is rejected
    for version in range(1, xp.RESULT_VERSION):
        path.write_text(json.dumps({**config.to_dict(), "version": version}))
        assert main(["giant", "--config", str(path)]) == 2


def test_config_file_failures_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["giant", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cannot read the config" in err
    path = tmp_path / "config.json"
    path.write_text(json.dumps(ExperimentConfig("multi_giant", n_grid=(200,)).to_dict()))
    assert main(["explore", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "for 'multi_giant' but the subcommand wants 'exploration_limit'" in err
    path.write_bytes(b"\xff\xfe")
    assert main(["giant", "--config", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_config_file_with_overrides(tmp_path, capsys):
    path = tmp_path / "config.json"
    config = ExperimentConfig("multi_giant", n_grid=(200,), replicas=1, master_seed=5)
    path.write_text(json.dumps(config.to_dict()))
    out = tmp_path / "r.json"
    rc = main(["giant", "--config", str(path), "--replicas", "2", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["config"]["replicas"] == 2
    assert data["config"]["master_seed"] == 5


def test_generate_raw_edge_list(tmp_path):
    out = tmp_path / "edges.txt"
    rc = main(["generate", "--n", "500", "--seed", "4", "--out", str(out)])
    assert rc == 0
    n, rows = read_edge_rows(out)
    assert n == 500
    assert len(rows) > 0 and bool((rows[:, 2] >= 1).all())
    MultiGraph(n=n, src=rows[:, 0], dst=rows[:, 1], mult=rows[:, 2]).validate()


def test_generate_single_mode(tmp_path):
    out = tmp_path / "simple.txt"
    rc = main(["generate", "--n", "5000", "--mode", "single", "--seed", "4",
               "--lambda-kind", "constant", "--lambda-value", "4", "--out", str(out)])
    assert rc == 0
    n, rows = read_edge_rows(out)
    assert n == 5000
    assert len(rows) > 0 and bool((rows[:, 2] == 1).all())
    SimpleGraph(n=n, src=rows[:, 0], dst=rows[:, 1]).validate()


def test_generate_infeasible_schedule(tmp_path, capsys):
    # the default single-mode rule (constant 10) needs much larger n
    out = tmp_path / "never.txt"
    rc = main(["generate", "--n", "2000", "--mode", "single", "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_explore_trace_flag(tmp_path):
    trace = tmp_path / "trace.csv"
    rc = main(["explore", "--n-grid", "400", "--replicas", "1", "--T", "2.0",
               "--trace", str(trace)])
    assert rc == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "step,Z,S,repeats,new_mark"
    assert len(lines) > 1


def test_explore_trace_is_the_first_replicas_walk(tmp_path):
    # the trace's Z column is replica 0's walk at the smallest n: its sup
    # distance to the limit grid is that record's, bit for bit
    trace, report = tmp_path / "trace.csv", tmp_path / "report.json"
    rc = main(["explore", "--n-grid", "400", "800", "--replicas", "2", "--T", "2.0",
               "--trace", str(trace), "--out", str(report)])
    assert rc == 0
    with open(trace, newline="") as fh:
        Z = np.array([0] + [int(row["Z"]) for row in csv.DictReader(fh)])
    record = json.loads(report.read_text())["records"][0]
    assert (record["n"], record["replica"]) == (400, 0)
    config = ExperimentConfig("exploration_limit", n_grid=(400, 800), T=2.0)
    ctx = xp._build_context(config, 400)
    assert Z.size == ctx.steps + 1
    gap = np.abs(Z / ctx.schedule.beta_n - ctx.z_grid).max()
    assert float(gap) == record["sup_distance"]


# The three files the CLI writes, each with its path as the last argument.
_OUTPUTS = {
    "report": ["giant", "--n-grid", "200", "--replicas", "1", "--out"],
    "edge-list": ["generate", "--n", "200", "--out"],
    "trace": ["explore", "--n-grid", "400", "--replicas", "1", "--T", "2.0", "--trace"],
}


@pytest.mark.parametrize("argv", _OUTPUTS.values(), ids=_OUTPUTS.keys())
def test_outputs_create_missing_directories(argv, tmp_path):
    path = tmp_path / "missing" / "dir" / "out.txt"
    assert main([*argv, str(path)]) == 0
    assert path.stat().st_size > 0


@pytest.mark.parametrize("argv", _OUTPUTS.values(), ids=_OUTPUTS.keys())
def test_unwritable_output_exits_2_with_one_error_line(argv, tmp_path, capsys):
    # a path under a regular file cannot be made, whatever the permissions
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main([*argv, str(blocker / "dir" / "out.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", _OUTPUTS.values(), ids=_OUTPUTS.keys())
@pytest.mark.parametrize("path", ["", "newdir/", "existing"],
                         ids=["empty", "separator", "directory"])
def test_output_path_that_names_no_file_exits_2_before_sampling(argv, path, tmp_path,
                                                                   monkeypatch, capsys):
    def refuse(params):
        raise AssertionError("weights were built")

    monkeypatch.setattr(xp, "build_weights", refuse)
    monkeypatch.setattr("sfperc.cli.build_weights", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing").mkdir()
    assert main([*argv, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "does not name a file" in err
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["existing"]


def _disk_full():
    return OSError(errno.ENOSPC, "No space left on device")


class _FullAt:
    """Z of a trace whose step ``at`` fails to format, as if the disk filled there."""

    def __init__(self, values, at):
        self.values, self.at = values, at

    def __getitem__(self, i):
        if i == self.at:
            raise _disk_full()
        return self.values[i]


def _fail_edge_list_after_three_rows(monkeypatch):
    savetxt = np.savetxt

    def partial(fh, rows, **kwargs):
        savetxt(fh, rows[:3], **kwargs)
        raise _disk_full()

    monkeypatch.setattr(np, "savetxt", partial)


def _fail_trace_at_step_three(monkeypatch):
    walk = cli.run_exploration

    def failing(*args):
        trace = walk(*args)
        return trace._replace(Z=_FullAt(trace.Z, 3))

    monkeypatch.setattr(cli, "run_exploration", failing)


def _fail_json_report(monkeypatch):
    # the report's text is built once its temporary file is open
    def fail(self):
        raise _disk_full()

    monkeypatch.setattr(xp.ExperimentResult, "to_json", fail)


def _fail_csv_report_after_header(monkeypatch):
    writerow = csv.DictWriter.writerow

    def partial(self, row):
        writerow(self, row)
        raise _disk_full()

    monkeypatch.setattr(csv.DictWriter, "writerow", partial)


# Each output with a formatter that fails part-way through it.
_FAILED_WRITES = {
    "edge-list": (_OUTPUTS["edge-list"], _fail_edge_list_after_three_rows),
    "trace": (_OUTPUTS["trace"], _fail_trace_at_step_three),
    "json-report": (_OUTPUTS["report"], _fail_json_report),
    "csv-report": (["giant", "--n-grid", "200", "--replicas", "2", "--format", "csv", "--out"],
                   _fail_csv_report_after_header),
}


@pytest.mark.parametrize("argv, fail", _FAILED_WRITES.values(), ids=_FAILED_WRITES.keys())
def test_failed_write_leaves_no_file(argv, fail, tmp_path, monkeypatch, capsys):
    fail(monkeypatch)
    path = tmp_path / "out" / "result.txt"
    assert main([*argv, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not path.exists()
    assert list(tmp_path.rglob("*.tmp")) == []


# sha256 of the files the CLI writes, at a fixed small n and seed.
@pytest.mark.parametrize("argv, digest", [
    (["explore", "--n-grid", "2000", "--replicas", "1", "--seed", "3", "--T", "2.0",
      "--trace"],
     "7a45a7f0b2bc1f484754dd06f981e1828e5b8e43459170d77a65946eecfaed5d"),
    (["generate", "--n", "5000", "--seed", "4", "--out"],
     "52e0bc9e8f0b0a20fd6c5c39212c92fbb8fc01f45bc549dfdbb0569de3bcdc6c"),
    (["generate", "--n", "5000", "--mode", "multi", "--seed", "4", "--out"],
     "e7edeafe05bde092e8a9b2d36dbc460662e483f459a336ee51553cff167e1c32"),
    (["generate", "--n", "5000", "--mode", "single", "--seed", "4",
      "--lambda-kind", "constant", "--lambda-value", "4", "--out"],
     "3477e3a928a1c25b53fbdbef34b043e87bb0833f2111c73b441f1e37210a759e"),
], ids=["explore-trace", "generate-raw", "generate-multi", "generate-single"])
def test_cli_output_files_pinned(argv, digest, tmp_path):
    path = tmp_path / "out.txt"
    assert main([*argv, str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_generate_seed_outside_64_bits_exits_2_before_weights(seed, monkeypatch, tmp_path,
                                                               capsys):
    def refuse(params):
        raise AssertionError("weights were built")

    monkeypatch.setattr("sfperc.cli.build_weights", refuse)
    out = tmp_path / "never.txt"
    assert main(["generate", "--n", "10", "--seed", str(seed), "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_generate_seed_at_both_ends_of_64_bits(tmp_path):
    for seed in (0, 2**64 - 1):
        out = tmp_path / f"edges-{seed}.txt"
        assert main(["generate", "--n", "10", "--seed", str(seed), "--out", str(out)]) == 0
        assert read_edge_rows(out)[0] == 10


@pytest.mark.parametrize("argv", [
    ["giant", "--n-grid", "1000", "3037000499", "--replicas", "1"],
    ["generate", "--n", "3037000499", "--out", "unused.txt"],
])
def test_n_past_int64_pair_keys_exits_2_before_weights(argv, monkeypatch, tmp_path):
    def refuse(params):
        raise AssertionError("weights were built")

    monkeypatch.setattr(xp, "build_weights", refuse)
    monkeypatch.setattr("sfperc.cli.build_weights", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert not (tmp_path / "unused.txt").exists()
