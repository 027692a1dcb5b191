from __future__ import annotations

import json

import pytest

from sfperc.cli import _SUBCOMMAND_EXPERIMENT, build_parser, main
from sfperc.experiments import EXPERIMENTS, ExperimentConfig
from sfperc.graphgen import read_edge_list


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


@pytest.mark.parametrize("extra, message", [
    (["--T", "nan"], "T must be finite"),
    (["--T", "inf"], "T must be finite"),
    (["--T", "0"], "T must be finite"),
    (["--T", "-1"], "T must be finite"),
    ({"replicas": 2.5}, "replicas must be an integer"),
    ({"master_seed": 1.5}, "master_seed must be an integer"),
    ({"n_grid": [10000.7]}, "whole numbers"),
], ids=["T-nan", "T-inf", "T-zero", "T-negative", "replicas-float", "seed-float",
        "n_grid-fraction"])
def test_explore_bad_config_exits_2(extra, message, tmp_path, monkeypatch, capsys):
    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    argv = ["explore", "--n-grid", "400", "--replicas", "1"]
    if isinstance(extra, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": "exploration_limit", **extra}))
        argv = ["explore", "--config", str(path)]
    rc = main(argv + (extra if isinstance(extra, list) else []))
    assert rc == 2
    assert message in capsys.readouterr().err


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
    assert sorted(_SUBCOMMAND_EXPERIMENT.values()) == sorted(EXPERIMENTS)
    assert len(set(_SUBCOMMAND_EXPERIMENT.values())) == len(_SUBCOMMAND_EXPERIMENT)


def test_lambda_flags_must_pair():
    with pytest.raises(SystemExit):
        main(["giant", "--n-grid", "200", "--replicas", "1",
              "--lambda-kind", "constant"])


def test_config_file_and_subcommand_mismatch(tmp_path):
    path = tmp_path / "config.json"
    config = ExperimentConfig("multi_giant", n_grid=(200,), replicas=1)
    path.write_text(json.dumps(config.to_dict()))
    with pytest.raises(SystemExit):
        main(["single-vs-multi", "--config", str(path)])
    # matching subcommand consumes the same file happily
    assert main(["giant", "--config", str(path)]) == 0
    path.write_text(json.dumps({**config.to_dict(), "version": 1}))
    assert main(["giant", "--config", str(path)]) == 2


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
    g = read_edge_list(out)
    assert g.n == 500
    g.validate()


def test_generate_single_mode(tmp_path):
    out = tmp_path / "simple.txt"
    rc = main(["generate", "--n", "5000", "--mode", "single", "--seed", "4",
               "--lambda-kind", "constant", "--lambda-value", "4", "--out", str(out)])
    assert rc == 0
    g = read_edge_list(out)
    assert bool((g.src < g.dst).all())


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
