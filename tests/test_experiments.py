from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sfperc.components import core_report
from sfperc.errors import ConfigError, DomainError
from sfperc.experiments import (
    RESULT_VERSION,
    ExperimentConfig,
    ExperimentResult,
    default_lambda_rule,
    default_n_grid,
    derive_seed,
    run,
    summarize,
    write_result,
)
from sfperc.graphgen import sample_coupled_direct
from sfperc.params import (
    LambdaRule,
    build_weights,
    core_prefix_size,
    make_schedule,
    model_params,
)


def small_config(**overrides):
    base = dict(experiment="multi_giant", n_grid=(200, 400), replicas=3, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def test_config_defaults_per_experiment():
    giant = ExperimentConfig("multi_giant")
    assert giant.n_grid == (10_000, 100_000, 1_000_000)
    assert giant.lambda_rule == LambdaRule("power", 0.1)
    assert giant.replicas == 20 and giant.master_seed == 1
    assert giant.mode == "multi"

    core = ExperimentConfig("one_neighborhood")
    assert core.n_grid == (100_000, 1_000_000)
    assert core.lambda_rule == LambdaRule("constant", 10.0)
    assert core.mode == "single"

    resid = ExperimentConfig("residual_components")
    assert resid.n_grid == (10_000, 100_000)

    theory = ExperimentConfig("theory_tables")
    assert theory.n_grid == (1_000_000,)

    svm = ExperimentConfig("single_vs_multi")
    assert svm.mode == "single"
    assert svm.lambda_rule == LambdaRule("power", 0.1)


def test_config_validation_errors():
    # core_giant and core_weight were folded into one_neighborhood
    for name in ("no_such_experiment", "core_giant", "core_weight"):
        with pytest.raises(ConfigError):
            ExperimentConfig(name)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**small_config().to_dict(), "experiment": name})
    with pytest.raises(ConfigError):
        small_config(replicas=0)
    with pytest.raises(ConfigError):
        small_config(n_grid=())
    with pytest.raises(ConfigError):
        small_config(n_grid=(400, 200))
    with pytest.raises(ConfigError):
        small_config(n_grid=(200, 200))
    with pytest.raises(ConfigError):
        small_config(output_format="yaml")
    with pytest.raises(ConfigError):
        small_config(master_seed=-1)
    with pytest.raises(ConfigError):
        small_config(master_seed=2**64)
    with pytest.raises(ConfigError):
        ExperimentConfig("one_neighborhood", n_grid=(100_000,), a=0.0)
    # constant-10 single schedule has pi >= 1 at n = 10^4
    with pytest.raises(ConfigError):
        ExperimentConfig("one_neighborhood", n_grid=(10_000,))
    for bad_T in (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "2.0"):
        with pytest.raises(ConfigError):
            small_config(T=bad_T)
    for bad in (2.5, 2.0, True, "3", None):
        with pytest.raises(ConfigError):
            small_config(replicas=bad)
    for bad in (1.5, 1.0, False, "7", None):
        with pytest.raises(ConfigError):
            small_config(master_seed=bad)
    for bad_grid in ((10_000.7,), (200, 400.5), (True, 400), ("200",), (math.nan,)):
        with pytest.raises(ConfigError):
            small_config(n_grid=bad_grid)
    for bad in ({"T": "2.0"}, {"replicas": 2.5}, {"master_seed": 1.5}, {"n_grid": [10_000.7]}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**small_config().to_dict(), **bad})
    # whole-number floats in the grid are still accepted and stored as ints
    assert small_config(n_grid=(200.0, 4e2)).n_grid == (200, 400)


def test_config_dict_round_trip():
    config = small_config(T=2.0, output_format="csv")
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_from_dict_fail_closed():
    good = small_config().to_dict()
    bad = dict(good)
    bad["surprise"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    # version 1 configs predate the direct coupled sampler
    for version in (1, RESULT_VERSION + 1):
        stale = dict(good)
        stale["version"] = version
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(stale)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"tau": 2.5})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict([1, 2])


def test_config_from_json_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(small_config().to_dict()))
    assert ExperimentConfig.from_json_file(path) == small_config()
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(path)


# --------------------------------------------------------------------------
# seed derivation
# --------------------------------------------------------------------------


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, 1000, 0) == derive_seed(1, 1000, 0)
    seeds = {derive_seed(m, n, r) for m in (1, 2) for n in (100, 200) for r in range(50)}
    assert len(seeds) == 200
    for s in seeds:
        assert 0 <= s < 2**64


# --------------------------------------------------------------------------
# running ensembles
# --------------------------------------------------------------------------


def test_run_is_deterministic_and_thread_invariant():
    config = small_config()
    a = run(config)
    b = run(config)
    c = run(config, threads=4)
    assert a.to_json() == b.to_json() == c.to_json()


def test_run_record_layout():
    config = small_config()
    result = run(config)
    assert len(result.records) == len(config.n_grid) * config.replicas
    expected_keys = [(n, r) for n in config.n_grid for r in range(config.replicas)]
    assert [(rec["n"], rec["replica"]) for rec in result.records] == expected_keys
    for rec in result.records:
        assert rec["seed"] == derive_seed(config.master_seed, rec["n"], rec["replica"])
        assert rec["c1"] >= rec["c2"] >= 0
        assert all(not isinstance(v, np.generic) for v in rec.values())


def test_aggregates_match_numpy():
    config = small_config()
    result = run(config)
    recs = [r for r in result.records if r["n"] == 400]
    xs = np.array([r["c1_over_beta"] for r in recs])
    agg = result.aggregates["400"]["c1_over_beta"]
    assert agg["mean"] == pytest.approx(xs.mean())
    assert agg["median"] == pytest.approx(np.median(xs))
    assert agg["std"] == pytest.approx(xs.std(ddof=1))
    assert agg["q05"] == pytest.approx(np.quantile(xs, 0.05))
    assert agg["q95"] == pytest.approx(np.quantile(xs, 0.95))


def test_single_replica_aggregates():
    result = run(small_config(n_grid=(200,), replicas=1))
    rec = result.records[0]
    agg = result.aggregates["200"]["c1"]
    assert agg["mean"] == agg["median"] == rec["c1"]
    assert agg["std"] == 0.0


def test_run_writes_output(tmp_path):
    out = tmp_path / "sub" / "report.json"
    config = small_config(n_grid=(200,), replicas=2, output_path=str(out))
    result = run(config)
    data = json.loads(out.read_text())
    assert data["version"] == RESULT_VERSION
    assert data["config"]["experiment"] == "multi_giant"
    assert len(data["records"]) == 2
    assert data == result.to_dict()


def test_write_result_csv(tmp_path):
    result = run(small_config(n_grid=(200,), replicas=2))
    path = tmp_path / "records.csv"
    write_result(result, path, output_format="csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(result.records[0].keys())
    assert len(lines) == 3
    with pytest.raises(DomainError):
        write_result(ExperimentResult(config=result.config), path, output_format="csv")


def test_single_vs_multi_coupling():
    config = ExperimentConfig("single_vs_multi", n_grid=(200,), replicas=3,
                              lambda_rule=LambdaRule("power", 0.1))
    result = run(config)
    for rec in result.records:
        assert rec["diff_over_beta"] >= 0.0
        assert rec["c1_over_beta"] >= rec["c1_star_over_beta"]


def test_summarize_rows():
    result = run(small_config())
    rows = summarize(result)
    assert [row["n"] for row in rows] == [200, 400]
    assert "c1_over_beta_mean" in rows[0]
    assert "c1_over_beta_q95" in rows[0]
    assert rows[0]["zeta"] == pytest.approx(3.0 * math.pi)
    with pytest.raises(DomainError):
        summarize(ExperimentResult(config=result.config))


# --------------------------------------------------------------------------
# per-experiment records and theory blocks
# --------------------------------------------------------------------------


def test_exploration_limit_records_and_theory():
    config = ExperimentConfig("exploration_limit", n_grid=(500,), replicas=2)
    result = run(config)
    for rec in result.records:
        assert rec["sup_distance"] >= 0.0
    theory = result.theory
    assert theory["T"] == pytest.approx(1.5 * 3.0 * math.pi)
    assert theory["max_z"] == pytest.approx(3.0 * math.pi / 4.0)
    assert len(theory["z_curve"]) == 32
    assert theory["schedules"]["500"]["N_n"] is None


def test_repeat_fraction_records_and_theory():
    config = ExperimentConfig("repeat_fraction", n_grid=(500,), replicas=2, T=1.0)
    result = run(config)
    for rec in result.records:
        assert 0.0 <= rec["repeat_fraction"]
        assert rec["pi_n"] == pytest.approx(result.theory["schedules"]["500"]["pi_n"])
    assert result.theory["slope_target"] == pytest.approx(1.0)
    assert result.theory["t"] == 1.0


def test_residual_records_and_theory():
    config = ExperimentConfig("residual_components", n_grid=(500,), replicas=2)
    result = run(config)
    assert result.theory["horizon"]["500"] == pytest.approx(12.0 * math.pi)
    for rec in result.records:
        assert rec["residual_largest"] >= 0
        assert rec["residual_over_beta"] == pytest.approx(
            rec["residual_largest"] / result.theory["schedules"]["500"]["beta_n"]
        )


def test_core_experiment_records_and_theory():
    rule = LambdaRule("constant", 4.0)
    config = ExperimentConfig("one_neighborhood", n_grid=(5000,), replicas=2,
                              lambda_rule=rule, a=1.0)
    result = run(config)
    params = model_params(2.5, 1.0, 5000)
    ws = build_weights(params)
    schedule = make_schedule(params, "single", rule)
    core_size = core_prefix_size(schedule, 1.0)
    for rec in result.records:
        # rebuild the replica's core report from its seed
        rng = np.random.default_rng(rec["seed"])
        _, g_simple = sample_coupled_direct(ws, schedule.pi_n, rng)
        report = core_report(g_simple, ws, schedule, 1.0)
        weight = report.core_giant_weight
        gap = abs(report.one_neighborhood_size - weight)
        assert {k: v for k, v in rec.items() if k not in ("n", "replica", "seed")} == {
            "core_size": core_size,
            "core_giant_size": report.core_giant_size,
            "core_giant_fraction": report.core_giant_size / core_size,
            "core_giant_weight": weight,
            "weight_over_beta": weight / schedule.beta_n,
            "one_neighborhood_size": report.one_neighborhood_size,
            "relative_gap": gap / weight,
        }
        assert 0 < rec["core_giant_size"] <= rec["core_size"]
        assert rec["one_neighborhood_size"] >= 0
    assert result.theory["a"] == 1.0
    assert 0.0 < result.theory["rho_star_a"] < 1.0
    assert result.theory["zeta_a"] == pytest.approx(3.0 * result.theory["rho_star_a"])


def test_one_neighborhood_records():
    rule = LambdaRule("constant", 4.0)
    config = ExperimentConfig("one_neighborhood", n_grid=(5000,), replicas=2,
                              lambda_rule=rule, a=1.0)
    result = run(config)
    for rec in result.records:
        assert rec["one_neighborhood_size"] >= 0
        gap = abs(rec["one_neighborhood_size"] - rec["core_giant_weight"])
        assert rec["relative_gap"] == pytest.approx(gap / rec["core_giant_weight"])


def test_theory_tables_content():
    config = ExperimentConfig("theory_tables", n_grid=(1000,), replicas=1)
    result = run(config)
    rec = result.records[0]
    assert rec["N_n"] is None
    assert rec["beta_n"] == pytest.approx(result.theory["schedules"]["1000"]["beta_n"])

    table = result.theory["a_table"]
    assert [row["a"] for row in table] == [1.0, 4.0, 10.0, 100.0, 1000.0, 10000.0]
    zetas = [row["zeta_a"] for row in table]
    assert all(x < y for x, y in zip(zetas, zetas[1:]))
    assert zetas[-1] < 3.0 * math.pi
    scaled = [row["scaled_rho_star"] for row in table]
    assert all(x < y for x, y in zip(scaled, scaled[1:]))
    assert scaled[-1] < math.pi

    norms = result.theory["operator_norms"]
    assert [entry["eps"] for entry in norms] == [0.1, 0.01, 0.001]
    vals = [entry["norm"] for entry in norms]
    assert vals[0] < vals[1] < vals[2]

    # the whole report is strict JSON (None survives as null)
    assert json.loads(result.to_json())["records"][0]["N_n"] is None


def test_run_rejects_bad_threads():
    with pytest.raises(ConfigError):
        run(small_config(), threads=0)
