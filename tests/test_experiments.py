from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import tracemalloc
from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest

from sfperc.components import core_report
from sfperc.errors import ConfigError, DomainError, NumericalFailureError, SfpercError
from sfperc.experiments import (
    EXPERIMENTS,
    RESULT_VERSION,
    ExperimentConfig,
    _atomic_write,
    _build_context,
    _model_at,
    _replica_record,
    derive_seed,
    run,
    summarize,
    write_edge_list,
    write_result,
    write_trace_csv,
)
from sfperc.exploration import _MAX_STEPS, run_exploration, sup_distance_to_limit
from sfperc.graphgen import MultiGraph, sample_coupled_direct
from sfperc.params import (
    LambdaRule,
    build_weights,
    core_prefix_size,
    make_schedule,
    model_params,
)
from sfperc.theory import compute_constants, limit_curve_z


def small_config(**overrides):
    base = dict(experiment="multi_giant", n_grid=(200, 400), replicas=3, master_seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


def small_walk(**overrides):
    """``small_config`` on a walk experiment, the rows that read T."""
    return small_config(experiment="exploration_limit", **overrides)


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


def _refused(kind: str, match: str, **fields) -> None:
    """A per-n refusal is _model_at's own: construction raises it as the
    cause of a ConfigError, and _model_at raises it unwrapped, at the same n,
    on a config whose fields were set past construction's checks."""
    with pytest.raises(ConfigError, match=re.escape(match)) as wrapped:
        ExperimentConfig(kind, **fields)
    config = ExperimentConfig(kind)
    for name, value in fields.items():
        object.__setattr__(config, name, value)
    with pytest.raises(SfpercError, match=re.escape(match)) as raised:
        for n in config.n_grid:
            _model_at(config, n)
    assert not isinstance(raised.value, ConfigError)
    cause = wrapped.value.__cause__
    assert (type(cause), str(cause)) == (type(raised.value), str(raised.value))


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
    # a core level whose core is empty or larger than the graph
    for a in (0.0, 1e-6, 1e9, 1e308):
        _refused("one_neighborhood", "core", n_grid=(100_000,), a=a)
    # Poisson rates past numpy's draws
    _refused("multi_giant", "past 2**62", n_grid=(1000,), C=1e25)
    _refused("one_neighborhood", "past 2**62", n_grid=(100_000,), C=1e30)
    # constant-10 single schedule has pi >= 1 at n = 10^4
    with pytest.raises(ConfigError):
        ExperimentConfig("one_neighborhood", n_grid=(10_000,))
    for bad_T in (math.nan, math.inf, -math.inf, 0.0, -1.0, True, "2.0"):
        with pytest.raises(ConfigError, match="T must be finite"):
            small_walk(T=bad_T)
    # seeds key a replica in 64 bits: derive_seed(m, n, 2**64 + r) repeats replica r
    assert derive_seed(1, 400, 5) == derive_seed(1, 400, 2**64 + 5)
    for bad in (2.5, 2.0, True, "3", None, 2**64, 10**300):
        with pytest.raises(ConfigError):
            small_config(replicas=bad)
    assert small_config(replicas=2**64 - 1).replicas == 2**64 - 1
    for bad in (1.5, 1.0, False, "7", None):
        with pytest.raises(ConfigError):
            small_config(master_seed=bad)
    for bad_grid in ((10_000.7,), (200, 400.5), (True, 400), ("200",), (math.nan,)):
        with pytest.raises(ConfigError):
            small_config(n_grid=bad_grid)
    with pytest.raises(ConfigError, match="T must be finite"):
        ExperimentConfig.from_dict({**small_walk().to_dict(), "T": "2.0"})
    for bad in ({"replicas": 2.5}, {"master_seed": 1.5}, {"n_grid": [10_000.7]}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**small_config().to_dict(), **bad})
    # wrongly typed values fail closed at construction, not mid-run
    for bad in ({"n_grid": 5}, {"tau": "2.5"}, {"C": "1"}, {"a": "x"}, {"a": math.nan},
                {"output_path": 5}, {"experiment": ["multi_giant"]}):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**small_config().to_dict(), **bad})
    for bad_rule in (5, [["kind", "power"]], {"kind": "power", "value": "x"},
                     {"kind": "power", "value": True}):
        with pytest.raises(SfpercError):
            ExperimentConfig.from_dict({**small_config().to_dict(), "lambda_rule": bad_rule})
    # the theory tables' operator norms need a above every eps of their grid
    with pytest.raises(ConfigError):
        ExperimentConfig("theory_tables", n_grid=(1000,), a=0.05)
    # whole-number floats in the grid are still accepted and stored as ints
    assert small_config(n_grid=(200.0, 4e2)).n_grid == (200, 400)


def test_walk_horizon_must_take_a_step():
    # floor(T * beta_n) = 0 at some n of the grid fails at construction, for
    # every walk experiment
    beta = make_schedule(model_params(2.5, 1.0, 1000), "multi", LambdaRule("power", 0.1)).beta_n
    for kind in ("exploration_limit", "repeat_fraction", "residual_components"):
        for T in (1e-9, 0.5 / beta):
            _refused(kind, "takes no step", n_grid=(1000, 10_000), T=T)
        assert ExperimentConfig(kind, n_grid=(1000,), T=1.0 / beta).T == 1.0 / beta


def test_config_dict_round_trip():
    config = small_walk(T=2.0, output_path="report.csv", output_format="csv")
    assert ExperimentConfig.from_dict(config.to_dict()) == config


def test_config_takes_a_lambda_rule_dict():
    as_dict = small_config(lambda_rule={"kind": "power", "value": 0.1})
    assert as_dict == small_config(lambda_rule=LambdaRule("power", 0.1))
    assert isinstance(as_dict.lambda_rule, LambdaRule)
    assert ExperimentConfig.from_dict(as_dict.to_dict()) == as_dict


@pytest.mark.parametrize("rule", [
    {"kind": "power"},
    {"kind": "cubic", "value": 1.0},
    {"kind": "power", "value": 0.1, "extra": 1},
    {"kind": "constant", "value": "x"},
    {"kind": "constant", "value": 0.5},
])
def test_config_malformed_lambda_rule_dict_fails_closed(rule, monkeypatch):
    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    with pytest.raises(SfpercError):
        run(small_config(lambda_rule=rule))


def test_config_stores_numpy_integers_as_int():
    config = small_config(n_grid=(200,), replicas=np.int64(2), master_seed=np.uint64(7))
    assert type(config.replicas) is int and type(config.master_seed) is int
    assert config == small_config(n_grid=(200,), replicas=2)
    assert json.loads(run(config).to_json())["config"]["replicas"] == 2


def test_config_stores_numpy_floats_as_float(tmp_path):
    # a numpy float passes the number check but is no JSON number
    out = tmp_path / "report.json"
    from_numpy = small_walk(tau=np.float32(2.5), C=np.float32(1.0), T=np.float32(2.0),
                            output_path=str(out))
    plain = small_walk(tau=2.5, C=1.0, T=2.0, output_path=str(out))
    assert all(type(getattr(from_numpy, name)) is float for name in ("tau", "C", "T"))
    assert from_numpy == plain
    assert run(from_numpy).to_json() == out.read_text() == run(plain).to_json()
    # an int is stored as a float too, so it serializes as one
    assert type(small_walk(T=2).T) is float


def test_config_stores_a_numpy_float_as_float(tmp_path):
    # the same storage for a, on the theory tables, a row that reads it
    out = tmp_path / "report.json"
    tables = dict(experiment="theory_tables", n_grid=(1000,), replicas=1, output_path=str(out))
    from_numpy = ExperimentConfig(**tables, a=np.float64(2.0))
    plain = ExperimentConfig(**tables, a=2.0)
    assert type(from_numpy.a) is float and from_numpy == plain
    assert run(from_numpy).to_json() == out.read_text() == run(plain).to_json()
    assert type(ExperimentConfig(**tables, a=2).a) is float


@pytest.mark.parametrize("path", ["", "newdir/", "newdir/.", ".", ".."])
def test_an_output_path_that_names_no_file_is_refused(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ConfigError, match="does not name a file"):
        small_config(output_path=path)
    result = run(small_config(n_grid=(200,), replicas=1))
    for fmt in ("json", "csv"):
        with pytest.raises(ConfigError, match="does not name a file"):
            write_result(result, path, fmt)
    with pytest.raises(ConfigError, match="does not name a file"):
        write_result(result, tmp_path, "json")  # an existing directory
    assert list(tmp_path.iterdir()) == []


def test_config_from_dict_fail_closed():
    good = small_config().to_dict()
    bad = dict(good)
    bad["surprise"] = 1
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    # version 1 configs predate the direct coupled sampler, version 2 ones
    # the table-free mark sampler
    for version in (*range(1, RESULT_VERSION), RESULT_VERSION + 1):
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
        write_result(result._replace(records=[]), path, output_format="csv")


def test_write_result_refuses_an_unknown_format(tmp_path):
    result = run(small_config(n_grid=(200,), replicas=1))
    with pytest.raises(ConfigError, match="output_format must be 'csv' or 'json', got 'xml'"):
        write_result(result, tmp_path / "report.xml", "xml")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_reraises_when_its_temporary_file_is_gone(tmp_path):
    # the cleanup's failed unlink gives way to the error that started it
    def write(fh):
        for tmp in tmp_path.glob("*.tmp"):
            tmp.unlink()
        raise ValueError("the write failed")

    with pytest.raises(ValueError, match="the write failed"):
        _atomic_write(tmp_path / "report.json", write)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_artifacts_take_the_mode_open_gives(umask, mode, tmp_path):
    # 0666 less the umask, also when a file is overwritten; no temporary file stays
    result = run(small_config(n_grid=(200,), replicas=1))
    params = model_params(2.5, 1.0, 200)
    sch = make_schedule(params, "multi", LambdaRule("power", 0.1))
    trace = run_exploration(build_weights(params), sch, 20, np.random.default_rng(0))
    graph = MultiGraph(n=3, src=np.array([1]), dst=np.array([2]), mult=np.array([1]))
    writes = {"report.json": lambda path: write_result(result, path),
              "records.csv": lambda path: write_result(result, path, output_format="csv"),
              "edges.txt": lambda path: write_edge_list(graph, path),
              "trace.csv": lambda path: write_trace_csv(trace, path)}
    old = os.umask(umask)
    try:
        for _ in range(2):
            for name, write in writes.items():
                write(tmp_path / name)
    finally:
        os.umask(old)
    assert sorted(os.listdir(tmp_path)) == sorted(writes)
    for name in writes:
        assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


def test_single_vs_multi_coupling():
    config = ExperimentConfig("single_vs_multi", n_grid=(200,), replicas=3,
                              lambda_rule=LambdaRule("power", 0.1))
    result = run(config)
    for rec in result.records:
        assert rec["diff_over_beta"] >= 0.0
        assert rec["c1_over_beta"] >= rec["c1_star_over_beta"]


def test_coupled_record_checks_the_pair_partition(monkeypatch):
    import sfperc.experiments as xp

    def one_pair_lost(weights, pi, rng):
        g_multi, g_simple, dropped = sample_coupled_direct(weights, pi, rng)
        assert g_simple.edge_count > 0
        return g_multi, g_simple._replace(src=g_simple.src[1:], dst=g_simple.dst[1:]), dropped

    monkeypatch.setattr(xp, "sample_coupled_direct", one_pair_lost)
    with pytest.raises(AssertionError, match="do not partition"):
        run(ExperimentConfig("single_vs_multi", n_grid=(2000,), replicas=1))


def test_coupled_record_checks_the_coupling_inequality(monkeypatch):
    import sfperc.experiments as xp

    monkeypatch.setattr(xp, "merged_giant_size", lambda simple, dropped: simple.giant_size - 1)
    with pytest.raises(AssertionError, match="coupling violated"):
        run(ExperimentConfig("single_vs_multi", n_grid=(2000,), replicas=1))


def test_summarize_rows():
    result = run(small_config())
    rows = summarize(result)
    assert [row["n"] for row in rows] == [200, 400]
    assert "c1_over_beta_mean" in rows[0]
    assert "c1_over_beta_q95" in rows[0]
    assert rows[0]["zeta"] == pytest.approx(3.0 * math.pi)
    with pytest.raises(DomainError):
        summarize(result._replace(records=[]))


def test_sampled_graphs_carry_int32_ids(tmp_path, monkeypatch):
    # one replica of each graph experiment and each generate mode at n = 1e4:
    # every graph they validate holds its ids in int32
    from sfperc.cli import main
    from sfperc.graphgen import SimpleGraph
    seen = []
    for cls in (MultiGraph, SimpleGraph):
        def spy(g, check=cls.validate):
            seen.append((type(g).__name__, g.src.dtype, g.dst.dtype))
            check(g)
        monkeypatch.setattr(cls, "validate", spy)
    core = LambdaRule("constant", 4.0)
    for experiment, rule in (("multi_giant", None), ("single_vs_multi", None),
                             ("one_neighborhood", core), ("residual_components", None)):
        run(ExperimentConfig(experiment, n_grid=(10_000,), replicas=1, lambda_rule=rule))
    for mode, flags in (("raw", []), ("multi", []),
                        ("single", ["--lambda-kind", "constant", "--lambda-value", "4"])):
        assert main(["generate", "--n", "10000", "--mode", mode, "--seed", "3",
                     "--out", str(tmp_path / f"{mode}.txt"), *flags]) == 0
    assert [kind for kind, _, _ in seen] == ["MultiGraph", "MultiGraph", "SimpleGraph",
                                             "SimpleGraph", "MultiGraph", "MultiGraph",
                                             "MultiGraph", "SimpleGraph"]
    assert all(src == dst == np.int32 for _, src, dst in seen)


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


@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
@pytest.mark.parametrize("T", [None, 2.0])
def test_context_limit_grid_is_the_curve_on_the_step_grid(n, T):
    config = ExperimentConfig("exploration_limit", n_grid=(n,), T=T)
    ctx = _build_context(config, n)
    params, sch = ctx.schedule.params, ctx.schedule
    last = math.floor(ctx.horizon * sch.beta_n)
    z = limit_curve_z(np.arange(last + 1) / sch.beta_n, params, compute_constants(params))
    assert ctx.z_grid.tobytes() == z.tobytes()
    assert not ctx.z_grid.flags.writeable
    with pytest.raises(ValueError):
        ctx.z_grid[0] = 1.0
    trace = run_exploration(ctx.weights, sch, ctx.steps,
                            np.random.default_rng(derive_seed(1, n, 0)))
    assert trace.steps == last
    want = float(np.abs(trace.Z / sch.beta_n - z).max())
    assert sup_distance_to_limit(trace, sch, ctx.z_grid) == want


def test_a_horizon_of_one_step_is_accepted_and_walked():
    beta = make_schedule(model_params(2.5, 1.0, 1000), "multi", LambdaRule("power", 0.1)).beta_n
    T = 1.5 / beta
    assert math.floor(T * beta) == 1
    for kind in ("exploration_limit", "repeat_fraction"):
        config = ExperimentConfig(kind, n_grid=(1000,), T=T, replicas=1)
        ctx = _build_context(config, 1000)
        assert ctx.steps == 1
        trace = run_exploration(ctx.weights, ctx.schedule, ctx.steps, np.random.default_rng(0))
        assert trace.steps == 1 and trace.Z.size == 2
        assert run(config).records[0]["n"] == 1000
    assert _build_context(ExperimentConfig("exploration_limit", n_grid=(1000,), T=T),
                          1000).z_grid.size == 2


def test_every_walk_replica_takes_the_context_step_count(monkeypatch):
    import sfperc.experiments as xp
    import sfperc.exploration as ex

    seen = []

    def recording(fn):
        def wrapped(*args):
            # (name, n, steps); repeat_fraction reads every step of its trace
            steps = args[0].steps if fn.__name__ == "repeat_fraction" else args[2]
            seen.append((fn.__name__, args[1].params.n, steps))
            return fn(*args)
        return wrapped

    for module in (xp, ex):
        monkeypatch.setattr(module, "run_exploration", recording(ex.run_exploration))
    for name in ("repeat_fraction", "residual_largest_component"):
        monkeypatch.setattr(xp, name, recording(getattr(ex, name)))
    for kind, T in (("exploration_limit", None), ("exploration_limit", 2.0),
                    ("repeat_fraction", None), ("residual_components", None),
                    ("residual_components", 3.0)):
        seen.clear()
        config = ExperimentConfig(kind, n_grid=(500, 1000), T=T, replicas=2)
        run(config)
        contexts = {n: _model_at(config, n) for n in config.n_grid}
        assert all(ctx.steps == math.floor(ctx.horizon * ctx.schedule.beta_n) >= 1
                   for ctx in contexts.values())
        names = {name for name, _, _ in seen}
        want = {"exploration_limit": {"run_exploration"},
                "repeat_fraction": {"run_exploration", "repeat_fraction"},
                "residual_components": {"run_exploration", "residual_largest_component"}}
        assert names == want[kind]
        # one walk per replica, each at its own n's step count
        walks = sorted(n for name, n, _ in seen if name == "run_exploration")
        assert walks == [500, 500, 1000, 1000]
        assert all(steps == contexts[n].steps for _, n, steps in seen)


def test_a_horizon_past_floating_point_is_refused(monkeypatch):
    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    for kind in ("exploration_limit", "repeat_fraction", "residual_components"):
        _refused(kind, "overflows", n_grid=(1000,), T=1e308)
        # a finite step count whose first-draw keys mark * steps + step would
        # pass int64 passes the step cap first
        _refused(kind, "passes the cap", n_grid=(1000,), T=1e17)
    # the residual walk's default horizon, past float range near tau = 3
    _refused("residual_components", "forward-degree horizon past float range",
             tau=2.9883325954778868, C=483.61401510629656, n_grid=(528,),
             lambda_rule=LambdaRule("constant", 1.0083661475085375))


def test_a_walk_past_the_step_cap_is_refused(monkeypatch):
    # default horizons of 1.86e9 (near tau = 3) and 1.22e9 (near tau = 2)
    # exploration steps, and 8.8e14 residual steps, are refused before any
    # weights or limit grid are built
    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    near_3 = dict(tau=2.9045753022943743, C=0.342656481881694, n_grid=(63,),
                  lambda_rule=LambdaRule("constant", 1.0))
    near_2 = dict(tau=2.0000146, C=183.0, n_grid=(1053,), lambda_rule=LambdaRule("constant", 65.0))
    for kind, fields in (("exploration_limit", near_3), ("exploration_limit", near_2),
                         ("residual_components", near_3)):
        _refused(kind, f"passes the cap of {_MAX_STEPS} steps", **fields)


def test_default_walks_sit_far_below_the_step_cap():
    # the most any row's default horizon takes up to n = 1e6 is residual's
    # 59,749 steps, under 1/500 of the cap
    steps = [_model_at(ExperimentConfig(kind), n).steps
             for kind in ("exploration_limit", "repeat_fraction", "residual_components")
             for n in (10**4, 10**5, 10**6)]
    assert 500 * max(steps) < _MAX_STEPS


def test_T_fails_closed_where_no_walk_reads_it(monkeypatch):
    # a row without a walk derives no horizon, so a T given to it, valid or
    # not, is refused before any weights are built
    for kind in ("multi_giant", "single_vs_multi", "theory_tables"):
        ctx = _build_context(ExperimentConfig(kind, n_grid=(10**4,)), 10**4)
        assert ctx.horizon is None and ctx.steps is None

    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    for kind in ("multi_giant", "single_vs_multi", "one_neighborhood", "theory_tables"):
        for T in (5.0, 1e308, math.inf):
            with pytest.raises(ConfigError, match="runs no walk"):
                ExperimentConfig(kind, n_grid=(10**5,), T=T)
        with pytest.raises(ConfigError, match="runs no walk"):
            ExperimentConfig.from_dict({**ExperimentConfig(kind, n_grid=(10**5,)).to_dict(),
                                        "T": 5.0})
    for kind in ("exploration_limit", "repeat_fraction", "residual_components"):
        assert ExperimentConfig(kind, n_grid=(1000,), T=5.0).T == 5.0


def test_a_fails_closed_where_no_core_reads_it(monkeypatch):
    # every report writes a, so its default is accepted on every row
    for kind in EXPERIMENTS:
        config = ExperimentConfig(kind, a=1.0)
        assert config.a == 1.0 and ExperimentConfig.from_dict(config.to_dict()) == config

    def no_weights(*_):
        raise AssertionError("weights were built for a bad config")

    monkeypatch.setattr("sfperc.experiments.build_weights", no_weights)
    # only the core experiment and the theory tables read the core level
    for kind in ("exploration_limit", "multi_giant", "single_vs_multi", "residual_components",
                 "repeat_fraction"):
        for a in (2.0, 5.0, 1e308):
            with pytest.raises(ConfigError, match="reads no core"):
                ExperimentConfig(kind, n_grid=(1000,), a=a)
        with pytest.raises(ConfigError, match="reads no core"):
            ExperimentConfig.from_dict({**ExperimentConfig(kind, n_grid=(1000,)).to_dict(),
                                        "a": 5.0})
        # the type check runs first, so a mistyped a keeps its message
        with pytest.raises(ConfigError, match="a must be a finite number"):
            ExperimentConfig(kind, n_grid=(1000,), a="x")
    for kind in ("theory_tables", "one_neighborhood"):
        assert ExperimentConfig(kind, n_grid=(10**5,), a=2.0).a == 2.0


# One valid value off the audit's base for each config field but experiment,
# output_path and output_format.  A field added later needs an entry here.
_OFF_BASE = {
    "tau": lambda config: 2.4,
    "C": lambda config: 1.5,
    "n_grid": lambda config: tuple(2 * n for n in config.n_grid),
    "lambda_rule": lambda config: LambdaRule(config.lambda_rule.kind,
                                             1.1 * config.lambda_rule.value),
    "a": lambda config: 2.0,
    "T": lambda config: 2.0,
    "replicas": lambda config: 2,
    "master_seed": lambda config: 2,
}


def _report_body(config: ExperimentConfig) -> str:
    result = run(config)
    return json.dumps([result.records, result.aggregates, result.theory], sort_keys=True)


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_every_config_field_is_read_or_refused(kind):
    # a value a row accepts must change its records, aggregates or theory
    # block, or the report would say it was made with a value nothing read
    assert set(_OFF_BASE) == {f.name for f in fields(ExperimentConfig)} - {
        "experiment", "output_path", "output_format"}
    n = {"theory_tables": 10**4, "one_neighborhood": 10**5}.get(kind, 2000)
    base = ExperimentConfig(kind, n_grid=(n,), replicas=1)
    body = _report_body(base)
    ignored = []
    for name, off in _OFF_BASE.items():
        try:
            config = replace(base, **{name: off(base)})
        except ConfigError:
            continue
        if _report_body(config) == body:
            ignored.append(name)
    assert ignored == [], f"{kind} accepts and ignores {ignored}"


def _sweep_config(rng: random.Random, experiment: str, regime: int) -> dict:
    """One seeded config of a row: tau near 2, near 3 or across (2, 3) as
    regime is 0, 1 or 2, C over 1e-6..1e3, n up to 2000 and any rule kind,
    the rule putting lambda_n in the lower half of the row's window in log
    scale, so pi_n < 1 and no sampled graph is large."""
    tau = (2.0 + 10 ** rng.uniform(-7, -2), 3.0 - 10 ** rng.uniform(-4, -1.5),
           rng.uniform(2.01, 2.99))[regime]
    n = rng.randint(3, 2000)
    window = (3.0 - tau) / (tau - 1.0 if EXPERIMENTS[experiment].mode == "multi" else 2.0)
    log_lam = rng.uniform(0.05, 0.5) * window * math.log(n)
    kind = rng.choice(("constant", "power", "logpower"))
    value = {"constant": math.exp(log_lam), "power": log_lam / math.log(n),
             "logpower": log_lam / math.log(math.log(n))}[kind]
    return dict(experiment=experiment, tau=tau, C=10 ** rng.uniform(-6, 3), n_grid=(n,),
                lambda_rule=LambdaRule(kind, value), replicas=1)


def _sweep_configs(count: int, seed: int):
    """Seeded configs of the four rows that run no walk, each tau regime in turn."""
    rng = random.Random(seed)
    rows = ("theory_tables", "multi_giant", "single_vs_multi", "one_neighborhood")
    for i in range(count):
        yield _sweep_config(rng, rows[i % 4], i % 3)


def test_config_sweep_runs_or_fails_closed():
    # every config is built and run, or refused with the package's own error;
    # an OverflowError or a ZeroDivisionError from the theory side is a crash
    ran, escaped = 0, []
    for kwargs in _sweep_configs(100, seed=0):
        try:
            run(ExperimentConfig(**kwargs))
            ran += 1
        except SfpercError:
            pass
        except Exception as e:
            escaped.append(f"{kwargs}: {e!r}")
    assert escaped == [], f"{len(escaped)} configs escaped SfpercError, first {escaped[0]}"
    assert 50 <= ran < 100  # the sweep reaches both outcomes


def test_constants_sweep_is_refused_exactly_past_float_range():
    # compute_constants takes one power of kappa, so over the sweep's tau and C
    # regimes it refuses exactly the draws whose constants leave the normal float
    # range; the rest lie within 16 ulp / (3 - tau) of 60 digits.  The
    # two-factor rho_star_inf it replaced refused 110 of the accepted draws
    # and read 0.0 at two others.
    rng = random.Random(48)
    lo, hi = sys.float_info.min, sys.float_info.max
    refused = 0
    for i in range(3000):
        kwargs = _sweep_config(rng, "multi_giant", i % 3)
        tau, C = kwargs["tau"], kwargs["C"]
        with mpmath.workdps(60):
            t = mpmath.mpf(tau)
            c_F = mpmath.mpf(C) ** (1 / (t - 1))
            kappa = c_F ** (t - 2) * mpmath.gamma(3 - t)
            root = kappa ** (1 / (3 - t))
            exact = (kappa, c_F * (t - 1) / (t - 2) * root, root)
        params = model_params(tau, C, 10)
        if not all(lo <= x <= hi for x in exact):
            with pytest.raises(DomainError, match="past float range"):
                compute_constants(params)
            refused += 1
            continue
        got = compute_constants(params)
        for value, want in zip(got[1:], exact[1:]):  # zeta and rho_star_inf
            assert abs(value - want) <= 16 * 2.0**-52 / (3.0 - tau) * want, kwargs
    assert refused == 650


def test_walk_config_sweep_is_capped_and_runs_or_fails_closed():
    # every walk config is refused or takes 1 to _MAX_STEPS steps; those of
    # at most 1e5 steps are run, and run or raise the package's own error
    rng = random.Random(0)
    rows = ("exploration_limit", "repeat_fraction", "residual_components")
    refused, ran, escaped = 0, 0, []
    for i in range(900):  # each row meets each tau regime 100 times
        kwargs = _sweep_config(rng, rows[i // 3 % 3], i % 3)
        try:
            config = ExperimentConfig(**kwargs)
        except ConfigError:
            refused += 1
            continue
        steps = _model_at(config, config.n_grid[0]).steps
        assert 1 <= steps <= _MAX_STEPS, kwargs
        if steps <= 10**5:
            try:
                run(config)
                ran += 1
            except SfpercError:
                pass
            except Exception as e:
                escaped.append(f"{kwargs}: {e!r}")
    assert escaped == [], f"{len(escaped)} configs escaped SfpercError, first {escaped[0]}"
    assert refused >= 100 and ran >= 100  # the sweep reaches both outcomes


@pytest.mark.parametrize("kind", ["theory_tables", "one_neighborhood"])
def test_theory_fails_before_any_replica(kind, monkeypatch):
    # the theory block draws nothing, so it is built before the first replica:
    # a failure there costs no sampling
    import sfperc.experiments as xp

    def fail(*_):
        raise NumericalFailureError("no fixed point")

    def forbidden(*_):
        raise AssertionError("a replica ran before the theory block")

    monkeypatch.setattr(xp, "core_limit", fail)
    monkeypatch.setitem(EXPERIMENTS, kind, EXPERIMENTS[kind]._replace(record=forbidden))
    n = {"theory_tables": 1000, "one_neighborhood": 10**5}[kind]
    with pytest.raises(NumericalFailureError, match="no fixed point"):
        run(ExperimentConfig(kind, n_grid=(n,), replicas=2))


def test_output_format_is_written_or_refused(tmp_path):
    # the format is read only where a report is written, so a non-default
    # one with no output path is refused rather than accepted and ignored
    with pytest.raises(ConfigError, match="no output_path"):
        small_config(output_format="csv")
    out = tmp_path / "records.csv"
    result = run(small_config(n_grid=(200,), replicas=2, output_path=str(out),
                              output_format="csv"))
    assert out.read_text().splitlines()[0] == ",".join(result.records[0].keys())


def test_limit_grid_built_once_per_n(monkeypatch):
    import sfperc.experiments as xp

    grids = []

    def counting(t, *args):
        if isinstance(t, np.ndarray):
            grids.append(t.size)
        return limit_curve_z(t, *args)

    monkeypatch.setattr(xp, "limit_curve_z", counting)
    run(ExperimentConfig("exploration_limit", n_grid=(1000,), replicas=5))
    assert len(grids) == 1
    run(ExperimentConfig("exploration_limit", n_grid=(1000, 2000), replicas=5, T=3.0))
    assert len(grids) == 3
    # the other experiments build no grid
    for kind in ("repeat_fraction", "residual_components", "multi_giant"):
        assert _build_context(ExperimentConfig(kind, n_grid=(1000,)), 1000).z_grid is None
    assert len(grids) == 3


def test_walk_replica_memory_per_step():
    # One exploration_limit replica at n = 1e6 (22,405 steps) peaks at about
    # 40 B/step: marks, flags, Z and wbar (25 B/step) plus the Poisson
    # draws of the fresh marks.  With S and repeats built as well it peaked
    # at 65 B/step.
    n = 10**6
    config = ExperimentConfig("exploration_limit", n_grid=(n,), replicas=1)
    ctx = _build_context(config, n)
    steps = math.floor(ctx.horizon * ctx.schedule.beta_n)
    # the first generator in a process also imports numpy's seeding modules
    _replica_record(config, ctx, 1)
    tracemalloc.start()
    try:
        _replica_record(config, ctx, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / steps <= 44.0


def test_core_replica_memory_per_vertex():
    # One one_neighborhood replica at n = 2e5 peaks at 17.8 B/vertex, where
    # the full graph's labeling (ids, ranks, counts and a 1 B/vertex offset
    # table over the graph, its edges ranked a block at a time) sets it,
    # just over the coupled sampler's 16.8.  Labeling through a ranked copy
    # of the edges, with int64 counts and multiplicities, peaked at 26.7.
    n = 200_000
    config = ExperimentConfig("one_neighborhood", n_grid=(n,), replicas=1)
    ctx = _build_context(config, n)
    # the first generator in a process also imports numpy's seeding modules
    _replica_record(config, ctx, 1)
    tracemalloc.start()
    try:
        _replica_record(config, ctx, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 20.0


def test_repeat_fraction_records_and_theory():
    config = ExperimentConfig("repeat_fraction", n_grid=(500,), replicas=2, T=1.0)
    result = run(config)
    for rec in result.records:
        assert 0.0 <= rec["repeat_fraction"]
        assert rec["pi_n"] == pytest.approx(result.theory["schedules"]["500"]["pi_n"])
    assert result.theory["slope_target"] == pytest.approx(1.0)
    assert result.theory["t"] == 1.0


def test_residual_records_and_theory(monkeypatch):
    calls = []
    validate = MultiGraph.validate
    monkeypatch.setattr(MultiGraph, "validate", lambda g: calls.append(g.n) or validate(g))
    config = ExperimentConfig("residual_components", n_grid=(500,), replicas=2)
    result = run(config)
    # each replica validates the percolated graph it samples
    assert calls == [500, 500]
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
        g_simple = sample_coupled_direct(ws, schedule.pi_n, rng)[1]
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
    # a bool or a non-integer count fails closed rather than running serially
    # or handing a float to the pool
    for bad in (0, True, 2.5, "2"):
        with pytest.raises(ConfigError):
            run(small_config(), threads=bad)


def _toy_record(config, ctx, replica, rng):
    trace = run_exploration(ctx.weights, ctx.schedule, ctx.steps, rng)
    return {"toy_steps": trace.steps, "toy_last_z": int(trace.Z[-1])}


def test_a_row_is_all_an_experiment_needs(monkeypatch, capsys):
    import sfperc.experiments as xp
    from sfperc.cli import build_parser, main

    toy = xp.Experiment("toy-walk", "a walk to twice the unit horizon", "multi",
                        LambdaRule("power", 0.1), (500, 1000), _toy_record,
                        lambda config, last, contexts: {"toy_n": last.n, "toy_T": last.horizon},
                        lambda params, constants: 2.0)
    monkeypatch.setitem(xp.EXPERIMENTS, "toy_walk", toy)
    config = ExperimentConfig("toy_walk", replicas=2)
    assert config.n_grid == (500, 1000) and config.mode == "multi"
    result = run(config)
    contexts = {n: _model_at(config, n) for n in config.n_grid}
    for ctx in contexts.values():
        assert ctx.horizon == 2.0 and ctx.steps == math.floor(2.0 * ctx.schedule.beta_n) >= 1
    assert [list(rec) for rec in result.records] == [
        ["n", "replica", "seed", "toy_steps", "toy_last_z"]] * 4
    assert all(rec["toy_steps"] == contexts[rec["n"]].steps for rec in result.records)
    assert list(result.theory)[-2:] == ["toy_n", "toy_T"]
    assert result.theory["toy_n"] == 1000 and result.theory["toy_T"] == 2.0
    # a given T overrides the row's horizon
    assert _build_context(ExperimentConfig("toy_walk", n_grid=(500,), T=3.0), 500).horizon == 3.0
    assert build_parser().parse_args(["toy-walk"]).experiment == "toy_walk"
    assert main(["toy-walk", "--n-grid", "500", "--replicas", "1"]) == 0
    assert "toy_steps_mean" in capsys.readouterr().out
