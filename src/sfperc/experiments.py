"""Seeded ensemble experiments, result aggregation, and persistence.

Each experiment maps a config to per-(n, replica) records plus the theory
targets the records are meant to approach, so a written report can be audited
without recomputing anything.  Runs are deterministic given (config,
master_seed): every replica draws from its own generator seeded by a splitmix
chain over (master_seed, n, replica), which also makes thread-parallel runs
byte-identical to serial ones.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .components import component_sizes, core_report, merged_giant_size
from .errors import ConfigError, DomainError, SfpercError
from .exploration import (
    ExplorationTrace,
    _check_key_range,
    repeat_fraction,
    residual_largest_component,
    run_exploration,
    sup_distance_to_limit,
)
from .graphgen import MultiGraph, SimpleGraph, sample_coupled_direct, sample_percolated_mnr_direct
from .params import (
    LambdaRule,
    PercolationSchedule,
    WeightSequence,
    build_weights,
    check_total_weight,
    core_prefix_size,
    is_number,
    make_schedule,
    model_params,
)
from .theory import (
    compute_constants,
    core_limit,
    horizon_for_forward_degree,
    limit_curve_max,
    limit_curve_z,
    truncated_operator_norm,
)

RESULT_VERSION = 4


class Experiment(NamedTuple):
    """One experiment: its CLI subcommand and help line, the window it
    percolates on, the defaults a config leaves out, and what it computes."""

    command: str
    help: str
    mode: str
    lambda_rule: LambdaRule
    n_grid: tuple[int, ...]
    record: Callable[..., dict]  # (config, ctx, replica, rng) -> a replica's own keys
    theory: Callable[..., dict] | None = None  # (config, contexts[-1], contexts) -> keys
    horizon: Callable[..., float] | None = None  # (params, constants) -> a walk's default T


_POWER = LambdaRule("power", 0.1)
_N_GRID = (10**4, 10**5, 10**6)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, serializable description of one ensemble run."""

    experiment: str
    tau: float = 2.5
    C: float = 1.0
    n_grid: tuple[int, ...] | None = None
    lambda_rule: LambdaRule | None = None
    a: float = 1.0
    T: float | None = None
    replicas: int = 20
    master_seed: int = 1
    output_path: str | None = None
    output_format: str = "json"

    def __post_init__(self):
        # a list is unhashable, so test the type before the table lookup
        if not (isinstance(self.experiment, str) and self.experiment in EXPERIMENTS):
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; expected one of {tuple(EXPERIMENTS)}"
            )
        spec = EXPERIMENTS[self.experiment]
        if self.n_grid is None:
            object.__setattr__(self, "n_grid", spec.n_grid)
        if not (isinstance(self.n_grid, (list, tuple))
                and all(is_number(n) and float(n).is_integer() for n in self.n_grid)):
            raise ConfigError(f"n_grid must be a list of whole numbers, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.lambda_rule is None:
            object.__setattr__(self, "lambda_rule", spec.lambda_rule)
        elif not isinstance(self.lambda_rule, LambdaRule):
            object.__setattr__(self, "lambda_rule", LambdaRule.from_dict(self.lambda_rule))
        for name in ("tau", "C", "a"):
            value = getattr(self, name)
            if not is_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))  # a numpy float is no JSON number
        for name in ("replicas", "master_seed"):
            value = getattr(self, name)
            if not is_number(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer within float range, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.T is not None:
            if spec.horizon is None:
                raise ConfigError(f"T is a walk's horizon, and {self.experiment} runs no walk")
            if not (is_number(self.T) and self.T > 0.0):
                raise ConfigError(f"T must be finite and > 0, got {self.T!r}")
            object.__setattr__(self, "T", float(self.T))
        if self.a != 1.0 and self.experiment not in ("theory_tables", "one_neighborhood"):
            raise ConfigError(f"a is a core level, and {self.experiment} reads no core")
        if not 1 <= self.replicas < 2**64:  # seeds key a replica in 64 bits
            raise ConfigError(f"replicas must lie in [1, 2**64), got {self.replicas}")
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError(f"n_grid must be strictly ascending, got {self.n_grid}")
        if self.output_path is not None:
            if not isinstance(self.output_path, str):
                raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
            check_output_path(self.output_path)
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format must be 'csv' or 'json', got {self.output_format!r}")
        if self.output_format != "json" and self.output_path is None:
            raise ConfigError(f"output_format {self.output_format!r} is a report's format,"
                              f" and no output_path is given to write one")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 bits")
        if self.experiment == "theory_tables" and not (self.a > max(_THEORY_EPS_GRID)):
            raise ConfigError(
                f"the theory tables need a > {max(_THEORY_EPS_GRID)} for their operator norms,"
                f" got a={self.a}"
            )
        # every n must be feasible before any sampling happens
        for n in self.n_grid:
            try:
                _model_at(self, n)
            except SfpercError as e:
                raise ConfigError(f"infeasible schedule at n={n}: {e}") from e

    @property
    def mode(self) -> str:
        return EXPERIMENTS[self.experiment].mode

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d.update(n_grid=list(self.n_grid), lambda_rule=self.lambda_rule.to_dict())
        return {"version": RESULT_VERSION, **d}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Fail-closed parser: unknown fields and version mismatches are errors."""
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        names = {f.name for f in fields(cls)}
        extra = set(d) - names - {"version"}
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if d.get("version", RESULT_VERSION) != RESULT_VERSION:
            raise ConfigError(f"unsupported config version {d.get('version')!r}")
        if "experiment" not in d:
            raise ConfigError("config needs an 'experiment' field")
        return cls(**{key: value for key, value in d.items()
                      if key in names and value is not None})

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as e:
            raise ConfigError(f"cannot read the config at {path}: {e.strerror}") from e
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config at {path} is not valid JSON: {e}") from e
        return cls.from_dict(data)


# --------------------------------------------------------------------------
# seed derivation
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master_seed: int, n: int, replica: int) -> int:
    """Deterministic 64-bit stream seed for one (n, replica) cell."""
    s = _splitmix64(master_seed & _MASK64)
    s = _splitmix64(s ^ (n & _MASK64))
    return _splitmix64(s ^ (replica & _MASK64))


# --------------------------------------------------------------------------
# per-n context and per-replica workers
# --------------------------------------------------------------------------


class _Context(NamedTuple):
    """Shared read-only state for all replicas at one n, a run's cell: `run`
    builds one per n of the grid, in n order, and reads all it reports off them."""

    n: int
    weights: WeightSequence | None  # None only in _model_at's feasibility context
    schedule: PercolationSchedule
    constants: object
    horizon: float | None  # a walk's horizon in rescaled time, None for no walk
    steps: int | None  # the walk to the horizon: floor(horizon * beta_n) steps
    # exploration_limit only: z(l/beta_n) on the walk's step grid, read-only
    z_grid: np.ndarray | None = None


def _model_at(config: ExperimentConfig, n: int) -> _Context:
    """The context at n without the weights or the limit grid: a walk's horizon
    is T when given, else its row's default, in rescaled time, and the walk takes
    floor(horizon * beta_n) steps; both are None without a walk.  Raises
    SfpercError where n is infeasible: its schedule, a sampling row's Poisson
    rates, the core row's core, or a walk's first step or first-draw keys."""
    params = model_params(config.tau, config.C, n)
    sch = make_schedule(params, config.mode, config.lambda_rule)
    constants = compute_constants(params)
    default = EXPERIMENTS[config.experiment].horizon
    horizon = steps = None
    if default is not None:
        horizon = config.T if config.T is not None else default(params, constants)
        if not math.isfinite(horizon * sch.beta_n):
            raise DomainError(f"the walk horizon {horizon!r} overflows at beta_n={sch.beta_n!r}")
        steps = math.floor(horizon * sch.beta_n)
    if config.experiment != "theory_tables":  # mu * n bounds ell_n from above
        check_total_weight(sch.pi_n, params.mu * n)
    if config.experiment == "one_neighborhood":
        core_prefix_size(sch, config.a)
    if steps == 0 and config.experiment != "residual_components":
        raise DomainError(f"the walk horizon {horizon!r} takes no step (beta_n={sch.beta_n!r})")
    if steps:
        _check_key_range(n, steps)
    return _Context(n, None, sch, constants, horizon, steps)


def _build_context(config: ExperimentConfig, n: int) -> _Context:
    ctx = _model_at(config, n)
    sch = ctx.schedule
    z_grid = None
    if config.experiment == "exploration_limit":
        z_grid = limit_curve_z(np.arange(ctx.steps + 1) / sch.beta_n, sch.params, ctx.constants)
        z_grid.flags.writeable = False
    return ctx._replace(weights=build_weights(sch.params), z_grid=z_grid)


def _schedule_row(sch: PercolationSchedule) -> dict:
    return {"lambda_n": sch.lambda_n, "pi_n": sch.pi_n, "beta_n": sch.beta_n, "N_n": sch.N_n}


def _replica_record(config: ExperimentConfig, ctx: _Context, replica: int) -> dict:
    seed = derive_seed(config.master_seed, ctx.n, replica)
    own = EXPERIMENTS[config.experiment].record(config, ctx, replica, np.random.default_rng(seed))
    return {"n": ctx.n, "replica": replica, "seed": seed, **own}


def _giant_record(config, ctx: _Context, replica: int, rng) -> dict:
    sch = ctx.schedule
    g = sample_percolated_mnr_direct(ctx.weights, sch.pi_n, rng)
    g.validate()
    summary = component_sizes(g)
    c1, c2 = summary.giant_size, summary.second_size
    return {"c1": c1, "c2": c2, "c1_over_beta": c1 / sch.beta_n, "c2_over_beta": c2 / sch.beta_n}


def _coupled_record(config, ctx: _Context, replica: int, rng) -> dict:
    sch = ctx.schedule
    g_multi, g_simple, dropped = sample_coupled_direct(ctx.weights, sch.pi_n, rng)
    g_multi.validate()
    g_simple.validate()
    pairs = np.count_nonzero(g_multi.src != g_multi.dst)
    if g_simple.edge_count + dropped.edge_count != pairs:
        raise AssertionError(
            f"the simple graph and its dropped pairs do not partition the multigraph's"
            f" non-loop pairs at n={ctx.n}, replica={replica}"
        )
    del g_multi  # nothing below reads it; labelling need not hold it
    simple = component_sizes(g_simple)
    c1_star = simple.giant_size
    # The multigraph's components are the simple graph's joined by the
    # pairs it dropped; its loops join nothing.
    c1 = merged_giant_size(simple, dropped)
    if c1 < c1_star:
        raise AssertionError(
            f"coupling violated at n={ctx.n}, replica={replica}: |C1|={c1} < |C1*|={c1_star}"
        )
    return {"c1_over_beta": c1 / sch.beta_n, "c1_star_over_beta": c1_star / sch.beta_n,
            "diff_over_beta": (c1 - c1_star) / sch.beta_n}


def _limit_record(config, ctx: _Context, replica: int, rng) -> dict:
    trace = run_exploration(ctx.weights, ctx.schedule, ctx.steps, rng)
    return {"sup_distance": sup_distance_to_limit(trace, ctx.schedule, ctx.z_grid)}


def _repeat_record(config, ctx: _Context, replica: int, rng) -> dict:
    trace = run_exploration(ctx.weights, ctx.schedule, ctx.steps, rng)
    return {"pi_n": ctx.schedule.pi_n,
            "repeat_fraction": repeat_fraction(trace, ctx.schedule)}


def _residual_record(config, ctx: _Context, replica: int, rng) -> dict:
    largest = residual_largest_component(ctx.weights, ctx.schedule, ctx.steps, rng)
    return {"residual_largest": largest, "residual_over_beta": largest / ctx.schedule.beta_n}


def _core_record(config: ExperimentConfig, ctx: _Context, replica: int, rng) -> dict:
    sch = ctx.schedule
    # Binding only the simple graph lets the multigraph go before the core report.
    g_simple = sample_coupled_direct(ctx.weights, sch.pi_n, rng)[1]
    g_simple.validate()
    report = core_report(g_simple, ctx.weights, sch, config.a)
    weight = report.core_giant_weight
    return dict(
        core_size=report.core_size,
        core_giant_size=report.core_giant_size,
        core_giant_fraction=report.core_giant_size / report.core_size,
        core_giant_weight=weight,
        weight_over_beta=weight / sch.beta_n,
        one_neighborhood_size=report.one_neighborhood_size,
        relative_gap=abs(report.one_neighborhood_size - weight) / weight,
    )


# --------------------------------------------------------------------------
# theory targets embedded in every report
# --------------------------------------------------------------------------

_THEORY_A_GRID = (1.0, 4.0, 10.0, 100.0, 1000.0, 10000.0)
_THEORY_EPS_GRID = (0.1, 0.01, 0.001)


def _theory_block(config: ExperimentConfig, contexts: list[_Context]) -> dict:
    last = contexts[-1]
    params, constants = last.schedule.params, last.constants
    block = {
        "alpha": params.alpha,
        "mu": params.mu,
        "kappa": constants.kappa,
        "zeta": constants.zeta,
        "rho_star_inf": constants.rho_star_inf,
        "schedules": {str(ctx.n): _schedule_row(ctx.schedule) for ctx in contexts},
    }
    theory = EXPERIMENTS[config.experiment].theory
    if theory is not None:
        block.update(theory(config, last, contexts))
    return block


def _limit_theory(config, last: _Context, contexts) -> dict:
    params, constants, horizon = last.schedule.params, last.constants, last.horizon
    ts = [round(i * horizon / 32, 12) for i in range(1, 33)]
    return {
        "T": horizon,
        "max_z": limit_curve_max(params, constants, horizon),
        "z_curve": [[t, limit_curve_z(t, params, constants)] for t in ts],
    }


def _repeat_theory(config, last: _Context, contexts) -> dict:
    tau = last.schedule.params.tau
    return {"t": last.horizon, "slope_target": (tau - 2.0) / (3.0 - tau)}


def _tables_theory(config: ExperimentConfig, last: _Context, contexts) -> dict:
    params = last.schedule.params
    rows = []
    for a in _THEORY_A_GRID:
        limit = core_limit(a, params)
        rows.append({
            "a": a,
            "rho_star_a": limit.rho_star_a,
            "scaled_rho_star": a ** (1.0 - params.alpha) * limit.rho_star_a,
            "rho_a": limit.rho_a,
            "zeta_a": limit.zeta_a,
        })
    norms = [{"eps": eps, "a": config.a, "norm": truncated_operator_norm(eps, config.a, params)}
             for eps in _THEORY_EPS_GRID]
    return {"a_table": rows, "operator_norms": norms}


# The one place an experiment is declared; the CLI lists them in this order.
# Rows hold this module's functions, which reach the layers through its globals.
EXPERIMENTS = {
    "theory_tables": Experiment(
        "theory", "emit the closed-form constants and a-grid tables", "multi", _POWER, (10**6,),
        lambda config, ctx, replica, rng: _schedule_row(ctx.schedule), _tables_theory),
    "exploration_limit": Experiment(
        "explore", "exploration walks against the limit curve", "multi", _POWER, _N_GRID,
        _limit_record, _limit_theory, lambda params, constants: 1.5 * constants.zeta),
    "multi_giant": Experiment(
        "giant", "largest-component scaling on the multigraph window", "multi", _POWER, _N_GRID,
        _giant_record),
    "single_vs_multi": Experiment(
        "single-vs-multi", "coupled percolation: giant gap across windows", "single", _POWER,
        _N_GRID, _coupled_record),
    "residual_components": Experiment(
        "residual", "largest component left after the exploration horizon", "multi", _POWER,
        (10**4, 10**5), _residual_record,
        lambda config, last, contexts: {"horizon": {str(ctx.n): ctx.horizon for ctx in contexts}},
        lambda params, constants: horizon_for_forward_degree(params)),
    "repeat_fraction": Experiment(
        "repeat-fraction", "repeat-rate diagnostic of the exploration walk", "multi", _POWER,
        _N_GRID, _repeat_record, _repeat_theory, lambda params, constants: 1.0),
    # The core experiment keeps lambda constant so the core scale N_n grows
    # with n; everything else uses the slowly growing power rule.
    "one_neighborhood": Experiment(
        "core", "core giant, its weight and its one-neighborhood", "single",
        LambdaRule("constant", 10.0), (10**5, 10**6), _core_record,
        lambda config, last, contexts: core_limit(config.a, last.schedule.params)._asdict()),
}


# --------------------------------------------------------------------------
# running, aggregating, writing
# --------------------------------------------------------------------------


class ExperimentResult(NamedTuple):
    """Records plus aggregates plus the theory targets they chase."""

    config: ExperimentConfig
    records: list
    aggregates: dict
    theory: dict

    def to_dict(self) -> dict:
        return {
            "version": RESULT_VERSION,
            "config": self.config.to_dict(),
            "records": self.records,
            "aggregates": self.aggregates,
            "theory": self.theory,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


_NON_STAT_KEYS = ("n", "replica", "seed")


def _aggregate(records: list) -> dict:
    """Each numeric key's statistics over one n's records."""
    stats = {}
    for key, value in records[0].items():
        if key in _NON_STAT_KEYS or not isinstance(value, (int, float)):
            continue
        xs = np.array([r[key] for r in records], dtype=float)
        stats[key] = {
            "mean": float(xs.mean()),
            "median": float(np.median(xs)),
            "std": float(xs.std(ddof=1)) if xs.size > 1 else 0.0,
            "q05": float(np.quantile(xs, 0.05)),
            "q95": float(np.quantile(xs, 0.95)),
        }
    return stats


def run(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the configured ensemble and return (and optionally persist) the result.

    Replica order never affects output: records come back in (n, replica)
    order, each replica's generator is derived, not drawn from a shared
    stream, and the contexts hold nothing mutable, so `threads > 1`
    produces byte-identical reports.
    """
    if not (is_number(threads, numbers.Integral) and threads >= 1):
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    contexts = [_build_context(config, n) for n in config.n_grid]
    theory = _theory_block(config, contexts)  # draws nothing, so its failures come first
    jobs = [(ctx, r) for ctx in contexts for r in range(config.replicas)]

    def work(job):
        return _replica_record(config, *job)

    if threads > 1:
        # Imported here, like csv below, so a run that needs neither pays
        # for neither (the pool also loads logging and queue).
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(work, jobs))
    else:
        records = [work(job) for job in jobs]

    per_n = config.replicas
    aggregates = {str(ctx.n): _aggregate(records[i * per_n:(i + 1) * per_n])
                  for i, ctx in enumerate(contexts)}
    result = ExperimentResult(config, records, aggregates, theory)
    if config.output_path is not None:
        write_result(result, config.output_path, config.output_format)
    return result


def summarize(result: ExperimentResult) -> list:
    """Convergence table: one row per n with aggregate statistics and targets."""
    if not result.records:
        raise DomainError("cannot summarize an empty result")
    rows = []
    for n_str, stats in result.aggregates.items():
        row = {"n": int(n_str)}
        for key, agg in stats.items():
            for stat_name, value in agg.items():
                row[f"{key}_{stat_name}"] = value
        for key, value in result.theory.items():
            if isinstance(value, (int, float)):
                row[key] = value
        rows.append(row)
    return rows


def check_output_path(path) -> None:
    """Refuse a path that cannot name a file: an empty one, one that ends in a
    separator, "." or "..", or an existing directory."""
    text = os.fspath(path)
    if os.path.basename(text) in ("", ".", "..") or os.path.isdir(text):
        raise ConfigError(f"the output path {text!r} does not name a file")


def _atomic_write(path, write) -> None:
    """Call write(fh) on a temporary file beside path, then rename it onto path.

    The path is checked first; missing parent directories are made; on any
    exception the temporary file is removed, so a failed write leaves no file.
    """
    check_output_path(path)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Created with mode 0666 less the umask, as open() would; mkstemp makes 0600.
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_result(result: ExperimentResult, path, output_format: str = "json") -> None:
    """Persist a result atomically as JSON or records-CSV."""
    if output_format == "json":
        _atomic_write(path, lambda fh: fh.write(result.to_json()))
    elif output_format == "csv":
        if not result.records:
            raise DomainError("cannot write an empty record table as CSV")
        import csv

        def write(fh):
            writer = csv.DictWriter(fh, fieldnames=list(result.records[0].keys()))
            writer.writeheader()
            writer.writerows(result.records)

        _atomic_write(path, write)
    else:
        raise ConfigError(f"output_format must be 'csv' or 'json', got {output_format!r}")


def write_edge_list(g: MultiGraph | SimpleGraph, path) -> None:
    """Plain text dump: header "n m", then one "i j multiplicity" line per pair."""
    mult = g.mult if isinstance(g, MultiGraph) else np.ones(g.src.size, dtype=np.int64)
    rows = np.column_stack([g.src, g.dst, mult])
    _atomic_write(path, lambda fh: np.savetxt(fh, rows, fmt="%d", header=f"{g.n} {g.src.size}",
                                              comments=""))


def write_trace_csv(trace: ExplorationTrace, path) -> None:
    """CSV export with header step,Z,S,repeats,new_mark (one row per step)."""
    Z, S, repeats, new = trace.Z, trace.S, trace.repeats, trace.new_mark

    def write(fh):
        fh.write("step,Z,S,repeats,new_mark\n")
        for l in range(1, trace.steps + 1):
            fh.write(f"{l},{Z[l]},{float(S[l])!r},{repeats[l]},{int(new[l - 1])}\n")

    _atomic_write(path, write)
