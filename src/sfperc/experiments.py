"""Seeded ensemble experiments, result aggregation, and persistence.

Each experiment maps a config to per-(n, replica) records plus the theory
targets the records are meant to approach, so a written report can be audited
without recomputing anything.  Runs are deterministic given (config,
master_seed): every replica draws from its own generator seeded by a splitmix
chain over (master_seed, n, replica), which also makes thread-parallel runs
byte-identical to serial ones.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .components import component_sizes, core_report, merged_giant_size
from .errors import ConfigError, DomainError, SfpercError
from .exploration import (
    ExplorationTrace,
    repeat_fraction,
    residual_largest_component,
    run_exploration,
    sup_distance_to_limit,
)
from .graphgen import sample_coupled_direct, sample_percolated_mnr_direct
from .params import (
    LambdaRule,
    PercolationSchedule,
    WeightSequence,
    build_weights,
    core_prefix_size,
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

RESULT_VERSION = 2


@dataclass(frozen=True)
class Experiment:
    """One experiment: its CLI subcommand and help line, the window it
    percolates on, and the defaults a config leaves out."""

    command: str
    help: str
    mode: str
    lambda_rule: LambdaRule
    n_grid: tuple[int, ...]


_POWER = LambdaRule("power", 0.1)
_N_GRID = (10**4, 10**5, 10**6)

# The one place an experiment is declared; the CLI lists them in this order.
EXPERIMENTS = {
    "theory_tables": Experiment("theory", "emit the closed-form constants and a-grid tables",
                                "multi", _POWER, (10**6,)),
    "exploration_limit": Experiment("explore", "exploration walks against the limit curve",
                                    "multi", _POWER, _N_GRID),
    "multi_giant": Experiment("giant", "largest-component scaling on the multigraph window",
                              "multi", _POWER, _N_GRID),
    "single_vs_multi": Experiment(
        "single-vs-multi", "coupled percolation: giant gap across windows",
        "single", _POWER, _N_GRID),
    "residual_components": Experiment(
        "residual", "largest component left after the exploration horizon",
        "multi", _POWER, (10**4, 10**5)),
    "repeat_fraction": Experiment(
        "repeat-fraction", "repeat-rate diagnostic of the exploration walk",
        "multi", _POWER, _N_GRID),
    # The core experiment keeps lambda constant so the core scale N_n grows
    # with n; everything else uses the slowly growing power rule.
    "one_neighborhood": Experiment("core", "core giant, its weight and its one-neighborhood",
                                   "single", LambdaRule("constant", 10.0), (10**5, 10**6)),
}


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def _is_number(value, kind=numbers.Real) -> bool:
    """A number of the given kind; bools do not count."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_whole(value) -> bool:
    return _is_number(value, numbers.Integral) or (_is_number(value) and float(value).is_integer())


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
        if not (isinstance(self.n_grid, (list, tuple)) and all(_is_whole(n) for n in self.n_grid)):
            raise ConfigError(f"n_grid must be a list of whole numbers, got {self.n_grid!r}")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if self.lambda_rule is None:
            object.__setattr__(self, "lambda_rule", spec.lambda_rule)
        elif not isinstance(self.lambda_rule, LambdaRule):
            object.__setattr__(self, "lambda_rule", LambdaRule.from_dict(self.lambda_rule))
        for name in ("tau", "C", "a"):
            value = getattr(self, name)
            if not (_is_number(value) and math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        for name in ("replicas", "master_seed"):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.T is not None and not (_is_number(self.T) and 0.0 < self.T < math.inf):
            raise ConfigError(f"T must be finite and > 0, got {self.T!r}")
        if self.replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {self.replicas}")
        if not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ConfigError(f"n_grid must be strictly ascending, got {self.n_grid}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError(f"output_format must be 'csv' or 'json', got {self.output_format!r}")
        if not (0 <= self.master_seed < 2**64):
            raise ConfigError("master_seed must fit in 64 bits")
        if self.experiment == "theory_tables" and not (self.a > max(_THEORY_EPS_GRID)):
            raise ConfigError(
                f"the theory tables need a > {max(_THEORY_EPS_GRID)} for their operator norms,"
                f" got a={self.a}"
            )
        # every schedule, and the core experiment's core, must be feasible
        # before any sampling happens
        for n in self.n_grid:
            try:
                sch = make_schedule(model_params(self.tau, self.C, n), self.mode, self.lambda_rule)
                if self.experiment == "one_neighborhood":
                    core_prefix_size(sch, self.a)
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
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
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


@dataclass(frozen=True)
class _Context:
    """Shared read-only state for all replicas at one n."""

    n: int
    weights: WeightSequence
    schedule: PercolationSchedule
    constants: object
    horizon: float  # exploration horizon in rescaled time


def _build_context(config: ExperimentConfig, n: int) -> _Context:
    params = model_params(config.tau, config.C, n)
    ws = build_weights(params)
    sch = make_schedule(params, config.mode, config.lambda_rule)
    constants = compute_constants(params)
    if config.T is not None:
        horizon = float(config.T)
    elif config.experiment == "exploration_limit":
        horizon = 1.5 * constants.zeta
    elif config.experiment == "residual_components":
        horizon = horizon_for_forward_degree(params)
    else:
        horizon = 1.0
    return _Context(n=n, weights=ws, schedule=sch, constants=constants, horizon=horizon)


def walk_to_horizon(ctx: _Context, rng) -> ExplorationTrace:
    """The exploration walk at ctx.n, run for floor(horizon * beta_n) steps."""
    steps = math.floor(ctx.horizon * ctx.schedule.beta_n)
    return run_exploration(ctx.weights, ctx.schedule, steps, rng)


def _schedule_row(sch: PercolationSchedule) -> dict:
    return {"lambda_n": sch.lambda_n, "pi_n": sch.pi_n, "beta_n": sch.beta_n, "N_n": sch.N_n}


def _replica_record(config: ExperimentConfig, ctx: _Context, replica: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    ws, sch = ctx.weights, ctx.schedule
    rec = {"n": ctx.n, "replica": replica, "seed": seed}
    kind = config.experiment

    if kind == "multi_giant":
        g = sample_percolated_mnr_direct(ws, sch.pi_n, rng)
        g.validate()
        summary = component_sizes(g)
        rec.update(
            c1=summary.giant_size,
            c2=summary.second_size,
            c1_over_beta=summary.giant_size / sch.beta_n,
            c2_over_beta=summary.second_size / sch.beta_n,
        )
    elif kind == "single_vs_multi":
        g_multi, g_simple, dropped = sample_coupled_direct(ws, sch.pi_n, rng)
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
        rec.update(
            c1_over_beta=c1 / sch.beta_n,
            c1_star_over_beta=c1_star / sch.beta_n,
            diff_over_beta=(c1 - c1_star) / sch.beta_n,
        )
    elif kind == "exploration_limit":
        trace = walk_to_horizon(ctx, rng)
        rec.update(sup_distance=sup_distance_to_limit(trace, sch, ctx.constants, ctx.horizon))
    elif kind == "repeat_fraction":
        trace = walk_to_horizon(ctx, rng)
        rec.update(pi_n=sch.pi_n, repeat_fraction=repeat_fraction(trace, sch, ctx.horizon))
    elif kind == "residual_components":
        largest = residual_largest_component(ws, sch, ctx.horizon, rng)
        rec.update(residual_largest=largest, residual_over_beta=largest / sch.beta_n)
    elif kind == "one_neighborhood":
        # Binding only the simple graph lets the multigraph go before the core report.
        g_simple = sample_coupled_direct(ws, sch.pi_n, rng)[1]
        g_simple.validate()
        report = core_report(g_simple, ws, sch, config.a)
        weight = report.core_giant_weight
        rec.update(
            core_size=report.core_size,
            core_giant_size=report.core_giant_size,
            core_giant_fraction=report.core_giant_size / report.core_size,
            core_giant_weight=weight,
            weight_over_beta=weight / sch.beta_n,
            one_neighborhood_size=report.one_neighborhood_size,
            relative_gap=abs(report.one_neighborhood_size - weight) / weight,
        )
    elif kind == "theory_tables":
        rec.update(_schedule_row(sch))
    else:  # pragma: no cover - EXPERIMENTS is closed
        raise ConfigError(f"unhandled experiment {kind!r}")
    return rec


# --------------------------------------------------------------------------
# theory targets embedded in every report
# --------------------------------------------------------------------------

_THEORY_A_GRID = (1.0, 4.0, 10.0, 100.0, 1000.0, 10000.0)
_THEORY_EPS_GRID = (0.1, 0.01, 0.001)


def _theory_block(config: ExperimentConfig, contexts: dict[int, _Context]) -> dict:
    last = contexts[max(config.n_grid)]
    params, constants = last.schedule.params, last.constants
    block = {
        "alpha": params.alpha,
        "mu": params.mu,
        "kappa": constants.kappa,
        "zeta": constants.zeta,
        "rho_star_inf": constants.rho_star_inf,
        "schedules": {str(n): _schedule_row(ctx.schedule) for n, ctx in contexts.items()},
    }
    kind = config.experiment
    if kind == "exploration_limit":
        ts = [round(i * last.horizon / 32, 12) for i in range(1, 33)]
        block["T"] = last.horizon
        block["max_z"] = limit_curve_max(params, constants, last.horizon)
        block["z_curve"] = [[t, limit_curve_z(t, params, constants)] for t in ts]
    elif kind == "repeat_fraction":
        block["t"] = last.horizon
        block["slope_target"] = (params.tau - 2.0) / (3.0 - params.tau)
    elif kind == "residual_components":
        block["horizon"] = {str(n): ctx.horizon for n, ctx in contexts.items()}
    elif kind == "one_neighborhood":
        limit = core_limit(config.a, params)
        block["a"] = config.a
        block["rho_star_a"] = limit.rho_star_a
        block["rho_a"] = limit.rho_a
        block["zeta_a"] = limit.zeta_a
    elif kind == "theory_tables":
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
        block["a_table"] = rows
        block["operator_norms"] = [
            {"eps": eps, "a": config.a,
             "norm": truncated_operator_norm(eps, config.a, params)}
            for eps in _THEORY_EPS_GRID
        ]
    return block


# --------------------------------------------------------------------------
# running, aggregating, writing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """Records plus aggregates plus the theory targets they chase."""

    config: ExperimentConfig
    records: list = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    # The per-n contexts run() built, for callers that sample more at the
    # same n; kept out of to_dict(), so never part of a report.
    contexts: dict = field(default_factory=dict, repr=False, compare=False)

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
    by_n: dict[int, list] = {}
    for rec in records:
        by_n.setdefault(rec["n"], []).append(rec)
    out = {}
    for n in sorted(by_n):
        recs = by_n[n]
        stats = {}
        for key, value in recs[0].items():
            if key in _NON_STAT_KEYS or not isinstance(value, (int, float)):
                continue
            xs = np.array([r[key] for r in recs], dtype=float)
            stats[key] = {
                "mean": float(xs.mean()),
                "median": float(np.median(xs)),
                "std": float(xs.std(ddof=1)) if xs.size > 1 else 0.0,
                "q05": float(np.quantile(xs, 0.05)),
                "q95": float(np.quantile(xs, 0.95)),
            }
        out[str(n)] = stats
    return out


def run(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Run the configured ensemble and return (and optionally persist) the result.

    Replica order never affects output: records are keyed and sorted by
    (n, replica), and each replica's generator is derived, not drawn from a
    shared stream, so `threads > 1` produces byte-identical reports.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    contexts = {n: _build_context(config, n) for n in config.n_grid}
    jobs = [
        (n, r, derive_seed(config.master_seed, n, r))
        for n in config.n_grid
        for r in range(config.replicas)
    ]

    def work(job):
        n, r, seed = job
        return _replica_record(config, contexts[n], r, seed)

    if threads > 1:
        # The first replica at each n builds the mark table the others read,
        # so no two threads build the same table.
        records = [work(job) for job in jobs if job[1] == 0]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records += pool.map(work, [job for job in jobs if job[1] > 0])
    else:
        records = [work(job) for job in jobs]
    records.sort(key=lambda rec: (rec["n"], rec["replica"]))

    result = ExperimentResult(
        config=config,
        records=records,
        aggregates=_aggregate(records),
        theory=_theory_block(config, contexts),
        contexts=contexts,
    )
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
    rows.sort(key=lambda row: row["n"])
    return rows


def _atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_result(result: ExperimentResult, path, output_format: str = "json") -> None:
    """Persist a result atomically (temp file + rename) as JSON or records-CSV."""
    if output_format == "json":
        _atomic_write_text(path, result.to_json())
    elif output_format == "csv":
        if not result.records:
            raise DomainError("cannot write an empty record table as CSV")
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(result.records[0].keys()))
        writer.writeheader()
        for rec in result.records:
            writer.writerow(rec)
        _atomic_write_text(path, buf.getvalue())
    else:
        raise ConfigError(f"output_format must be 'csv' or 'json', got {output_format!r}")
