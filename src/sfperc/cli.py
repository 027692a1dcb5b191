"""Command-line entry points for running experiments and dumping artifacts."""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import experiments as xp
from .errors import SfpercError
from .exploration import run_exploration, write_trace_csv
from .graphgen import (
    sample_coupled_direct,
    sample_mnr,
    sample_percolated_mnr_direct,
    write_edge_list,
)
from .params import LambdaRule, build_weights, make_schedule, model_params

_SUBCOMMAND_EXPERIMENT = {
    "theory": "theory_tables",
    "explore": "exploration_limit",
    "giant": "multi_giant",
    "single-vs-multi": "single_vs_multi",
    "residual": "residual_components",
    "repeat-fraction": "repeat_fraction",
    "core": "one_neighborhood",
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags below override it")
    sub.add_argument("--seed", type=int, help="master seed (default 1)")
    sub.add_argument("--out", help="output path for the result report")
    sub.add_argument("--format", choices=("csv", "json"), help="output format (default json)")
    sub.add_argument("--threads", type=int, default=1, help="replica-level worker threads")
    sub.add_argument("--tau", type=float, help="degree exponent, in (2, 3)")
    sub.add_argument("--C", type=float, dest="big_c", help="weight scale constant")
    sub.add_argument("--n-grid", type=int, nargs="+", help="ascending graph sizes")
    sub.add_argument("--replicas", type=int, help="replicas per n")
    sub.add_argument("--a", type=float, help="core level (core subcommand)")
    sub.add_argument("--T", type=float, help="rescaled time horizon")
    sub.add_argument("--lambda-kind", choices=("constant", "power", "logpower"))
    sub.add_argument("--lambda-value", type=float, help="lambda rule value/exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfperc",
        description="Percolation ensembles on Poissonian scale-free graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("theory", "emit the closed-form constants and a-grid tables"),
        ("explore", "exploration walks against the limit curve"),
        ("giant", "largest-component scaling on the multigraph window"),
        ("single-vs-multi", "coupled percolation: giant gap across windows"),
        ("residual", "largest component left after the exploration horizon"),
        ("repeat-fraction", "repeat-rate diagnostic of the exploration walk"),
        ("core", "core giant, its weight and its one-neighborhood"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "explore":
            sub.add_argument("--trace", help="also write one walk trace CSV here")

    gen = subs.add_parser("generate", help="sample one graph and write its edge list")
    gen.add_argument("--n", type=int, required=True, help="number of vertices")
    gen.add_argument("--tau", type=float, default=2.5)
    gen.add_argument("--C", type=float, dest="big_c", default=1.0)
    gen.add_argument("--mode", choices=("raw", "multi", "single"), default="raw",
                     help="raw multigraph, percolated multigraph, or coupled simple graph")
    gen.add_argument("--lambda-kind", choices=("constant", "power", "logpower"))
    gen.add_argument("--lambda-value", type=float)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True, help="edge list destination")
    return parser


def _lambda_rule_from_args(args) -> LambdaRule | None:
    if args.lambda_kind is None and args.lambda_value is None:
        return None
    if args.lambda_kind is None or args.lambda_value is None:
        raise SystemExit("--lambda-kind and --lambda-value must be given together")
    return LambdaRule(args.lambda_kind, args.lambda_value)


def _config_from_args(args, experiment: str) -> xp.ExperimentConfig:
    base = {}
    if args.config:
        base = xp.ExperimentConfig.from_json_file(args.config).to_dict()
        base.pop("version", None)
        if base["experiment"] != experiment:
            raise SystemExit(
                f"config file is for {base['experiment']!r} but the subcommand wants {experiment!r}"
            )
    base["experiment"] = experiment
    overrides = {
        "tau": args.tau,
        "C": args.big_c,
        "n_grid": tuple(args.n_grid) if args.n_grid else None,
        "a": args.a,
        "T": args.T,
        "replicas": args.replicas,
        "master_seed": args.seed,
        "output_path": args.out,
        "output_format": args.format,
    }
    for key, value in overrides.items():
        if value is not None:
            base[key] = value
    rule = _lambda_rule_from_args(args)
    if rule is not None:
        base["lambda_rule"] = rule.to_dict()
    return xp.ExperimentConfig.from_dict(base)


def _print_table(rows: list) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    widths = {k: max(len(k), *(len(_fmt(row.get(k))) for row in rows)) for k in keys}
    print("  ".join(k.rjust(widths[k]) for k in keys))
    for row in rows:
        print("  ".join(_fmt(row.get(k)).rjust(widths[k]) for k in keys))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _run_experiment(args, experiment: str) -> xp.ExperimentConfig:
    """Run one ensemble, print its summary table, and return the parsed config."""
    config = _config_from_args(args, experiment)
    result = xp.run(config, threads=args.threads)
    _print_table(xp.summarize(result))
    if experiment == "theory_tables":
        print()
        _print_table(result.theory["a_table"])
    if config.output_path:
        print(f"\nwrote {config.output_path}")
    return config


def _cmd_generate(args) -> int:
    params = model_params(args.tau, args.big_c, args.n)
    ws = build_weights(params)
    rng = np.random.default_rng(args.seed)
    if args.mode == "raw":
        graph = sample_mnr(ws, rng)
    else:
        mode = "multi" if args.mode == "multi" else "single"
        rule = _lambda_rule_from_args(args) or xp.default_lambda_rule(
            "multi_giant" if mode == "multi" else "one_neighborhood"
        )
        schedule = make_schedule(params, mode, rule)
        if args.mode == "multi":
            graph = sample_percolated_mnr_direct(ws, schedule.pi_n, rng)
        else:
            _, graph = sample_coupled_direct(ws, schedule.pi_n, rng)
    write_edge_list(graph, args.out)
    print(f"wrote {args.out} ({graph.n} vertices, {graph.src.size} edge rows)")
    return 0


def _cmd_explore(args) -> int:
    config = _run_experiment(args, "exploration_limit")
    if args.trace:
        n = config.n_grid[0]
        ctx = xp._build_context(config, n)
        rng = np.random.default_rng(xp.derive_seed(config.master_seed, n, 0))
        steps = math.floor(ctx.horizon * ctx.schedule.beta_n)
        trace = run_exploration(ctx.weights, ctx.schedule, steps, rng)
        write_trace_csv(trace, args.trace)
        print(f"wrote {args.trace}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "explore":
            return _cmd_explore(args)
        _run_experiment(args, _SUBCOMMAND_EXPERIMENT[args.command])
        return 0
    except SfpercError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
