"""Command-line entry points for running experiments and dumping artifacts."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import experiments as xp
from .errors import ConfigError, SfpercError
from .exploration import run_exploration
from .graphgen import sample_coupled_direct, sample_mnr, sample_percolated_mnr_direct
from .params import LAMBDA_RULE_KINDS, LambdaRule, build_weights, make_schedule, model_params


def _add_common(sub: argparse.ArgumentParser) -> None:
    # Each dest is the config field the flag sets.
    sub.add_argument("--config", help="JSON config file; flags below override it")
    sub.add_argument("--seed", type=int, dest="master_seed", metavar="SEED",
                     help="master seed (default 1)")
    sub.add_argument("--out", dest="output_path", metavar="OUT",
                     help="output path for the result report")
    sub.add_argument("--format", choices=("csv", "json"), dest="output_format",
                     help="output format (default json)")
    sub.add_argument("--threads", type=int, default=1, help="replica-level worker threads")
    sub.add_argument("--tau", type=float, help="degree exponent, in (2, 3)")
    sub.add_argument("--C", type=float, help="weight scale constant")
    sub.add_argument("--n-grid", type=int, nargs="+", help="ascending graph sizes")
    sub.add_argument("--replicas", type=int, help="replicas per n")
    sub.add_argument("--a", type=float, help="core level (core and theory)")
    sub.add_argument("--T", type=float, help="rescaled time horizon")
    sub.add_argument("--lambda-kind", choices=LAMBDA_RULE_KINDS)
    sub.add_argument("--lambda-value", type=float, help="lambda rule value/exponent")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfperc",
        description="Percolation ensembles on Poissonian scale-free graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, spec in xp.EXPERIMENTS.items():
        sub = subs.add_parser(spec.command, help=spec.help)
        sub.set_defaults(experiment=name)
        _add_common(sub)
        if name == "exploration_limit":
            sub.add_argument("--trace", help="also write one walk trace CSV here")

    gen = subs.add_parser("generate", help="sample one graph and write its edge list")
    gen.add_argument("--n", type=int, required=True, help="number of vertices")
    gen.add_argument("--tau", type=float, default=2.5)
    gen.add_argument("--C", type=float, default=1.0)
    gen.add_argument("--mode", choices=("raw", "multi", "single"), default="raw",
                     help="raw multigraph, percolated multigraph, or coupled simple graph")
    gen.add_argument("--lambda-kind", choices=LAMBDA_RULE_KINDS)
    gen.add_argument("--lambda-value", type=float)
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True, help="edge list destination")
    return parser


def _lambda_rule_from_args(args) -> LambdaRule | None:
    if args.lambda_kind is None:
        return None
    return LambdaRule(args.lambda_kind, args.lambda_value)


def _config_from_args(args) -> xp.ExperimentConfig:
    base = {}
    if args.config:
        base = xp.ExperimentConfig.from_json_file(args.config).to_dict()
        if base["experiment"] != args.experiment:
            raise ConfigError(f"config file is for {base['experiment']!r} but the subcommand"
                              f" wants {args.experiment!r}")
    for f in fields(xp.ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            base[f.name] = value
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


def _run_experiment(args) -> int:
    """Run one ensemble, print its summary table, and write what was asked for."""
    config = _config_from_args(args)
    trace = getattr(args, "trace", None)
    if trace is not None:
        xp.check_output_path(trace)
    result = xp.run(config, threads=args.threads)
    _print_table(xp.summarize(result))
    if "a_table" in result.theory:
        print()
        _print_table(result.theory["a_table"])
    if config.output_path:
        print(f"\nwrote {config.output_path}")
    if trace is not None:
        # the walk of the first replica at the smallest n
        n = config.n_grid[0]
        rng = np.random.default_rng(xp.derive_seed(config.master_seed, n, 0))
        ctx = xp._build_context(config, n)
        xp.write_trace_csv(run_exploration(ctx.weights, ctx.schedule, ctx.steps, rng), trace)
        print(f"wrote {trace}")
    return 0


def _cmd_generate(args) -> int:
    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must lie in [0, 2**64), got {args.seed}")
    xp.check_output_path(args.out)
    params = model_params(args.tau, args.C, args.n)
    ws = build_weights(params)
    rng = np.random.default_rng(args.seed)
    if args.mode == "raw":
        graph = sample_mnr(ws, rng)
    else:
        default = xp.EXPERIMENTS["multi_giant" if args.mode == "multi" else "one_neighborhood"]
        rule = _lambda_rule_from_args(args) or default.lambda_rule
        schedule = make_schedule(params, args.mode, rule)
        if args.mode == "multi":
            graph = sample_percolated_mnr_direct(ws, schedule.pi_n, rng)
        else:
            graph = sample_coupled_direct(ws, schedule.pi_n, rng)[1]
    graph.validate()
    xp.write_edge_list(graph, args.out)
    print(f"wrote {args.out} ({graph.n} vertices, {graph.src.size} edge rows)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (args.lambda_kind is None) != (args.lambda_value is None):
        parser.error("--lambda-kind and --lambda-value must be given together")
    if args.command == "generate" and args.mode == "raw" and args.lambda_kind is not None:
        parser.error("--mode raw samples no percolation, so it takes no lambda rule")
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        return _run_experiment(args)
    except (SfpercError, OSError) as e:  # OSError: an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
