"""Child process of the benchmark: one fresh interpreter per measurement.

    python3 perfbench/worker.py setup    --workload W --seed S --n N
    python3 perfbench/worker.py ensemble --workload W --seed S --n N --replicas R
                                         --trace 0|1 [--spans PATH]

`setup` times a cold `import sfperc` (numpy already loaded) plus the
per-config work run() does before its first replica.  `ensemble` runs the
workload's ensemble (untraced, or in trace mode an untraced/traced pair at
the same seed) and prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, make_config  # noqa: E402


def _setup(args) -> dict:
    # numpy's own import is kept off the clock: it is not sfperc's code, and
    # on a shared 2-core VM its cost shifted by more than 2x between
    # phases lasting minutes, which would bury any change to sfperc.
    import numpy  # noqa: F401

    start = time.perf_counter()
    from sfperc.params import build_weights, make_schedule, model_params  # cold import
    from sfperc.theory import compute_constants, core_limit

    workload = WORKLOADS[args.workload]
    config = make_config(workload, args.n, args.seed, replicas=1)
    params = model_params(config.tau, config.C, args.n)
    build_weights(params)
    make_schedule(params, config.mode, config.lambda_rule)
    compute_constants(params)
    if config.experiment == "one_neighborhood":
        core_limit(config.a, params)
    return {"setup_s": time.perf_counter() - start}


def _run_ensemble(workload, args, replicas: int, threads: int, tracer=None) -> dict:
    """One run() call; failures are caught here so they are counted, not lost."""
    from checks import check_result, records_digest
    from sfperc import experiments

    config = make_config(workload, args.n, args.seed, replicas)
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = experiments.run(config, threads=threads)
    except Exception:  # an invariant or sampler failure inside the library
        return {"threads": threads, "traced": tracer is not None, "replicas": replicas,
                "failed": replicas, "errors": [traceback.format_exc()], "digest": None}
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    failed, errors = check_result(config.experiment, result.records, result.theory)
    return {"threads": threads, "traced": tracer is not None, "replicas": replicas,
            "wall_s": wall, "failed": failed, "errors": errors,
            "digest": records_digest(result.records)}


def _ensemble(args) -> dict:
    workload = WORKLOADS[args.workload]
    ensembles = []
    out = {"ensembles": ensembles}
    if not args.trace:
        ensembles.append(_run_ensemble(workload, args, args.replicas, workload.threads))
    else:
        from tracing import Tracer, layer_metrics

        # Warm the allocator and numpy before the untraced/traced pair, so the
        # pair's wall-time ratio measures tracing, not which ran first.
        ensembles.append(_run_ensemble(workload, args, 1, 1))
        base = _run_ensemble(workload, args, args.replicas, 1)
        ensembles.append(base)
        if workload.threads > 1:
            ensembles.append(_run_ensemble(workload, args, args.replicas, workload.threads))
        tracer = Tracer()
        traced = _run_ensemble(workload, args, args.replicas, 1, tracer)
        ensembles.append(traced)
        if args.spans:
            tracer.write_spans(args.spans)
        digests = {e["digest"] for e in ensembles[1:]}
        if len(digests) != 1 or None in digests:
            traced["errors"].append(f"records digests differ across threads/tracing: {digests}")
        if "wall_s" in traced and "wall_s" in base:
            overhead = traced["wall_s"] / base["wall_s"] - 1.0
            layers = layer_metrics(tracer)
            layers["trace.overhead_frac"] = overhead
            # Self times telescope to the root span, so they must add up to
            # the traced wall time up to the wrappers' own cost.
            gap = abs(tracer.self_time_sum() - traced["wall_s"]) / traced["wall_s"]
            if gap > max(abs(overhead), 1e-3):
                traced["errors"].append(
                    f"span self times miss the traced wall by {gap:.2e} of it "
                    f"(trace overhead {overhead:.2e})")
            out["layers"] = layers
            out["self_sum_gap_frac"] = gap
    import numpy
    import sfperc

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["versions"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                       "sfperc_file": sfperc.__file__}
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "ensemble"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    out = _setup(args) if args.mode == "setup" else _ensemble(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
