"""sfperc benchmark: four n = 1e6 ensemble workloads, checked and timed.

    python3 perfbench/run.py --workload giant-1e6 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports `src/sfperc`).  Omitting
--workload runs all four in turn.  With --trace 0 the last stdout line is
{"correct", "attempted", "failed", "metrics"} holding the end-to-end metrics
(replicas_per_s, setup_s, peak_rss_mb); with --trace 1 it holds the
per-layer metrics of a traced run.  Each measurement runs in a fresh child
interpreter (perfbench/worker.py).  A full report with run metadata is also
written to perfbench/out/.  The exit code is 1 when any correctness check
fails and 2 when the checkout has no sfperc sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_N, WORKLOADS, replica_count  # noqa: E402

# Fresh-process set-up probes per run; setup_s is their median.
SETUP_PROBES = 11
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to a failed correctness check)."""


def _child(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metadata(workload, seed: int, n: int, replicas: int, versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "sfperc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name, "experiment": workload.experiment, "seed": seed, "n": n,
        "replicas": replicas, "threads": workload.threads, "python": versions.get("python"),
        "numpy": versions.get("numpy"), "nproc": os.cpu_count(), "cpu": cpu,
        "git_commit": commit, "source_sha256": source.hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, n: int) -> bool:
    """Measure one workload, print its report; True when every check passed."""
    workload = WORKLOADS[name]
    replicas = replica_count(workload, seconds)
    common = ["--workload", name, "--seed", str(seed), "--n", str(n)]
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        # Untraced and traced ensembles (plus the threaded one for the
        # determinism check) share the time budget of one run.
        n_ensembles = 3 if workload.threads > 1 else 2
        replicas = max(replicas // n_ensembles, 2 * workload.threads)
        spans_path = OUT / f"{stem}.spans.jsonl"
        child = _child(["ensemble", *common, "--replicas", str(replicas), "--trace", "1",
                        "--spans", str(spans_path)])
        metrics = {key: {"value": value, "unit": _layer_unit(key)}
                   for key, value in child.get("layers", {}).items()}
    else:
        setups = [_child(["setup", *common])["setup_s"] for _ in range(SETUP_PROBES)]
        child = _child(["ensemble", *common, "--replicas", str(replicas), "--trace", "0"])
        ensemble = child["ensembles"][0]
        metrics = {}
        if "wall_s" in ensemble:
            metrics["replicas_per_s"] = {"value": replicas / ensemble["wall_s"], "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": child["peak_rss_mb"], "unit": "MB"}

    ensembles = child["ensembles"]
    attempted = sum(e["replicas"] for e in ensembles)
    failed = sum(e["failed"] for e in ensembles)
    errors = [err for e in ensembles for err in e["errors"]]
    correct = not errors and failed == 0
    meta = _metadata(workload, seed, n, replicas, child["versions"])
    meta["records_digest"] = ensembles[-1]["digest"]
    meta["ensembles"] = [{k: e.get(k) for k in ("threads", "traced", "replicas", "wall_s",
                                                "failed", "digest")} for e in ensembles]
    if "self_sum_gap_frac" in child:
        meta["span_self_sum_gap_frac"] = child["self_sum_gap_frac"]
    report = {"meta": meta, "correct": correct, "attempted": attempted, "failed": failed,
              "failed_frac": failed / attempted, "errors": errors, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"== {name} (seed {seed}, n {n}, threads {workload.threads}, "
          f"{replicas} replicas per ensemble, trace {int(trace)})")
    print("meta " + json.dumps(meta, sort_keys=True))
    for err in errors:
        print(f"CHECK FAILED: {err}")
    for key, metric in metrics.items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':48s} {failed / attempted:.6g} ({failed} of {attempted} replicas)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return correct


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four in turn)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (master seed)")
    parser.add_argument("--seconds", type=int, default=20,
                        help="about how long the measured ensemble runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--n", type=int, default=DEFAULT_N,
                        help="graph size (smaller only for smoke tests)")
    args = parser.parse_args()
    if not (0 <= args.seed < 2**64) or args.seconds < 1:
        parser.error("need 0 <= seed < 2**64 and seconds >= 1")
    if not (SRC / "sfperc" / "__init__.py").is_file():
        print(f"error: no sfperc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    start = time.perf_counter()
    try:
        ok = [run_workload(name, args.seed, args.seconds, bool(args.trace), args.n)
              for name in names]
    except (BenchmarkError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"total {time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
