"""Correctness gate applied to every ensemble the benchmark runs.

The library's own run-time invariants (graph `validate`, the coupling check,
the core lower-bound chain, the explored-set identity) raise inside run()
and are never bypassed; a raised ensemble counts every replica as failed.
On top of them this module checks each record and the ensemble means.

The mean bands are deliberately wide.  They come from the finite-size gaps
the README documents at n = 1e5..1e6 (e.g. mean |C1|/beta_n sits 0.342 and
0.251 below zeta on the multigraph window), widened so those honest gaps
pass while a broken sampling law (wrong weights, wrong pi_n, uniform marks)
lands far outside.  Records are not compared byte for byte with frozen
values, because an exact change of the sampler may legitimately change them.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

RECORD_KEYS = {
    "single_vs_multi": ("c1_over_beta", "c1_star_over_beta", "diff_over_beta"),
    "one_neighborhood": ("core_size", "core_giant_size", "one_neighborhood_size",
                         "core_giant_weight", "relative_gap"),
    "multi_giant": ("c1", "c2", "c1_over_beta", "c2_over_beta"),
    "exploration_limit": ("sup_distance",),
}

# README, walk sup-distance level: ensemble medians over n = 1e4, 1e5, 1e6.
_WALK_MEDIAN_SUP_DISTANCE = {10**4: 2.55, 10**5: 1.64, 10**6: 1.16}


def records_digest(records: list) -> str:
    """sha256 of the records sorted by (n, replica), as canonical JSON."""
    ordered = sorted(records, key=lambda rec: (rec["n"], rec["replica"]))
    return hashlib.sha256(json.dumps(ordered, sort_keys=True).encode()).hexdigest()


def _record_errors(experiment: str, rec: dict, theory: dict) -> list[str]:
    missing = [k for k in RECORD_KEYS[experiment] if k not in rec]
    if missing:
        return [f"missing keys {missing}"]
    bad = [k for k in RECORD_KEYS[experiment]
           if not isinstance(rec[k], (int, float)) or not math.isfinite(rec[k])]
    if bad:
        return [f"non-finite values for {bad}"]
    errors = []
    if experiment == "single_vs_multi":
        if rec["c1_over_beta"] < rec["c1_star_over_beta"]:
            errors.append("c1_over_beta < c1_star_over_beta")
    elif experiment == "one_neighborhood":
        schedule = theory["schedules"][str(rec["n"])]
        if rec["core_size"] != math.floor(theory["a"] * schedule["N_n"]):
            errors.append("core_size != floor(a * N_n)")
        if not 1 <= rec["core_giant_size"] <= rec["core_size"]:
            errors.append("core_giant_size outside [1, core_size]")
    elif experiment == "multi_giant":
        if not 0 <= rec["c2"] <= rec["c1"]:
            errors.append("c2 outside [0, c1]")
    elif experiment == "exploration_limit":
        if rec["sup_distance"] < 0.0:
            errors.append("negative sup_distance")
    return errors


def _band(label: str, value: float, target: float, lo: float, hi: float) -> list[str]:
    ratio = value / target
    if lo <= ratio <= hi:
        return []
    return [f"{label}: mean/target = {ratio:.4f} outside [{lo}, {hi}]"]


def _ensemble_errors(experiment: str, records: list, theory: dict) -> list[str]:
    def mean(key: str) -> float:
        return float(np.mean([rec[key] for rec in records]))

    zeta = theory["zeta"]
    if experiment == "multi_giant":
        # README: mean |C1|/beta_n is 0.342 (n=1e5) and 0.251 (n=1e6) below zeta.
        return _band("c1_over_beta vs zeta", mean("c1_over_beta"), zeta, 0.5, 1.0)
    if experiment == "single_vs_multi":
        # The single-edge window converges more slowly: 0.50 (n=1e5) and 0.61
        # (n=1e6) of zeta at seeds 1-2.  The giant gap stays under the 0.2 bar
        # of acceptance criterion 6.
        errors = _band("c1_over_beta vs zeta", mean("c1_over_beta"), zeta, 0.4, 1.0)
        if not 0.0 <= mean("diff_over_beta") < 0.2:
            errors.append(f"mean diff_over_beta {mean('diff_over_beta'):.4f} outside [0, 0.2)")
        return errors
    if experiment == "exploration_limit":
        # The finite-n drift dominates the sup distance and shrinks with n,
        # so the target is the README's documented median at this n.
        n = records[0]["n"]
        if n not in _WALK_MEDIAN_SUP_DISTANCE:
            return [f"no documented sup-distance median at n={n}"]
        return _band("sup_distance vs documented median", mean("sup_distance"),
                     _WALK_MEDIAN_SUP_DISTANCE[n], 0.65, 1.5)
    if experiment == "one_neighborhood":
        n = str(records[0]["n"])
        schedule = theory["schedules"][n]
        fractions = [rec["core_giant_size"] / rec["core_size"] for rec in records]
        errors = _band("core giant fraction vs rho_a", float(np.mean(fractions)),
                       theory["rho_a"], 0.9, 1.1)
        errors += _band("core giant weight/beta_n vs zeta_a",
                        mean("core_giant_weight") / schedule["beta_n"],
                        theory["zeta_a"], 0.85, 1.15)
        # README: the one-neighborhood gap is first order in pi_n, about 1.25 pi_n.
        errors += _band("relative_gap vs 1.25 pi_n", mean("relative_gap"),
                        1.25 * schedule["pi_n"], 0.5, 1.5)
        return errors
    raise ValueError(f"no checks for experiment {experiment!r}")


def check_result(experiment: str, records: list, theory: dict) -> tuple[int, list[str]]:
    """(replicas failing a record check, all error messages)."""
    failed, errors = 0, []
    for rec in records:
        rec_errors = _record_errors(experiment, rec, theory)
        if rec_errors:
            failed += 1
            errors += [f"replica {rec.get('replica')}: {e}" for e in rec_errors]
    if not errors:
        errors = _ensemble_errors(experiment, records, theory)
    return failed, errors
