"""The four benchmark workloads and the ensemble configs they run.

Every workload is one `sfperc.experiments.run` ensemble at tau = 2.5, C = 1
and a single n (1e6 unless a smoke test asks for less).  Replicas run as a
closed loop: the next one starts when the previous one ends, inside run().
Why each workload exists, and which layer metrics it should move, is in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_N = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    lambda_rule: tuple[str, float] | None  # None keeps the experiment's default rule
    threads: int
    # Wall seconds one replica takes at n = 1e6 on a shared 2-core Intel Xeon VM
    # (numpy 2.4.6).  It only sizes the ensemble so that a run lasts about
    # --seconds; the replica count is fixed by (seconds, workload), never by
    # a measurement, so the same seed always gives the same inputs.
    replica_cost_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("coupled-1e6", "single_vs_multi", None, 1, 2.2),
        Workload("core-1e6", "one_neighborhood", ("constant", 10.0), 1, 2.2),
        Workload("giant-1e6", "multi_giant", None, 2, 0.22),
        Workload("walk-1e6", "exploration_limit", None, 1, 0.016),
    )
}


def replica_count(workload: Workload, seconds: int) -> int:
    """Replicas per ensemble: about `seconds` of work, at least two per thread."""
    count = max(round(seconds / workload.replica_cost_s), 2 * workload.threads)
    return count + (-count) % workload.threads


def make_config(workload: Workload, n: int, seed: int, replicas: int):
    """The ExperimentConfig a workload runs; construction validates the schedule."""
    from sfperc.experiments import ExperimentConfig
    from sfperc.params import LambdaRule

    rule = LambdaRule(*workload.lambda_rule) if workload.lambda_rule else None
    return ExperimentConfig(
        workload.experiment, tau=2.5, C=1.0, n_grid=(n,), lambda_rule=rule,
        a=1.0, replicas=replicas, master_seed=seed,
    )
