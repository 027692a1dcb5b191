"""Reference implementations the tests and the acceptance gate compare against.

No experiment runs these.  They are the slow, direct forms of laws the
library samples or solves another way: the two-step percolation of a raw
multigraph and its collapse (criteria 3 and 9), the closed survival
probability of a type-u particle and a Monte Carlo branching process that
estimates it (criterion 2), the exact Laplace-type sum behind the
exploration drift (criterion 4), and the finite-n core kernel next to its
limit (criterion 7).  ``labels_from_summary`` reads each vertex's component
label off a component summary, and ``read_edge_rows`` parses the edge-list
dump that ``sfperc generate`` writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sfperc.errors import DomainError, RangeError
from sfperc.graphgen import MultiGraph, SimpleGraph, _check_pi
from sfperc.params import ModelParams, PercolationSchedule, WeightSequence, core_prefix_size
from sfperc.theory import c_F_bar

# --------------------------------------------------------------------------
# collapse and two-step percolation of a raw multigraph
# --------------------------------------------------------------------------


def collapse_to_simple(g: MultiGraph) -> SimpleGraph:
    """Erase multiplicities and drop self-loops."""
    keep = g.src != g.dst
    return SimpleGraph(n=g.n, src=g.src[keep].copy(), dst=g.dst[keep].copy())


def percolate_multigraph(g: MultiGraph, pi: float, rng) -> MultiGraph:
    """Keep every edge copy independently with probability pi."""
    _check_pi(pi)
    kept = rng.binomial(g.mult, pi)
    mask = kept > 0
    return MultiGraph(n=g.n, src=g.src[mask].copy(), dst=g.dst[mask].copy(),
                      mult=kept[mask].astype(np.int64))


# --------------------------------------------------------------------------
# finite-n Laplace-type sum behind the exploration drift
# --------------------------------------------------------------------------


def laplace_sum_exact(weights, t: float, beta_n: float) -> float:
    """Exact sum_i (w_i/ell_n) * (1 - (1 - w_i/ell_n)**(t * beta_n)).

    For t*beta_n in the supercritical window this approaches
    kappa * (t * pi_n**(1/(3-tau)) / mu)**(tau-2).
    """
    if t < 0.0 or beta_n < 0.0:
        raise DomainError("t and beta_n must be nonnegative")
    p = weights.weights / weights.ell_n
    exponent = t * beta_n
    return float(np.sum(p * (1.0 - (1.0 - p) ** exponent)))


# --------------------------------------------------------------------------
# survival of a type-u particle in the level-a branching process on (0, a]
# --------------------------------------------------------------------------


def rho_a_of_u(u: float, a: float, rho_star_a: float, params: ModelParams) -> float:
    """Survival probability of a particle of type u in the level-a process:
    1 - exp(-c_F_bar * a**(1-alpha) * u**(-alpha) * rho_star_a)."""
    if not (a > 0.0):
        raise DomainError(f"core level a must be positive, got a={a}")
    if not (0.0 < u <= a):
        raise DomainError(f"type u must lie in (0, a], got u={u}")
    if rho_star_a < 0.0:
        raise DomainError(f"rho_star_a must be nonnegative, got {rho_star_a}")
    if rho_star_a == 0.0:
        return 0.0
    scale = c_F_bar(params) * a ** (1.0 - params.alpha) * rho_star_a
    return -math.expm1(-scale * u ** (-params.alpha))


def _spawn(lam: np.ndarray, rep: np.ndarray, a: float, params: ModelParams, rng):
    """Children of particles with the given Poisson offspring means: counts are
    Poisson(lam), child types are i.i.d. with density proportional to
    x**(-alpha) on (0, a], i.e. x = a * U**(1/(1-alpha)) for uniform U."""
    counts = rng.poisson(lam)
    child_rep = np.repeat(rep, counts)
    u = rng.random(child_rep.size)
    child_types = a * u ** (1.0 / (1.0 - params.alpha))
    return counts, child_rep, child_types


MC_DEPTH_CAP = 50
MC_POP_CAP = 1_000
MC_MEAN_CAP = 100.0


def branching_survival_mc(u: float, a: float, params: ModelParams,
                          replicas: int = 10_000, rng=None) -> float:
    """Monte Carlo estimate of the survival probability rho_a(u).

    Runs ``replicas`` independent copies of the branching process rooted at a
    single particle of type u and reports the fraction still alive at
    generation MC_DEPTH_CAP.  Two early-survival shortcuts keep the simulation
    bounded (the process is supercritical on (0, a], so the chance of dying out
    from either state is negligible next to the binomial noise):

    - populations reaching MC_POP_CAP are declared survivors;
    - so is any replica holding a particle with offspring mean >= MC_MEAN_CAP.
      The type density blows up near 0, so single particles of tiny type can
      carry means in the millions, and sampling their children would exhaust
      memory; their extinction odds are below exp(-MC_MEAN_CAP / 4).
    """
    if not (a > 0.0):
        raise DomainError(f"core level a must be positive, got a={a}")
    if not (0.0 < u <= a):
        raise DomainError(f"root type u must lie in (0, a], got u={u}")
    if replicas < 1_000:
        raise DomainError(f"need at least 1000 replicas, got {replicas}")
    if rng is None:
        rng = np.random.default_rng()

    UNDECIDED, DEAD, SURVIVED = 0, 1, 2
    status = np.zeros(replicas, dtype=np.int8)
    rep = np.arange(replicas, dtype=np.int64)
    types = np.full(replicas, float(u))
    scale = c_F_bar(params) * a ** (1.0 - params.alpha)
    for _ in range(MC_DEPTH_CAP):
        if rep.size == 0:
            break
        lam = scale * types ** (-params.alpha)
        hot = lam >= MC_MEAN_CAP
        if hot.any():
            status[rep[hot]] = SURVIVED
            live = status[rep] == UNDECIDED
            rep = rep[live]
            lam = lam[live]
            if rep.size == 0:
                break
        counts, child_rep, child_types = _spawn(lam, rep, a, params, rng)
        pop = np.bincount(rep, weights=counts, minlength=replicas)
        undecided = status == UNDECIDED
        status[undecided & (pop == 0)] = DEAD
        status[undecided & (pop >= MC_POP_CAP)] = SURVIVED
        keep = status[child_rep] == UNDECIDED
        rep = child_rep[keep]
        types = child_types[keep]
    # Survivors: capped populations plus anything still alive at MC_DEPTH_CAP.
    return float(np.count_nonzero(status != DEAD)) / replicas


# --------------------------------------------------------------------------
# the finite-n core kernel against its limit
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelCheckEntry:
    """One (u, v) evaluation of the finite-n core kernel against its limit."""

    u: float
    v: float
    empirical: float
    limit: float

    @property
    def ratio(self) -> float:
        return self.empirical / self.limit


def kernel_convergence_check(weights: WeightSequence, schedule: PercolationSchedule,
                             a: float, grid) -> list[KernelCheckEntry]:
    """Compare N_n(a) * p_edge(ceil(N_n u), ceil(N_n v)) with the limit kernel
    kappa_a(u, v) = a * (c_F^2 / mu) * (u v)^(-alpha) on a grid of type pairs.

    The edge probability is the percolated simple-graph one,
    pi_n * (1 - exp(-w_i w_j / ell_n)).
    """
    if schedule.mode != "single":
        raise DomainError("kernel check needs a single-mode schedule")
    params = schedule.params
    n_a = core_prefix_size(schedule, a)
    out = []
    for u, v in grid:
        if not (0.0 < u <= a and 0.0 < v <= a):
            raise DomainError(f"grid point ({u}, {v}) outside (0, a]^2 with a={a}")
        i = int(np.ceil(schedule.N_n * u))
        j = int(np.ceil(schedule.N_n * v))
        if i > weights.n or j > weights.n:
            raise RangeError(f"grid point ({u}, {v}) indexes past n={weights.n}")
        wi = weights.weight_of(i)
        wj = weights.weight_of(j)
        p_edge = schedule.pi_n * -np.expm1(-wi * wj / weights.ell_n)
        limit = a * params.c_F**2 / params.mu * (u * v) ** (-params.alpha)
        out.append(KernelCheckEntry(u=float(u), v=float(v),
                                    empirical=float(n_a * p_edge), limit=float(limit)))
    return out


# --------------------------------------------------------------------------
# component labels
# --------------------------------------------------------------------------


def labels_from_summary(summary) -> np.ndarray:
    """Smallest vertex id in each vertex's component, indexed by id 0..n,
    read off a ``component_sizes`` summary's rank forest."""
    label = np.arange(summary.n + 1)
    label[summary.ids] = summary.ids[summary.root]
    return label


# --------------------------------------------------------------------------
# edge-list dumps
# --------------------------------------------------------------------------


def read_edge_rows(path) -> tuple[int, np.ndarray]:
    """(n, rows) of a ``write_edge_list`` dump, rows as (i, j, multiplicity).

    Asserts that the row count matches the pair count in the "n m" header.
    """
    with open(path) as fh:
        n, m = (int(tok) for tok in fh.readline().split())
        rows = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    assert rows.shape == (m, 3), f"header promised {m} pairs, found rows {rows.shape}"
    return n, rows
