"""Reference implementations the tests and the acceptance gate compare against.

No experiment runs these.  They are the slow, direct forms of laws the
library samples or solves another way: the two-step percolation of a raw
multigraph and its collapse (criteria 3 and 9), the coupled sampler's
keep rule evaluated one pair at a time and its k-series summed over the
widest window, the closed survival probability of a type-u particle and a
Monte Carlo branching process that estimates it (criterion 2), the exact
Laplace-type sum behind the exploration drift (criterion 4), and the
finite-n core kernel next to its limit (criterion 7).  The rest are views
the library has no use for: graphs built from and read back as tuples,
``degrees`` (criterion 9's degree-sum identity), one or all weights, a
trace's ``excursions`` and ``explored`` set, a summary's ``all_sizes`` and
labels, and ``read_edge_rows``, the parser of ``sfperc generate`` dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sfperc.errors import DomainError
from sfperc.graphgen import (MultiGraph, SimpleGraph, _aggregate_pairs, _check_pi,
                             sample_percolated_mnr_direct)
from sfperc.params import ModelParams, PercolationSchedule, WeightSequence, core_prefix_size
from sfperc.theory import c_F_bar

# --------------------------------------------------------------------------
# graphs from lists of tuples, and back
# --------------------------------------------------------------------------


def _from_pairs(n: int, pairs, width: int):
    """Sorted unique (src, dst, mult) of ``width``-tuples (i, j[, mult]).

    The endpoint check must come first: _aggregate_pairs keys a pair by
    packing i and j into 32 bits each, which maps out-of-range ids onto
    valid pairs.
    """
    cols = np.array(list(pairs), dtype=np.int64).reshape(-1, width).T
    i, j = cols[0], cols[1]
    if i.size and (min(i.min(), j.min()) < 1 or max(i.max(), j.max()) > n):
        raise DomainError(f"edge endpoint outside [1, {n}]")
    m = cols[2] if width == 3 else np.ones_like(i)
    if np.any(m < 1):
        raise DomainError("multiplicities must be >= 1")
    if width == 2 and np.any(i == j):
        raise DomainError(f"simple graph cannot hold the loop {(int(i[i == j][0]),) * 2}")
    return _aggregate_pairs(n, np.repeat(i, m), np.repeat(j, m))


def multi_from_pairs(n: int, pairs) -> MultiGraph:
    """Multigraph of (i, j, mult) tuples; pairs are canonicalized and merged."""
    g = MultiGraph(n, *_from_pairs(n, pairs, 3))
    g.validate()
    return g


def simple_from_pairs(n: int, pairs) -> SimpleGraph:
    """Simple graph of (i, j) tuples; pairs are canonicalized and deduplicated."""
    g = SimpleGraph(n, *_from_pairs(n, pairs, 2)[:2])
    g.validate()
    return g


def as_tuples(g: MultiGraph | SimpleGraph) -> list[tuple]:
    """The pairs as (i, j, mult) tuples, or (i, j) for a simple graph."""
    cols = (g.src, g.dst, g.mult) if isinstance(g, MultiGraph) else (g.src, g.dst)
    return list(zip(*(col.tolist() for col in cols)))


def degrees(g: MultiGraph | SimpleGraph) -> np.ndarray:
    """Degree array indexed by vertex id (entry 0 unused); loops count twice."""
    deg = np.zeros(g.n + 1, dtype=np.int64)
    np.add.at(deg, g.src, getattr(g, "mult", 1))
    np.add.at(deg, g.dst, getattr(g, "mult", 1))
    return deg


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
# mark draws in one pass
# --------------------------------------------------------------------------


def zipf_one_pass(n: int, alpha: float, size: int, rng) -> np.ndarray:
    """``graphgen._zipf`` with every pass over all ``size`` draws at once:
    the same rejection-inversion, the same uniforms from one
    ``rng.random(size)`` call and the rejected draws redrawn in one call
    after the first pass, with four full-length float temporaries."""
    b = 1.0 - alpha
    lo, hi = math.expm1(b * math.log(1.5)) / b - 1.0, math.expm1(b * math.log(n + 0.5)) / b
    s = 2.0 - math.exp(math.log1p(math.expm1(b * math.log(2.5)) - b * 2.0 ** -alpha) / b)
    u = rng.random(size)
    u *= lo - hi
    u += hi
    x = u * b
    np.log1p(x, out=x)
    x /= b
    np.exp(x, out=x)
    k = x + 0.5
    np.floor(k, out=k)
    np.minimum(k, n, out=k)
    np.subtract(k, x, out=x)
    reject = np.flatnonzero(x > s)
    if reject.size:
        kr = k[reject]
        reject = reject[u[reject] < np.expm1(b * np.log(kr + 0.5)) / b - kr ** -alpha]
    marks = k.astype(np.int64)
    if reject.size:
        marks[reject] = zipf_one_pass(n, alpha, reject.size, rng)
    return marks


# --------------------------------------------------------------------------
# the coupled sampler's keep rule, one pair at a time
# --------------------------------------------------------------------------


def simple_kept_series(c: int, lam: float, pi: float) -> float:
    """pi * sum_k e^-lam lam^k / k! / (1 - (1-pi)^(c+k)), summed from k = 0
    until the Poisson terms past the mean fall below 1e-20."""
    q, k, term, total = 1.0 - pi, 0, math.exp(-lam), 0.0
    while k <= lam or term > 1e-20:
        total += term / (1.0 - q ** (c + k))
        k += 1
        term *= lam / k
    return pi * total


def simple_kept_widest_window(c: np.ndarray, lam: np.ndarray, pi: float) -> np.ndarray:
    """``graphgen._simple_kept`` with the live-pair shortcut it no longer
    takes: a pair whose (1-pi)^(c+k) starts below 2^-60 gets s = pi unsummed,
    and every other pair is summed for as many steps as the widest window.
    The library sums every pair to the widest window, so agreeing bit for bit
    shows that summing such a pair gives pi exactly."""
    if pi >= 1.0:
        return np.ones(c.size)
    log_q = math.log1p(-pi)
    s = np.full(c.size, pi)
    half = 10.0 * np.sqrt(lam) + 25.0
    k = np.floor(np.maximum(lam - half, 0.0))
    live = np.flatnonzero((c + k) * log_q > -60.0 * math.log(2.0))
    if not live.size:
        return s
    width = np.ceil(lam + half - k)[live]
    c, k, lam = c[live], k[live], lam[live]
    term, num, den = np.ones(live.size), np.zeros(live.size), np.zeros(live.size)
    for _ in range(int(width.max()) + 1):
        num -= term / np.expm1((c + k) * log_q)
        den += term
        k += 1.0
        term *= lam / k
    s[live] = pi * (num / den)
    return s


def coupled_reference(weights: WeightSequence, pi: float, rng):
    """(multigraph, simple graph, dropped) as ``sample_coupled_direct`` draws
    them, pair by pair: the same percolated multigraph and one uniform per
    non-loop pair in pair order, with s evaluated for every such pair and no
    screen; the pair keeps its simple edge iff its uniform is below s."""
    gm = sample_percolated_mnr_direct(weights, pi, rng)
    pairs = [(i, j, c) for i, j, c in as_tuples(gm) if i != j]
    kept, dropped = [], []
    for (i, j, c), u in zip(pairs, rng.random(len(pairs)).tolist()):
        lam = (1.0 - pi) * weight_of(weights, i) * weight_of(weights, j) / weights.ell_n
        (kept if u < simple_kept_series(c, lam, pi) else dropped).append((i, j))
    return gm, simple_from_pairs(gm.n, kept), simple_from_pairs(gm.n, dropped)


# --------------------------------------------------------------------------
# finite-n Laplace-type sum behind the exploration drift
# --------------------------------------------------------------------------


def weight_of(weights: WeightSequence, vertex: int) -> float:
    """Weight of a 1-based vertex id."""
    if not (1 <= vertex <= weights.n):
        raise DomainError(f"vertex id {vertex} outside [1, {weights.n}]")
    return float(weights.weight(np.array([vertex]))[0])


def weight_array(weights: WeightSequence) -> np.ndarray:
    """All n weights w_1..w_n of a sequence, as one array."""
    return weights.weight(np.arange(1, weights.n + 1))


def laplace_sum_exact(w: np.ndarray, t: float, beta_n: float) -> float:
    """Exact sum_i (w_i/ell_n) * (1 - (1 - w_i/ell_n)**(t * beta_n)) over an
    array of weights, with ell_n their correctly rounded sum.

    For t*beta_n in the supercritical window this approaches
    kappa * (t * pi_n**(1/(3-tau)) / mu)**(tau-2).
    """
    if t < 0.0 or beta_n < 0.0:
        raise DomainError("t and beta_n must be nonnegative")
    p = w / math.fsum(w)
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
            raise DomainError(f"grid point ({u}, {v}) indexes past n={weights.n}")
        wi = weight_of(weights, i)
        wj = weight_of(weights, j)
        p_edge = schedule.pi_n * -np.expm1(-wi * wj / weights.ell_n)
        limit = a * params.c_F**2 / params.mu * (u * v) ** (-params.alpha)
        out.append(KernelCheckEntry(u=float(u), v=float(v),
                                    empirical=float(n_a * p_edge), limit=float(limit)))
    return out


# --------------------------------------------------------------------------
# walk excursions and component summaries
# --------------------------------------------------------------------------


def excursions(trace) -> list[tuple[int, int]]:
    """A trace's closed excursions as (first_step, last_step) pairs, 1-based
    inclusive.  An excursion closes exactly when Z hits a new running minimum."""
    runmin = np.minimum.accumulate(trace.Z)
    closes = np.flatnonzero(runmin[1:] < runmin[:-1]) + 1
    starts = np.concatenate([[1], closes[:-1] + 1])
    return list(zip(starts.tolist(), closes.tolist()))


def explored(trace, upto: int) -> np.ndarray:
    """Distinct explored marks after ``upto`` steps, sorted."""
    if not (0 <= upto <= trace.steps):
        raise DomainError(f"step {upto} outside [0, {trace.steps}]")
    return np.sort(trace.marks[:upto][trace.new_mark[:upto]])


def all_sizes(summary) -> np.ndarray:
    """All component sizes of a ``component_sizes`` summary, non-increasing, as int64."""
    large = np.sort(summary.counts[summary.counts > 0])[::-1]
    sizes = np.ones(summary.n - summary.ids.size + large.size, dtype=np.int64)
    sizes[:large.size] = large
    return sizes


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
