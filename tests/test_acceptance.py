"""End-to-end acceptance checks, one summary line per criterion.

Each test prints ``ACCEPTANCE k (<name>): PASS/FAIL - detail`` on the real
stdout before asserting, so the scoreboard survives pytest's capture.  The
Monte Carlo criteria all run from master seed 1 through the deterministic
per-replica seed chain, so every number below reproduces bit for bit.

Finite-n centrings: the limits behind criteria 2, 4, 5 and 7 carry no rate,
and at the sizes run here their deterministic finite-size terms alone exceed
the limit-level bars.  Those clauses therefore test the ensemble against its
finite-n centring, evaluated in closed form from the weights and the schedule
(never from sampler output): the a**-eta expansion of the zeta_a gap, the
exact mean m_n of the exploration walk, the fresh-mark count g_n at the root
of m_n, and the exact conditional law of the one-neighborhood given the core
giant.  A trend clause checks that each centring approaches its limit, and
the distance to the limit is still printed on every scoreboard line.
"""

from __future__ import annotations

import itertools
import math
import sys

import numpy as np
from scipy.optimize import brentq
from scipy.stats import chi2, ks_2samp

from conftest import SCOREBOARD
from sfperc.components import (
    component_sizes,
    core_report,
)
from sfperc.experiments import ExperimentConfig, derive_seed, run
from sfperc.exploration import run_exploration
from sfperc.graphgen import (
    MultiGraph,
    percolate_coupled,
    sample_coupled_direct,
    sample_mnr,
    sample_percolated_mnr_direct,
)
from sfperc.params import (
    LambdaRule,
    WeightSequence,
    build_weights,
    core_prefix_size,
    make_schedule,
    model_params,
)
from sfperc.theory import c_F_bar, compute_constants, core_limit

from oracles import (
    all_sizes,
    as_tuples,
    branching_survival_mc,
    collapse_to_simple,
    degrees,
    explored,
    kernel_convergence_check,
    laplace_sum_exact,
    multi_from_pairs,
    percolate_multigraph,
    rho_a_of_u,
    simple_from_pairs,
    weight_array,
    weight_of,
)

MASTER = 1


def report(idx: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {idx} ({name}): {'PASS' if ok else 'FAIL'} - {detail}"
    SCOREBOARD.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


# --------------------------------------------------------------------------
# finite-n centrings, in closed form from the weights and the schedule
# --------------------------------------------------------------------------


def _fresh_mark_sum(ws: WeightSequence, power: float, l_max: float, terms: int = 20):
    """Return l -> sum_i w_i**power * (1 - (1 - w_i/ell_n)**l) for 0 <= l <= l_max.

    This is the mean of sum w_i**power over the distinct marks among the first
    l draws.  Vertices with l_max * |log(1 - w_i/ell_n)| > 1 (a short prefix
    of the heaviest) are summed directly; for the rest, 1 - exp(l*q_i) is
    expanded in l over their power sums, and the series remainder after
    ``terms`` terms is below e/(terms+1)! of their total.
    """
    w = weight_array(ws)
    q = np.log1p(-w / ws.ell_n)
    coef = w ** power
    heavy = int(np.count_nonzero(l_max * q < -1.0))
    x = l_max * q[heavy:]  # in [-1, 0]
    term = coef[heavy:].copy()
    # sums[k] = sum over light vertices of coef * x**k / k!
    sums = np.zeros(terms + 1)
    for k in range(1, terms + 1):
        term *= x / k
        sums[k] = term.sum()
    q_heavy, coef_heavy = q[:heavy], coef[:heavy]

    def fresh(l) -> np.ndarray:
        l = np.atleast_1d(np.asarray(l, dtype=np.float64))
        out = -np.polynomial.polynomial.polyval(l / l_max, sums)
        for s in range(0, l.size, 2048):  # bounds the (steps x heavy) block
            out[s:s + 2048] -= np.expm1(np.multiply.outer(l[s:s + 2048], q_heavy)) @ coef_heavy
        return out

    return fresh


def _mean_walk(ws: WeightSequence, sch, l_max: float):
    """Return l -> m_n(l) = (pi_n * sum_i w_i (1 - (1 - w_i/ell_n)**l) - l) / beta_n,
    the exact mean of the rescaled exploration walk Z(l)/beta_n."""
    fresh = _fresh_mark_sum(ws, 1.0, l_max)
    return lambda l: (sch.pi_n * fresh(l) - l) / sch.beta_n


def _giant_centring(ws: WeightSequence, sch) -> float:
    """g_n: the mean fresh-mark count over beta_n at the step l* = t_n*beta_n
    where the mean walk m_n returns to zero.

    m_n(1) = (pi_n sum w_i^2/ell_n - 1)/beta_n > 0 in the supercritical window,
    and m_n(pi_n ell_n) < 0 because the fresh weight stays below ell_n, so
    [1, pi_n ell_n] brackets the root.
    """
    l_max = sch.pi_n * ws.ell_n
    m = _mean_walk(ws, sch, l_max)
    root = brentq(lambda l: float(m(l)[0]), 1.0, l_max, xtol=1e-9)
    return float(_fresh_mark_sum(ws, 0.0, l_max)(root)[0]) / sch.beta_n


def _log_miss_coefficients(pi: float, terms: int) -> np.ndarray:
    """Taylor coefficients at x = 0 of log(1 - pi*(1 - exp(-x))), degrees 0..terms.

    Its singularities lie at |Im x| = pi (the number), so the coefficients
    decay like pi**-k and ten terms are exact to rounding for x < 0.1.
    """
    k = np.arange(terms + 1)
    edge = np.zeros(terms + 1)  # pi*(1 - exp(-x))
    edge[1:] = pi * (-1.0) ** (k[1:] + 1) / np.array([math.factorial(i) for i in k[1:]])
    out = np.zeros(terms + 1)
    power = np.zeros(terms + 1)
    power[0] = 1.0
    for m in range(1, terms + 1):
        power = np.convolve(power, edge)[: terms + 1]
        out -= power / m
    return out


def _one_neighborhood_law(ws: WeightSequence, sch, members: np.ndarray, core_size: int,
                          terms: int = 10) -> np.ndarray:
    """P(j in N1 | G) for every outside vertex j = core_size+1..n.

    G (the core giant) depends only on pairs inside the core, and each pair
    {i, j} is a simple edge with probability pi_n*(1 - exp(-w_i w_j/ell_n)),
    independently, so outside vertices join N1 independently with
    p_j = 1 - prod_{i in G} (1 - pi_n*(1 - exp(-w_i w_j/ell_n))).  The log of
    the product is a power series in w_j/ell_n over the power sums of G.
    """
    w_giant = ws.weight(members)
    power_sums = np.array([np.sum(w_giant ** k) for k in range(terms + 1)])
    coef = _log_miss_coefficients(sch.pi_n, terms) * power_sums
    w_out = ws.weight(np.arange(core_size + 1, ws.n + 1))
    return -np.expm1(np.polynomial.polynomial.polyval(w_out / ws.ell_n, coef))


# --------------------------------------------------------------------------
# 1. closed-form constants
# --------------------------------------------------------------------------


def test_criterion_1_closed_form_constants():
    p = model_params(2.5, 1.0, 10)
    c = compute_constants(p)
    kappa_err = abs(c.kappa - math.sqrt(math.pi)) / math.sqrt(math.pi)
    zeta_err = abs(c.zeta - 3.0 * math.pi) / (3.0 * math.pi)
    rho_err = abs(c.rho_star_inf - math.pi) / math.pi
    exact_mu = p.mu == 3.0

    rng = np.random.default_rng(MASTER)
    worst_gap = 0.0
    for _ in range(20):
        tau = float(rng.uniform(2.05, 2.95))
        big_c = float(rng.uniform(0.2, 5.0))
        q = model_params(tau, big_c, 10)
        g = math.gamma(3.0 - tau)
        direct = q.mu * (q.c_F ** (tau - 2.0) * g) ** (1.0 / (3.0 - tau))
        alt = (g ** (1.0 / (3.0 - tau)) * q.c_F
               * c_F_bar(q) ** ((tau - 2.0) / (3.0 - tau))
               * (tau - 1.0) / (tau - 2.0))
        worst_gap = max(worst_gap, abs(direct - alt) / max(direct, alt))

    ok = (kappa_err < 1e-10 and exact_mu and zeta_err < 1e-10
          and rho_err < 1e-8 and worst_gap <= 1e-10)
    report(1, "closed-form constants", ok,
           f"kappa err {kappa_err:.1e}, mu==3 {exact_mu}, zeta err {zeta_err:.1e}, "
           f"rho_star_inf err {rho_err:.1e}, worst zeta-form gap {worst_gap:.1e} over 20 draws")


# --------------------------------------------------------------------------
# 2. survival fixed point and quadrature
# --------------------------------------------------------------------------


def test_criterion_2_fixed_point_and_quadrature():
    p = model_params(2.5, 1.0, 10)
    c = compute_constants(p)
    a_grid = (1.0, 4.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0)
    limits = [core_limit(a, p) for a in a_grid]
    scaled = [a ** (1.0 - p.alpha) * lim.rho_star_a for a, lim in zip(a_grid, limits)]
    zetas = [lim.zeta_a for lim in limits]
    table_ok = (all(x < y for x, y in zip(scaled, scaled[1:]))
                and scaled[-1] < c.rho_star_inf
                and all(x < y for x, y in zip(zetas, zetas[1:]))
                and zetas[-1] < c.zeta)
    gaps = {a: (c.zeta - z) / c.zeta for a, z in zip(a_grid, zetas)}
    # Linearizing the fixed point at a = infinity: the survival map loses
    # c_F_bar*R*a**(1-2*alpha)*(1-alpha)/(2*alpha-1) beyond a, and its slope at
    # R_inf is tau-2, so gap(a) = C_gap * a**-eta * (1 + o(1)) with
    # eta = 2*alpha-1 = (3-tau)/(tau-1) and C_gap = c_F(tau-2)/(3-tau)**2.
    c_gap = p.c_F * (p.tau - 2.0) / (3.0 - p.tau) ** 2
    rate_err = [abs(gaps[a] * a ** p.eta / c_gap - 1.0) for a in (1e2, 1e3, 1e4)]
    rate_ok = all(x > y for x, y in zip(rate_err, rate_err[1:])) and rate_err[-1] <= 0.10

    reps = 10_000
    worst_z = 0.0
    for a in (1.0, 4.0, 10.0):
        lim = core_limit(a, p)
        for tenths in (2, 5, 10):
            u = a * tenths / 10.0
            target = rho_a_of_u(u, a, lim.rho_star_a, p)
            rng = np.random.default_rng(derive_seed(MASTER, int(a * 1000), tenths))
            est = branching_survival_mc(u, a, p, replicas=reps, rng=rng)
            se = math.sqrt(target * (1.0 - target) / reps)
            worst_z = max(worst_z, abs(est - target) / se)

    ok = table_ok and rate_ok and gaps[1e5] < 0.05 and worst_z <= 3.0
    report(2, "survival fixed point and quadrature", ok,
           f"monotone tables {table_ok}, zeta_a gap {gaps[1e4]:.4f} at a=1e4 and "
           f"{gaps[1e5]:.4f} at a=1e5 (need < 0.05), |gap*a^eta/C_gap - 1| "
           f"{'/'.join(f'{e:.3f}' for e in rate_err)} over a=1e2/1e3/1e4 with "
           f"C_gap={c_gap:.3f} (need <= 0.10, shrinking), "
           f"worst branching-MC |z| {worst_z:.2f} over 3x3 grid")


# --------------------------------------------------------------------------
# 3. sampler correctness
# --------------------------------------------------------------------------


def _mult_of(g: MultiGraph, i: int, j: int) -> int:
    idx = np.nonzero((g.src == i) & (g.dst == j))[0]
    return int(g.mult[idx[0]]) if idx.size else 0


def _poisson_chi2_pvalue(samples: np.ndarray, rate: float) -> float:
    n = samples.size
    probs: list[float] = []
    k = 0
    while True:
        pk = math.exp(-rate) * rate ** k / math.factorial(k)
        tail = 1.0 - sum(probs) - pk
        if n * tail < 5.0 or k > 200:
            probs.append(pk + tail)
            break
        probs.append(pk)
        k += 1
    obs = np.bincount(np.minimum(samples, len(probs) - 1), minlength=len(probs))
    exp = n * np.asarray(probs)
    stat = float(((obs - exp) ** 2 / exp).sum())
    return float(chi2.sf(stat, len(probs) - 1))


def test_criterion_3_sampler_correctness():
    draws = 100_000

    # n=2 toy, the alpha = 0 member of the family: pair (1, 2) multiplicity
    # is Poisson(1/2)
    ws2 = WeightSequence.of(2, 0.0, 1.0)
    rng = np.random.default_rng(derive_seed(MASTER, 2, 0))
    mults2 = np.array([_mult_of(sample_mnr(ws2, rng), 1, 2) for _ in range(draws)])
    p2 = _poisson_chi2_pvalue(mults2, 0.5)

    # n=5 power-law toy: multiplicity of (1, 2) plus the collapsed edge indicator
    params5 = model_params(2.5, 1.0, 5)
    ws5 = build_weights(params5)
    rate5 = weight_of(ws5, 1) * weight_of(ws5, 2) / ws5.ell_n
    rng = np.random.default_rng(derive_seed(MASTER, 5, 0))
    mults5 = np.empty(draws, dtype=np.int64)
    present = 0
    for r in range(draws):
        g = sample_mnr(ws5, rng)
        mults5[r] = _mult_of(g, 1, 2)
        present += (1, 2) in set(as_tuples(collapse_to_simple(g)))
    p5 = _poisson_chi2_pvalue(mults5, rate5)
    p_edge = -math.expm1(-rate5)
    edge_z = abs(present - draws * p_edge) / math.sqrt(draws * p_edge * (1.0 - p_edge))

    # thinning a raw graph vs sampling with weights pi*w: same law
    params = model_params(2.5, 1.0, 500)
    ws = build_weights(params)
    pi = 0.3
    reps = 10_000
    rng_a = np.random.default_rng(derive_seed(MASTER, 500, 1))
    rng_b = np.random.default_rng(derive_seed(MASTER, 500, 2))
    edges_a = np.empty(reps, dtype=np.int64)
    edges_b = np.empty(reps, dtype=np.int64)
    giants_a = np.empty(reps, dtype=np.int64)
    giants_b = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        ga = percolate_multigraph(sample_mnr(ws, rng_a), pi, rng_a)
        gb = sample_percolated_mnr_direct(ws, pi, rng_b)
        edges_a[r] = int(ga.mult.sum())
        edges_b[r] = int(gb.mult.sum())
        giants_a[r] = component_sizes(ga).giant_size
        giants_b[r] = component_sizes(gb).giant_size
    ks_edges = ks_2samp(edges_a, edges_b).pvalue
    ks_giants = ks_2samp(giants_a, giants_b).pvalue

    ok = (p2 > 0.01 and p5 > 0.01 and edge_z <= 3.0
          and ks_edges > 0.01 and ks_giants > 0.01)
    report(3, "sampler correctness", ok,
           f"chi2 p={p2:.3f}/{p5:.3f}, edge-probability |z|={edge_z:.2f}, "
           f"K-S p={ks_edges:.3f} (edges) / {ks_giants:.3f} (giant)")


# --------------------------------------------------------------------------
# 4. exploration walk limit
# --------------------------------------------------------------------------


def test_criterion_4_exploration_limit():
    config = ExperimentConfig("exploration_limit", replicas=20, master_seed=MASTER)
    result = run(config)
    T, max_z = result.theory["T"], result.theory["max_z"]
    med = [result.aggregates[str(n)]["sup_distance"]["median"] for n in config.n_grid]
    decreasing = all(x > y for x, y in zip(med, med[1:]))
    ratio = med[-1] / max_z

    # Split the distance to z into the deterministic drift sup|m_n - z| of the
    # exact mean walk and the fluctuation sup|Z/beta_n - m_n| around it, on
    # the same walks the runner made.
    drift, fluct, series_err = [], [], 0.0
    rebuilt = True
    for n in config.n_grid:
        params = model_params(config.tau, config.C, n)
        ws = build_weights(params)
        sch = make_schedule(params, config.mode, config.lambda_rule)
        constants = compute_constants(params)
        steps = math.floor(T * sch.beta_n)
        l = np.arange(steps + 1, dtype=np.float64)
        t = l / sch.beta_n
        z = params.mu ** (3.0 - params.tau) * constants.kappa * t ** (params.tau - 2.0) - t
        m = _mean_walk(ws, sch, steps)(l)
        exact = (sch.pi_n * ws.ell_n * laplace_sum_exact(weight_array(ws), t[-1], sch.beta_n)
                 - steps) / sch.beta_n
        series_err = max(series_err, abs(m[-1] - exact) / max_z)
        drift.append(float(np.abs(m - z).max()) / max_z)
        sups = []
        for rec in (r for r in result.records if r["n"] == n):
            rng = np.random.default_rng(derive_seed(MASTER, n, rec["replica"]))
            walk = run_exploration(ws, sch, steps, rng).Z / sch.beta_n
            rebuilt &= math.isclose(float(np.abs(walk - z).max()), rec["sup_distance"],
                                    rel_tol=1e-12)
            sups.append(float(np.abs(walk - m).max()))
        fluct.append(float(np.median(sups)) / max_z)
    drift_decreasing = all(x > y for x, y in zip(drift, drift[1:]))
    fluct_decreasing = all(x > y for x, y in zip(fluct, fluct[1:]))

    ok = (decreasing and rebuilt and series_err < 1e-9 and drift_decreasing
          and fluct_decreasing and fluct[-1] < 0.35)
    meds = "/".join(f"{m:.3f}" for m in med)
    report(4, "exploration walk limit", ok,
           f"median sup distance to z {meds} over n=1e4/1e5/1e6 (decreasing {decreasing}), "
           f"{ratio:.3f} of max z at n=1e6; exact-mean drift sup|m_n - z| "
           f"{'/'.join(f'{d:.3f}' for d in drift)} of max z (decreasing {drift_decreasing}); "
           f"median fluctuation sup|Z/beta - m_n| {'/'.join(f'{f:.3f}' for f in fluct)} "
           f"of max z (need < 0.35 at n=1e6, decreasing); walks rebuilt {rebuilt}, "
           f"m_n vs laplace_sum_exact {series_err:.1e}")


# --------------------------------------------------------------------------
# 5. multigraph giant scaling
# --------------------------------------------------------------------------


def test_criterion_5_multigraph_giant():
    config = ExperimentConfig("multi_giant", replicas=20, master_seed=MASTER)
    result = run(config)
    zeta = result.theory["zeta"]
    c1 = [result.aggregates[str(n)]["c1_over_beta"] for n in config.n_grid]
    rel = [abs(s["mean"] - zeta) / zeta for s in c1]
    q95 = [result.aggregates[str(n)]["c2_over_beta"]["q95"] for n in config.n_grid]
    rel_decreasing = all(x > y for x, y in zip(rel, rel[1:]))
    q95_decreasing = all(x > y for x, y in zip(q95, q95[1:]))

    # g_n centres the ensemble mean; its gap to zeta is the finite-size term.
    centre = []
    for n in config.n_grid:
        params = model_params(config.tau, config.C, n)
        sch = make_schedule(params, config.mode, config.lambda_rule)
        centre.append(_giant_centring(build_weights(params), sch))
    z_scores = [(s["mean"] - g) / (s["std"] / math.sqrt(config.replicas))
                for s, g in zip(c1, centre)]
    centre_gap = [abs(g - zeta) / zeta for g in centre]
    centred = all(abs(z) <= 3.0 for z in z_scores)
    centre_decreasing = all(x > y for x, y in zip(centre_gap, centre_gap[1:]))

    ok = (rel_decreasing and centred and centre_decreasing
          and q95_decreasing and q95[-1] < 0.25)
    report(5, "multigraph giant scaling", ok,
           f"relative error of mean C1/beta to zeta {'/'.join(f'{r:.4f}' for r in rel)} "
           f"(decreasing {rel_decreasing}), z-score of the mean against the finite-n "
           f"centre g_n {'/'.join(f'{z:+.2f}' for z in z_scores)} (need |z| <= 3), "
           f"g_n {'/'.join(f'{g:.3f}' for g in centre)} off zeta by "
           f"{'/'.join(f'{g:.3f}' for g in centre_gap)} (decreasing {centre_decreasing}), "
           f"second-component q95 "
           f"{'/'.join(f'{q:.3f}' for q in q95)} (need < 0.25, decreasing)")


# --------------------------------------------------------------------------
# 6. single vs multi coupling
# --------------------------------------------------------------------------


def test_criterion_6_single_vs_multi():
    # the giant gap is a handful of vertices over beta_n, so 20-replica
    # medians wobble; 100 replicas pin the decreasing trend (bootstrap
    # se of each median is < 15% of the step between grid points)
    config = ExperimentConfig("single_vs_multi", replicas=100, master_seed=MASTER)
    # every replica hard-asserts |C1| >= |C1*| inside the runner
    result = run(config)
    med = [result.aggregates[str(n)]["diff_over_beta"]["median"] for n in config.n_grid]
    decreasing = all(x > y for x, y in zip(med, med[1:]))
    ok = decreasing and med[-1] < 0.2
    report(6, "single vs multi coupling", ok,
           f"coupling held on all {len(result.records)} runs, median giant gap/beta "
           f"{'/'.join(f'{m:.4f}' for m in med)} (need < 0.2 at n=1e6, decreasing)")


# --------------------------------------------------------------------------
# 7. core structure
# --------------------------------------------------------------------------


def test_criterion_7_core_structure():
    a = 1.0
    params = model_params(2.5, 1.0, 10**6)
    ws = build_weights(params)
    sch = make_schedule(params, "single", LambdaRule("constant", 10.0))
    entries = kernel_convergence_check(ws, sch, a,
                                       [(a / 4, a / 4), (a / 4, a), (a, a)])
    worst_kernel = max(abs(e.ratio - 1.0) for e in entries)
    kernel_ok = worst_kernel <= 0.10

    n1_cfg = ExperimentConfig("one_neighborhood", n_grid=(10**5, 10**6), replicas=5,
                              master_seed=MASTER, a=a)
    n1_res = run(n1_cfg)
    frac_mean = n1_res.aggregates[str(10**6)]["core_giant_fraction"]["mean"]
    rho_a = n1_res.theory["rho_a"]
    frac_err = abs(frac_mean - rho_a) / rho_a
    frac_ok = frac_err <= 0.05
    gaps = [n1_res.aggregates[str(n)]["relative_gap"]["mean"] for n in n1_cfg.n_grid]

    # Rebuild each replica's core giant G and test N1 against its exact
    # conditional law given G, a sum of independent Bernoulli(p_j).
    pooled_z, centre_gap = [], []
    rebuilt = True
    series_err = 0.0
    for n in n1_cfg.n_grid:
        params = model_params(n1_cfg.tau, n1_cfg.C, n)
        ws = build_weights(params)
        sch = make_schedule(params, n1_cfg.mode, n1_cfg.lambda_rule)
        core_size = core_prefix_size(sch, a)
        z_sum, gap_sum = 0.0, 0.0
        recs = [r for r in n1_res.records if r["n"] == n]
        for rec in recs:
            rng = np.random.default_rng(derive_seed(MASTER, n, rec["replica"]))
            g_simple = sample_coupled_direct(ws, sch.pi_n, rng)[1]
            core = core_report(g_simple, ws, sch, a)
            members, weight, n1 = (core.core_giant_members, core.core_giant_weight,
                                   core.one_neighborhood_size)
            rebuilt &= (n1 == rec["one_neighborhood_size"]
                        and weight == rec["core_giant_weight"])
            p_join = _one_neighborhood_law(ws, sch, members, core_size)
            for j in (core_size + 1, n):  # largest and smallest w_i w_j / ell_n
                x = ws.weight(members) * weight_of(ws, j) / ws.ell_n
                direct = -math.expm1(float(np.sum(np.log1p(sch.pi_n * np.expm1(-x)))))
                series_err = max(series_err, abs(p_join[j - core_size - 1] / direct - 1.0))
            mean, var = float(p_join.sum()), float(np.sum(p_join * (1.0 - p_join)))
            z_sum += (n1 - mean) / math.sqrt(var)
            gap_sum += 1.0 - mean / weight
        pooled_z.append(z_sum / math.sqrt(len(recs)))
        centre_gap.append(gap_sum / len(recs))
    n1_ok = (gaps[0] > gaps[1] and rebuilt and series_err < 1e-10
             and all(abs(z) <= 3.0 for z in pooled_z) and centre_gap[0] > centre_gap[1])

    ok = kernel_ok and frac_ok and n1_ok
    core_n = next(r["core_size"] for r in n1_res.records if r["n"] == 10**6)
    report(7, "core structure", ok,
           f"worst kernel ratio gap {worst_kernel:.3f} (need <= 0.10), core giant "
           f"fraction off rho_a by {frac_err:.3f} at core size {core_n} (need <= 0.05), "
           f"one-neighborhood gap to core weight {gaps[0]:.3f} -> {gaps[1]:.3f} "
           f"(need shrinking), pooled z of N1 against E[N1|G] "
           f"{'/'.join(f'{z:+.2f}' for z in pooled_z)} (need |z| <= 3), "
           f"gap of E[N1|G] to core weight {centre_gap[0]:.3f} -> {centre_gap[1]:.3f} "
           f"(need shrinking), giants rebuilt {rebuilt}, series vs product {series_err:.1e}")


# --------------------------------------------------------------------------
# 8. walk diagnostics
# --------------------------------------------------------------------------


def test_criterion_8_walk_diagnostics():
    # measure at t=6: by then the walk is deep enough that the repeat count
    # scales like pi_n (at t=1 the heavy marks are only half saturated and
    # the exact expectation still has slope ~0.8 on this grid)
    rep_cfg = ExperimentConfig("repeat_fraction", replicas=20, master_seed=MASTER, T=6.0)
    rep_res = run(rep_cfg)
    pis = [rep_res.theory["schedules"][str(n)]["pi_n"] for n in rep_cfg.n_grid]
    means = [rep_res.aggregates[str(n)]["repeat_fraction"]["mean"] for n in rep_cfg.n_grid]
    slope = float(np.polyfit(np.log(pis), np.log(means), 1)[0])
    slope_ok = abs(slope - rep_res.theory["slope_target"]) <= 0.15

    res_cfg = ExperimentConfig("residual_components", replicas=20, master_seed=MASTER)
    res_res = run(res_cfg)
    q95 = [res_res.aggregates[str(n)]["residual_over_beta"]["q95"] for n in res_cfg.n_grid]
    resid_ok = q95[0] > q95[-1] and q95[-1] < 0.2

    ok = slope_ok and resid_ok
    report(8, "walk diagnostics", ok,
           f"repeat-fraction log-log slope {slope:.3f} vs target 1 (tol 0.15), "
           f"residual component q95/beta {q95[0]:.4f} -> {q95[-1]:.4f} "
           f"(need < 0.2 at n=1e5, decreasing)")


# --------------------------------------------------------------------------
# 9. structural invariants
# --------------------------------------------------------------------------


def _bfs_sizes(n: int, edges) -> list[int]:
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    seen: set[int] = set()
    sizes = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        stack, comp = [start], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        sizes.append(len(comp))
    return sorted(sizes, reverse=True)


def test_criterion_9_structural_invariants():
    params = model_params(2.5, 1.0, 2000)
    ws = build_weights(params)
    rng = np.random.default_rng(derive_seed(MASTER, 2000, 0))
    direct_rng = np.random.default_rng(derive_seed(MASTER, 2000, 1))
    degree_ok = True
    coupling_ok = True
    for _ in range(5):
        g = sample_mnr(ws, rng)
        g.validate()
        degree_ok &= int(degrees(g).sum()) == 2 * int(g.mult.sum())
        # the raw-multigraph operator and the direct sampler both couple
        for gm, gs in (percolate_coupled(g, 0.4, rng),
                       sample_coupled_direct(ws, 0.4, direct_rng)[:2]):
            gm.validate()
            gs.validate()
            coupling_ok &= set(as_tuples(gs)) <= {(i, j) for i, j, _ in as_tuples(gm)}

    sch = make_schedule(params, "multi", LambdaRule("power", 0.1))
    trace = run_exploration(ws, sch, 400, rng)
    repeats = trace.repeats
    explored_ok = all(explored(trace, l).size == l - repeats[l] for l in range(trace.steps + 1))

    # component labels vs BFS: every simple graph on <= 4 vertices, then random
    # multigraphs (loops and multiplicities included) up to 8 vertices
    labels_ok = True
    for n in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                got = all_sizes(component_sizes(simple_from_pairs(n, edges))).tolist()
                labels_ok &= got == _bfs_sizes(n, edges)
    check_rng = np.random.default_rng(derive_seed(MASTER, 8, 0))
    for _ in range(500):
        n = int(check_rng.integers(1, 9))
        m = int(check_rng.integers(0, 14))
        pairs = [(int(check_rng.integers(1, n + 1)), int(check_rng.integers(1, n + 1)), 1)
                 for _ in range(m)]
        got = all_sizes(component_sizes(multi_from_pairs(n, pairs))).tolist()
        labels_ok &= got == _bfs_sizes(n, [(i, j) for i, j, _ in pairs])

    ok = degree_ok and coupling_ok and explored_ok and labels_ok
    report(9, "structural invariants", ok,
           f"degree-sum {degree_ok}, coupling subgraph {coupling_ok}, "
           f"explored-set identity {explored_ok}, component labels vs BFS {labels_ok} "
           f"(exhaustive n<=4 plus 500 random multigraphs n<=8)")
