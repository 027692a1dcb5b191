"""Closed-form limit constants and their numerical companions.

Everything here is deterministic mathematics on the parameter side of the
model: the constants (kappa, zeta, rho_star_inf) controlling the giant
component scale, the deterministic curve z(t) tracked by the rescaled
exploration walk, truncated-kernel operator norms, survival probabilities of
the limiting mixed-Poisson branching process (via a fixed point solved by
simple iteration), and a Monte Carlo branching-process oracle used to
cross-check the fixed point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalFailureError
from .params import ModelParams

# --------------------------------------------------------------------------
# limit constants
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TheoryConstants:
    """Limit constants of the barely supercritical window.

    kappa        = c_F**(tau-2) * Gamma(3-tau)
    zeta         = mu * kappa**(1/(3-tau)), the positive root of z(t) and the
                   limit of |C_(1)| / beta_n
    rho_star_inf = Gamma(3-tau)**(1/(3-tau)) * c_F_bar**((tau-2)/(3-tau)),
                   the limit of a**(1-alpha) * rho_star_a
    c_F_bar      = c_F**2 / (mu * (1-alpha)); algebraically equal to c_F
    """

    kappa: float
    zeta: float
    rho_star_inf: float
    c_F_bar: float


def c_F_bar(params: ModelParams) -> float:
    return params.c_F**2 / (params.mu * (1.0 - params.alpha))


def compute_constants(params: ModelParams) -> TheoryConstants:
    """Evaluate the limit constants, cross-checking equivalent closed forms."""
    tau, cf, mu = params.tau, params.c_F, params.mu
    g = math.gamma(3.0 - tau)
    kappa = cf ** (tau - 2.0) * g
    cbar = c_F_bar(params)
    if abs(cbar - cf) > 1e-10 * cf:
        raise NumericalFailureError(f"c_F_bar={cbar!r} drifted from c_F={cf!r}")
    rho_star_inf = g ** (1.0 / (3.0 - tau)) * cbar ** ((tau - 2.0) / (3.0 - tau))
    zeta = mu * kappa ** (1.0 / (3.0 - tau))
    # Independent route through the scaled survival probability.
    zeta_alt = (
        g ** (1.0 / (3.0 - tau))
        * cf
        * cbar ** ((tau - 2.0) / (3.0 - tau))
        * (tau - 1.0)
        / (tau - 2.0)
    )
    if abs(zeta - zeta_alt) > 1e-10 * max(zeta, zeta_alt):
        raise NumericalFailureError(f"zeta closed forms disagree: {zeta!r} vs {zeta_alt!r}")
    return TheoryConstants(kappa=kappa, zeta=zeta, rho_star_inf=rho_star_inf, c_F_bar=cbar)


def limit_curve_z(t: float, params: ModelParams, constants: TheoryConstants) -> float:
    """The limiting drift curve z(t) = mu**(3-tau) * kappa * t**(tau-2) - t.

    Extended continuously by z(0) = 0.  Positive exactly on (0, zeta).
    """
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got t={t}")
    if t == 0.0:
        return 0.0
    return params.mu ** (3.0 - params.tau) * constants.kappa * t ** (params.tau - 2.0) - t


def limit_curve_max(params: ModelParams, constants: TheoryConstants, T: float) -> float:
    """max of z over [0, T]; the interior maximizer is
    t* = ((tau-2) * mu**(3-tau) * kappa)**(1/(3-tau))."""
    if not (T > 0.0):
        raise DomainError(f"horizon T must be positive, got T={T}")
    tau = params.tau
    t_star = ((tau - 2.0) * params.mu ** (3.0 - tau) * constants.kappa) ** (1.0 / (3.0 - tau))
    if t_star > T:
        t_star = T
    return limit_curve_z(t_star, params, constants)


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
# adaptive Simpson quadrature with a power-law substitution
# --------------------------------------------------------------------------

QUAD_TOL = 1e-10
QUAD_MAX_PANELS = 2**20


def _adaptive_simpson(f, lo: float, hi: float, tol: float = QUAD_TOL,
                      max_panels: int = QUAD_MAX_PANELS) -> float:
    """Adaptive Simpson on [lo, hi] to absolute tolerance tol.

    Raises NumericalFailureError when the panel budget is exhausted.
    """
    if hi <= lo:
        raise DomainError(f"empty integration interval [{lo}, {hi}]")
    m = 0.5 * (lo + hi)
    flo, fm, fhi = f(lo), f(m), f(hi)
    whole = (hi - lo) * (flo + 4.0 * fm + fhi) / 6.0
    # Stack entries: (a, b, fa, fm, fb, S_ab, local tol)
    stack = [(lo, hi, flo, fm, fhi, whole, tol)]
    total = 0.0
    panels = 1
    while stack:
        a, b, fa, fm_, fb, s_ab, eps = stack.pop()
        m_ = 0.5 * (a + b)
        lm = 0.5 * (a + m_)
        rm = 0.5 * (m_ + b)
        flm, frm = f(lm), f(rm)
        s_left = (m_ - a) * (fa + 4.0 * flm + fm_) / 6.0
        s_right = (b - m_) * (fm_ + 4.0 * frm + fb) / 6.0
        err = s_left + s_right - s_ab
        if abs(err) <= 15.0 * eps:
            total += s_left + s_right + err / 15.0
            continue
        panels += 1
        if panels > max_panels:
            raise NumericalFailureError(
                f"adaptive Simpson exceeded {max_panels} panels on [{lo}, {hi}]"
            )
        half = 0.5 * eps
        stack.append((a, m_, fa, flm, fm_, s_left, half))
        stack.append((m_, b, fm_, frm, fb, s_right, half))
    return total


def _integrate_power_weighted(g, a: float, alpha: float, g_at_zero: float,
                              tol: float = QUAD_TOL) -> float:
    """integral_0^a u**(-alpha) * g(u) du for bounded g, alpha in (1/2, 1).

    The substitution u = y**(1/(1-alpha)) removes the endpoint singularity:
    the integral equals (1/(1-alpha)) * integral_0^{a**(1-alpha)} g(u(y)) dy.
    ``g_at_zero`` supplies lim_{u->0+} g(u) for the transformed endpoint.
    """
    p = 1.0 - alpha
    upper = a**p
    inv_p = 1.0 / p

    def h(y: float) -> float:
        if y <= 0.0:
            return g_at_zero
        return g(y**inv_p)

    return _adaptive_simpson(h, 0.0, upper, tol) / p


# --------------------------------------------------------------------------
# survival probabilities of the limiting branching process on (0, a]
# --------------------------------------------------------------------------


def survival_map(rho: float, a: float, params: ModelParams, tol: float = QUAD_TOL) -> float:
    """One application of the consistency map whose largest fixed point is rho_star_a.

    Phi(rho) = ((1-alpha)/a**(1-alpha)) *
               integral_0^a u**(-alpha) * (1 - exp(-c_F_bar * a**(1-alpha) * u**(-alpha) * rho)) du

    The outer factor is the normalized size-biased type density; Phi maps
    [0, 1] into [0, 1], fixes 0, and is concave increasing.
    """
    if not (a > 0.0):
        raise DomainError(f"core level a must be positive, got a={a}")
    if rho < 0.0 or rho > 1.0:
        raise DomainError(f"rho must lie in [0, 1], got rho={rho}")
    if rho == 0.0:
        return 0.0
    alpha = params.alpha
    scale = c_F_bar(params) * a ** (1.0 - alpha) * rho

    def g(u: float) -> float:
        return -math.expm1(-scale * u ** (-alpha))

    integral = _integrate_power_weighted(g, a, alpha, g_at_zero=1.0, tol=tol)
    return (1.0 - alpha) / a ** (1.0 - alpha) * integral


def rho_star_fixed_point(a: float, params: ModelParams, tol: float = 1e-12,
                         max_iter: int = 100_000) -> float:
    """Largest fixed point of the survival map, by simple iteration from 1.

    Phi is concave with Phi(0) = 0 and infinite slope at 0, so iterates from
    rho_0 = 1 decrease monotonically to the unique positive fixed point.
    Stops when successive iterates differ by less than tol.
    """
    rho = 1.0
    for _ in range(max_iter):
        nxt = survival_map(rho, a, params)
        if abs(nxt - rho) < tol:
            return nxt
        rho = nxt
    raise NumericalFailureError(
        f"fixed point did not converge within {max_iter} iterations at a={a}; "
        f"last residual {abs(nxt - rho):.3e}"
    )


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


def zeta_a(a: float, params: ModelParams, rho_star: float | None = None,
           tol: float = QUAD_TOL) -> float:
    """Weight of the level-a giant on the beta_n scale:
    zeta_a = integral_0^a c_F * u**(-alpha) * rho_a(u) du, increasing to zeta."""
    if not (a > 0.0):
        raise DomainError(f"core level a must be positive, got a={a}")
    if rho_star is None:
        rho_star = rho_star_fixed_point(a, params)
    if rho_star == 0.0:
        return 0.0
    alpha = params.alpha
    scale = c_F_bar(params) * a ** (1.0 - alpha) * rho_star

    def g(u: float) -> float:
        return -math.expm1(-scale * u ** (-alpha))

    return params.c_F * _integrate_power_weighted(g, a, alpha, g_at_zero=1.0, tol=tol)


def rho_a_mean(a: float, params: ModelParams, rho_star: float | None = None,
               tol: float = QUAD_TOL) -> float:
    """Unconditional survival probability rho_a = (1/a) * integral_0^a rho_a(u) du."""
    if not (a > 0.0):
        raise DomainError(f"core level a must be positive, got a={a}")
    if rho_star is None:
        rho_star = rho_star_fixed_point(a, params)
    if rho_star == 0.0:
        return 0.0
    alpha = params.alpha
    scale = c_F_bar(params) * a ** (1.0 - alpha) * rho_star

    def f(u: float) -> float:
        if u <= 0.0:
            return 1.0
        return -math.expm1(-scale * u ** (-alpha))

    return _adaptive_simpson(f, 0.0, a, tol) / a


@dataclass(frozen=True)
class CoreLimit:
    """Limit quantities of the level-a core: the fixed point rho_star_a, the
    mean survival probability rho_a (giant fraction of the core), and the
    giant weight zeta_a on the beta_n scale."""

    a: float
    rho_star_a: float
    rho_a: float
    zeta_a: float


def core_limit(a: float, params: ModelParams) -> CoreLimit:
    """Solve the level-a fixed point once and derive the dependent quantities."""
    rho_star = rho_star_fixed_point(a, params)
    return CoreLimit(
        a=a,
        rho_star_a=rho_star,
        rho_a=rho_a_mean(a, params, rho_star=rho_star),
        zeta_a=zeta_a(a, params, rho_star=rho_star),
    )


# --------------------------------------------------------------------------
# truncated kernel operator and forward-degree decay
# --------------------------------------------------------------------------


def truncated_operator_norm(eps: float, a: float, params: ModelParams) -> float:
    """Largest eigenvalue of the rank-one kernel (c_F**2/mu) * (u*v)**-alpha on
    types in [eps, a]: (c_F**2/mu) * integral_eps^a v**(-2*alpha) dv.

    Diverges as eps -> 0, which is why the barely supercritical core keeps a
    positive lower type cutoff.
    """
    if not (0.0 < eps < a):
        raise DomainError(f"need 0 < eps < a, got eps={eps}, a={a}")
    alpha = params.alpha
    q = 2.0 * alpha - 1.0  # positive for tau < 3
    integral = (eps ** (-q) - a ** (-q)) / q
    return params.c_F**2 / params.mu * integral


def forward_degree_asymptote(t: float, params: ModelParams) -> float:
    """Upper envelope for the expected forward degree of the unexplored graph:
    (1/alpha) * mu**(1-1/alpha) * c_F**(1/alpha) * Gamma(3-tau) * t**-(3-tau)."""
    if not (t > 0.0):
        raise DomainError(f"time must be positive, got t={t}")
    alpha, mu, cf, tau = params.alpha, params.mu, params.c_F, params.tau
    coef = (1.0 / alpha) * mu ** (1.0 - 1.0 / alpha) * cf ** (1.0 / alpha) * math.gamma(3.0 - tau)
    return coef * t ** (-(3.0 - tau))


def horizon_for_forward_degree(params: ModelParams, threshold: float = 0.25) -> float:
    """Smallest t at which the forward-degree envelope drops to ``threshold``."""
    if not (threshold > 0.0):
        raise DomainError(f"threshold must be positive, got {threshold}")
    coef = forward_degree_asymptote(1.0, params)
    return (coef / threshold) ** (1.0 / (3.0 - params.tau))


# --------------------------------------------------------------------------
# Monte Carlo oracle: the mixed-Poisson branching process on (0, a]
# --------------------------------------------------------------------------


def offspring_mean(v: float, a: float, params: ModelParams) -> float:
    """Poisson offspring mean of a particle of type v: c_F_bar * a**(1-alpha) * v**(-alpha)."""
    if not (0.0 < v <= a):
        raise DomainError(f"type v must lie in (0, a], got v={v}")
    return c_F_bar(params) * a ** (1.0 - params.alpha) * v ** (-params.alpha)


def _spawn(lam: np.ndarray, rep: np.ndarray, a: float, params: ModelParams, rng):
    """Children of particles with the given Poisson offspring means: counts are
    Poisson(lam), child types are i.i.d. with density proportional to
    x**(-alpha) on (0, a], i.e. x = a * U**(1/(1-alpha)) for uniform U."""
    counts = rng.poisson(lam)
    child_rep = np.repeat(rep, counts)
    u = rng.random(child_rep.size)
    child_types = a * u ** (1.0 / (1.0 - params.alpha))
    return counts, child_rep, child_types


def branching_survival_mc(u: float, a: float, params: ModelParams,
                          depth_cap: int = 50, replicas: int = 10_000,
                          rng=None, pop_cap: int = 1_000,
                          mean_cap: float = 100.0) -> float:
    """Monte Carlo estimate of the survival probability rho_a(u).

    Runs ``replicas`` independent copies of the branching process rooted at a
    single particle of type u and reports the fraction still alive at
    generation ``depth_cap``.  Two early-survival shortcuts keep the simulation
    bounded (the process is supercritical on (0, a], so the chance of dying out
    from either state is negligible next to the binomial noise):

    - populations reaching ``pop_cap`` are declared survivors;
    - so is any replica holding a particle with offspring mean >= ``mean_cap``.
      The type density blows up near 0, so single particles of tiny type can
      carry means in the millions, and sampling their children would exhaust
      memory; their extinction odds are below exp(-mean_cap / 4).
    """
    if not (a > 0.0):
        raise DomainError(f"core level a must be positive, got a={a}")
    if not (0.0 < u <= a):
        raise DomainError(f"root type u must lie in (0, a], got u={u}")
    if depth_cap < 10:
        raise DomainError(f"depth_cap must be at least 10, got {depth_cap}")
    if replicas < 1_000:
        raise DomainError(f"need at least 1000 replicas, got {replicas}")
    if rng is None:
        rng = np.random.default_rng()

    UNDECIDED, DEAD, SURVIVED = 0, 1, 2
    status = np.zeros(replicas, dtype=np.int8)
    rep = np.arange(replicas, dtype=np.int64)
    types = np.full(replicas, float(u))
    scale = c_F_bar(params) * a ** (1.0 - params.alpha)
    for _ in range(depth_cap):
        if rep.size == 0:
            break
        lam = scale * types ** (-params.alpha)
        hot = lam >= mean_cap
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
        status[undecided & (pop >= pop_cap)] = SURVIVED
        keep = status[child_rep] == UNDECIDED
        rep = child_rep[keep]
        types = child_types[keep]
    # Survivors: capped populations plus anything still alive at depth_cap.
    return float(np.count_nonzero(status != DEAD)) / replicas
