"""Closed-form limit constants and their numerical companions.

Everything here is deterministic mathematics on the parameter side of the
model: the constants (kappa, zeta, rho_star_inf) controlling the giant
component scale, the deterministic curve z(t) tracked by the rescaled
exploration walk, truncated-kernel operator norms, and survival
probabilities of the limiting mixed-Poisson branching process (via a fixed
point solved by simple iteration).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NumericalFailureError
from .params import ModelParams

# --------------------------------------------------------------------------
# limit constants
# --------------------------------------------------------------------------


class TheoryConstants(NamedTuple):
    """Limit constants of the barely supercritical window.

    kappa        = c_F**(tau-2) * Gamma(3-tau)
    zeta         = mu * kappa**(1/(3-tau)), the positive root of z(t) and the
                   limit of |C_(1)| / beta_n
    rho_star_inf = Gamma(3-tau)**(1/(3-tau)) * c_F_bar**((tau-2)/(3-tau)),
                   the limit of a**(1-alpha) * rho_star_a
    """

    kappa: float
    zeta: float
    rho_star_inf: float


def c_F_bar(params: ModelParams) -> float:
    """c_F_bar = c_F**2 / (mu * (1-alpha)); algebraically equal to c_F."""
    return params.c_F**2 / (params.mu * (1.0 - params.alpha))


def compute_constants(params: ModelParams) -> TheoryConstants:
    """Evaluate the limit constants, one closed form each.

    Raises DomainError where tau is so near 3 that a constant leaves float range.
    """
    tau = params.tau
    g = math.gamma(3.0 - tau)
    kappa = params.c_F ** (tau - 2.0) * g
    try:
        constants = TheoryConstants(
            kappa=kappa, zeta=params.mu * kappa ** (1.0 / (3.0 - tau)),
            rho_star_inf=g ** (1.0 / (3.0 - tau)) * c_F_bar(params) ** ((tau - 2.0) / (3.0 - tau)))
    except OverflowError:
        constants = None
    if constants is None or not all(map(math.isfinite, constants)):
        raise DomainError(f"tau={tau} puts the limit constants past float range")
    return constants


def limit_curve_z(t, params: ModelParams, constants: TheoryConstants):
    """The limiting drift curve z(t) = mu**(3-tau) * kappa * t**(tau-2) - t,
    at a time or elementwise on an array of times.

    z(0) = 0 since tau > 2.  Positive exactly on (0, zeta).

    The power runs on one of two kernels, and they may round the last bit
    differently.  A Python float t (the report's ``z_curve`` and ``max_z``)
    goes through the C library's pow; an array t (the walk's limit grid)
    goes through numpy's array power.  On 12,001 evenly spaced times over
    [0, 2 zeta] they differ at 11 points at tau = 2.5 (numpy 2.4.6).
    """
    if np.any(np.less(t, 0.0)):
        raise DomainError(f"time must be nonnegative, got t={np.min(t)}")
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
# adaptive Simpson quadrature
# --------------------------------------------------------------------------

QUAD_TOL = 1e-10
QUAD_MAX_PANELS = 2**20


def _adaptive_simpson(f, lo: float, hi: float) -> float:
    """Adaptive Simpson on [lo, hi] to absolute tolerance QUAD_TOL.

    Raises NumericalFailureError when the QUAD_MAX_PANELS budget is exhausted.
    """
    if hi <= lo:
        raise DomainError(f"empty integration interval [{lo}, {hi}]")
    m = 0.5 * (lo + hi)
    flo, fm, fhi = f(lo), f(m), f(hi)
    whole = (hi - lo) * (flo + 4.0 * fm + fhi) / 6.0
    # Stack entries: (a, b, fa, fm, fb, S_ab, local tol)
    stack = [(lo, hi, flo, fm, fhi, whole, QUAD_TOL)]
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
        if panels > QUAD_MAX_PANELS:
            raise NumericalFailureError(
                f"adaptive Simpson exceeded {QUAD_MAX_PANELS} panels on [{lo}, {hi}]"
            )
        half = 0.5 * eps
        stack.append((a, m_, fa, flm, fm_, s_left, half))
        stack.append((m_, b, fm_, frm, fb, s_right, half))
    return total


# --------------------------------------------------------------------------
# survival probabilities of the limiting branching process on (0, a]
# --------------------------------------------------------------------------


def _survival(scale: float, alpha: float, inv_p: float = 1.0):
    """The integrand y -> 1 - exp(-scale * u**(-alpha)) at u = y**inv_p, the chance
    that a type-u particle survives, with its limit 1 where u is 0 or u**(-alpha)
    is past float range."""
    neg_alpha = -alpha

    def g(y: float) -> float:
        u = y**inv_p
        if u <= 0.0:
            return 1.0
        try:
            return -math.expm1(-scale * u**neg_alpha)
        except OverflowError:
            return 1.0

    return g


def survival_map(rho: float, a: float, params: ModelParams) -> float:
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
    p = 1.0 - params.alpha
    # u = y**(1/(1-alpha)) removes the u**(-alpha) endpoint singularity:
    # integral_0^a u**(-alpha) g(u) du = (1/(1-alpha)) integral_0^{a**(1-alpha)} g(u(y)) dy,
    # and g(u) -> 1 as u -> 0+.
    survival = _survival(c_F_bar(params) * a**p * rho, params.alpha, 1.0 / p)
    integral = _adaptive_simpson(survival, 0.0, a**p) / p
    return p / a**p * integral


FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 100_000


def rho_star_fixed_point(a: float, params: ModelParams) -> float:
    """Largest fixed point of the survival map, by simple iteration from 1.

    Phi is concave with Phi(0) = 0 and infinite slope at 0, so iterates from
    rho_0 = 1 decrease monotonically to the unique positive fixed point.
    Stops when successive iterates differ by less than FIXED_POINT_TOL.
    """
    rho = 1.0
    for _ in range(FIXED_POINT_MAX_ITER):
        nxt = survival_map(rho, a, params)
        if abs(nxt - rho) < FIXED_POINT_TOL:
            return nxt
        rho = nxt
    raise NumericalFailureError(
        f"fixed point did not converge within {FIXED_POINT_MAX_ITER} iterations at a={a}; "
        f"last residual {abs(nxt - rho):.3e}"
    )


class CoreLimit(NamedTuple):
    """Limit quantities of the level-a core: the fixed point rho_star_a, the
    mean survival probability rho_a (giant fraction of the core), and the
    giant weight zeta_a on the beta_n scale."""

    a: float
    rho_star_a: float
    rho_a: float
    zeta_a: float


def core_limit(a: float, params: ModelParams) -> CoreLimit:
    """Solve the level-a fixed point once and derive rho_a and zeta_a from it.

    With rho_a(u) = 1 - exp(-c_F_bar * a**(1-alpha) * u**(-alpha) * rho_star_a),
    rho_a = (1/a) * integral_0^a rho_a(u) du, and
    zeta_a = integral_0^a c_F * u**(-alpha) * rho_a(u) du increases to zeta.
    The latter is the integral survival_map takes, so at its fixed point
    zeta_a = c_F * a**(1-alpha) * rho_star_a / (1-alpha).
    """
    rho_star = rho_star_fixed_point(a, params)
    p = 1.0 - params.alpha
    survival = _survival(c_F_bar(params) * a**p * rho_star, params.alpha)
    return CoreLimit(a=a, rho_star_a=rho_star, rho_a=_adaptive_simpson(survival, 0.0, a) / a,
                     zeta_a=params.c_F * a**p * rho_star / p)


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


# Envelope level that ends the residual-components exploration.
FORWARD_DEGREE_LEVEL = 0.25


def forward_degree_asymptote(t: float, params: ModelParams) -> float:
    """Upper envelope for the expected forward degree of the unexplored graph:
    (1/alpha) * mu**(1-1/alpha) * c_F**(1/alpha) * Gamma(3-tau) * t**-(3-tau)."""
    if not (t > 0.0):
        raise DomainError(f"time must be positive, got t={t}")
    alpha, mu, cf, tau = params.alpha, params.mu, params.c_F, params.tau
    coef = (1.0 / alpha) * mu ** (1.0 - 1.0 / alpha) * cf ** (1.0 / alpha) * math.gamma(3.0 - tau)
    return coef * t ** (-(3.0 - tau))


def horizon_for_forward_degree(params: ModelParams) -> float:
    """Smallest t at which the forward-degree envelope drops to FORWARD_DEGREE_LEVEL."""
    coef = forward_degree_asymptote(1.0, params)
    return (coef / FORWARD_DEGREE_LEVEL) ** (1.0 / (3.0 - params.tau))
