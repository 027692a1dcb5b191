from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfperc.errors import DomainError
from sfperc.params import LambdaRule, build_weights, make_schedule, model_params
from sfperc import theory as th

from oracles import branching_survival_mc, laplace_sum_exact, rho_a_of_u, weight_array

P = model_params(2.5, 1.0, 10**6)

# Reference values computed independently with mpmath at 30 significant digits
# (fixed-point solved on the singularity-free substituted integral).
RHO_STAR = {
    1.0: 0.89472667984779516,
    4.0: 0.79030647729682688,
    10.0: 0.70275200683790238,
    100.0: 0.46080274022698807,
    1000.0: 0.25983925357812516,
    10000.0: 0.13318261449745561,
}
ZETA_A = {
    1.0: 2.6841800395433855,
    4.0: 3.7636000003147948,
    10.0: 4.5420999060633013,
}
RHO_MEAN = {
    1.0: 0.77966240183708908,
    4.0: 0.600967943840746,
    10.0: 0.47224872826696698,
}


# --------------------------------------------------------------------------
# closed-form constants
# --------------------------------------------------------------------------


def test_reference_constants():
    c = th.compute_constants(P)
    assert c.kappa == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert c.zeta == pytest.approx(3.0 * math.pi, rel=1e-12)
    assert c.rho_star_inf == pytest.approx(math.pi, rel=1e-9)
    assert th.c_F_bar(P) == pytest.approx(1.0, rel=1e-12)


def test_size_biased_scale_identity():
    # c_F_bar = c_F**2 / (mu * (1 - alpha)) collapses to c_F at tau = 2.5
    p = model_params(2.5, 3.0, 10)
    assert th.c_F_bar(p) == pytest.approx(p.c_F, rel=1e-12)
    p = model_params(2.2, 1.0, 10)
    expected = p.c_F**2 / (p.mu * (1.0 - p.alpha))
    assert th.c_F_bar(p) == pytest.approx(expected, rel=1e-12)


@given(tau=st.floats(min_value=2.1, max_value=2.9), c=st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_two_zeta_forms_agree(tau, c):
    p = model_params(tau, c, 10)
    kappa = p.c_F ** (tau - 2.0) * math.gamma(3.0 - tau)
    direct = p.mu * kappa ** (1.0 / (3.0 - tau))
    alt = (
        math.gamma(3.0 - tau) ** (1.0 / (3.0 - tau))
        * p.c_F
        * th.c_F_bar(p) ** ((tau - 2.0) / (3.0 - tau))
        * (tau - 1.0)
        / (tau - 2.0)
    )
    assert direct == pytest.approx(alt, rel=1e-10)
    assert th.compute_constants(p).zeta == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("tau, C", [(2.995, 1.0), (2.98883, 1e3)],
                         ids=["power-overflows", "product-overflows"])
def test_constants_past_float_range_are_refused(tau, C):
    # near tau = 3 a power raises OverflowError, or finite powers multiply to inf
    with pytest.raises(DomainError, match=f"tau={tau} puts the limit constants past float range"):
        th.compute_constants(model_params(tau, C, 10))


# --------------------------------------------------------------------------
# limit drift curve
# --------------------------------------------------------------------------


def test_limit_curve_values():
    c = th.compute_constants(P)
    assert th.limit_curve_z(0.0, P, c) == 0.0
    assert th.limit_curve_z(1.0, P, c) == pytest.approx(2.0699801238394655, rel=1e-12)
    # the drift vanishes exactly at zeta
    assert abs(th.limit_curve_z(c.zeta, P, c)) < 1e-9
    with pytest.raises(DomainError):
        th.limit_curve_z(-0.1, P, c)


@pytest.mark.parametrize("tau", [2.1, 2.5, 2.9])
def test_limit_curve_on_arrays(tau):
    p = model_params(tau, 1.0, 1000)
    c = th.compute_constants(p)
    t = np.linspace(0.0, 2.0 * c.zeta, 1001)
    z = th.limit_curve_z(t, p, c)
    scalar = np.array([th.limit_curve_z(x, p, c) for x in t.tolist()])
    assert z[0] == scalar[0] == 0.0
    # numpy's array power and the C library's pow may round the last bit
    # differently, so the array form matches the scalar one to a few ulp
    np.testing.assert_allclose(z, scalar, rtol=0, atol=4 * np.spacing(2.0 * c.zeta))
    with pytest.raises(DomainError):
        th.limit_curve_z(np.array([0.5, -1e-12, 1.0]), p, c)


def test_limit_curve_max_interior_and_boundary():
    c = th.compute_constants(P)
    # interior maximizer at 3*pi/4 with value 3*pi/4 (tau=2.5, C=1)
    assert th.limit_curve_max(P, c, 1.5 * c.zeta) == pytest.approx(2.3561944901923449, rel=1e-12)
    # short horizons are boundary-limited: z increases up to t*
    assert th.limit_curve_max(P, c, 1.0) == pytest.approx(th.limit_curve_z(1.0, P, c), rel=1e-12)
    with pytest.raises(DomainError):
        th.limit_curve_max(P, c, 0.0)


def test_laplace_sum_exact_by_hand():
    w = np.array([2.0, 1.0])
    t, beta = 0.7, 3.0
    expected = sum(
        (w / 3.0) * (1.0 - (1.0 - w / 3.0) ** (t * beta)) for w in (2.0, 1.0)
    )
    assert laplace_sum_exact(w, t, beta) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(DomainError):
        laplace_sum_exact(w, -1.0, beta)


def test_laplace_sum_approaches_power_asymptote():
    # exact sum vs kappa * (t*beta_n/(mu*n))**(tau-2); convergence is slow
    # (still ~20% off at n=1e6) but the gap shrinks steadily with n
    frozen = {10**4: 0.08229276944027666,
              10**5: 0.0521121229331481,
              10**6: 0.03248324726583377}
    rule = LambdaRule("power", 0.1)
    gaps = []
    for n, value in frozen.items():
        params = model_params(2.5, 1.0, n)
        ws = build_weights(params)
        sch = make_schedule(params, "multi", rule)
        c = th.compute_constants(params)
        exact = laplace_sum_exact(weight_array(ws), 1.0, sch.beta_n)
        assert exact == pytest.approx(value, rel=1e-12)
        asym = c.kappa * (sch.beta_n / (n * params.mu)) ** (params.tau - 2.0)
        gaps.append(abs(exact / asym - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.25


# --------------------------------------------------------------------------
# truncated-core fixed point and quadratures
# --------------------------------------------------------------------------


@pytest.mark.parametrize("a,expected", sorted(RHO_STAR.items()))
def test_fixed_point_against_oracle(a, expected):
    assert th.rho_star_fixed_point(a, P) == pytest.approx(expected, rel=1e-9)


def test_fixed_point_satisfies_survival_map():
    for a in (1.0, 10.0):
        rho = th.rho_star_fixed_point(a, P)
        assert th.survival_map(rho, a, P) == pytest.approx(rho, rel=1e-9)


def test_survival_map_monotone_in_rho():
    lo = th.survival_map(0.2, 1.0, P)
    hi = th.survival_map(0.8, 1.0, P)
    assert 0.0 < lo < hi
    assert th.survival_map(0.0, 1.0, P) == pytest.approx(0.0, abs=1e-12)


def test_survival_integrand_limits():
    # 1 - exp(-scale * u**(-alpha)) bit for bit, at u = y or u = y**inv_p, and its
    # limit 1 at u = 0, where y**inv_p underflows to 0, and where u**(-alpha) overflows
    g, h = th._survival(2.0, 0.999), th._survival(2.0, 2.0 / 3.0, 3.0)
    for y in (1e-3, 0.3, 1.0, 7.0):
        assert g(y) == -math.expm1(-2.0 * y ** (-0.999))
        assert h(y) == -math.expm1(-2.0 * (y**3.0) ** (-2.0 / 3.0))
    assert g(0.0) == h(0.0) == 1.0
    assert g(5e-324) == 1.0
    assert th._survival(2.0, 0.999, 1001.0)(0.25) == 1.0


def test_scaled_fixed_point_increases_toward_limit():
    scaled = [a ** (1.0 / 3.0) * th.rho_star_fixed_point(a, P) for a in sorted(RHO_STAR)]
    assert all(x < y for x, y in zip(scaled, scaled[1:]))
    assert all(x < math.pi for x in scaled)


@pytest.mark.parametrize("a,expected", sorted(ZETA_A.items()))
def test_zeta_a_against_oracle(a, expected):
    assert th.core_limit(a, P).zeta_a == pytest.approx(expected, rel=1e-9)


def test_zeta_a_fixed_point_identity():
    # zeta_a = c_F * integral_0^a u**(-alpha) rho_a(u) du, and survival_map
    # takes the same integral: it is a**(1-alpha)/(1-alpha) * Phi(rho_star_a).
    # tau = 2.2, C = 2 moves c_F and alpha off their tau = 2.5, C = 1 values.
    for p in (P, model_params(2.2, 2.0, 10)):
        for a in (1.0, 4.0, 25.0):
            rho = th.rho_star_fixed_point(a, p)
            integral = a ** (1.0 - p.alpha) / (1.0 - p.alpha) * th.survival_map(rho, a, p)
            assert th.core_limit(a, p).zeta_a == pytest.approx(p.c_F * integral, rel=1e-9)


def test_zeta_a_increasing_and_below_zeta():
    zs = [th.core_limit(a, P).zeta_a for a in (1.0, 4.0, 10.0, 100.0)]
    assert all(x < y for x, y in zip(zs, zs[1:]))
    assert zs[-1] < 3.0 * math.pi


@pytest.mark.parametrize("a,expected", sorted(RHO_MEAN.items()))
def test_rho_a_mean_against_oracle(a, expected):
    assert th.core_limit(a, P).rho_a == pytest.approx(expected, rel=1e-9)


def test_rho_a_of_u_formula():
    a = 4.0
    rho = th.rho_star_fixed_point(a, P)
    u = 1.3
    expected = 1.0 - math.exp(-th.c_F_bar(P) * a ** (1.0 / 3.0) * u ** (-2.0 / 3.0) * rho)
    assert rho_a_of_u(u, a, rho, P) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DomainError):
        rho_a_of_u(5.0, a, rho, P)


def test_core_limit_composes():
    lim = th.core_limit(1.0, P)
    assert lim.rho_star_a == pytest.approx(RHO_STAR[1.0], rel=1e-9)
    assert lim.rho_a == pytest.approx(RHO_MEAN[1.0], rel=1e-9)
    assert lim.zeta_a == pytest.approx(ZETA_A[1.0], rel=1e-9)


def test_domain_checks_on_fixed_point_inputs():
    with pytest.raises(DomainError):
        th.rho_star_fixed_point(0.0, P)
    with pytest.raises(DomainError):
        th.core_limit(-1.0, P)


# --------------------------------------------------------------------------
# operator norm, forward-degree envelope
# --------------------------------------------------------------------------


def test_truncated_operator_norm_closed_form():
    # tau=2.5, C=1: (c_F^2/mu) * int_eps^a v**(-4/3) dv = eps**(-1/3) - a**(-1/3)
    for eps, a in [(0.1, 1.0), (0.01, 1.0), (0.5, 10.0)]:
        expected = eps ** (-1.0 / 3.0) - a ** (-1.0 / 3.0)
        assert th.truncated_operator_norm(eps, a, P) == pytest.approx(expected, rel=1e-10)


def test_truncated_operator_norm_diverges():
    norms = [th.truncated_operator_norm(eps, 1.0, P) for eps in (0.1, 0.01, 0.001)]
    assert norms[0] < norms[1] < norms[2]
    with pytest.raises(DomainError):
        th.truncated_operator_norm(0.0, 1.0, P)
    with pytest.raises(DomainError):
        th.truncated_operator_norm(2.0, 1.0, P)


def test_forward_degree_envelope():
    assert th.forward_degree_asymptote(1.0, P) == pytest.approx(1.5349900619197327, rel=1e-12)
    # decays like t**(-(3-tau)) = t**(-1/2)
    assert th.forward_degree_asymptote(4.0, P) == pytest.approx(
        th.forward_degree_asymptote(1.0, P) / 2.0, rel=1e-12
    )


def test_horizon_for_forward_degree():
    assert th.horizon_for_forward_degree(P) == pytest.approx(37.699111843077519, rel=1e-12)
    assert th.forward_degree_asymptote(th.horizon_for_forward_degree(P), P) == pytest.approx(
        th.FORWARD_DEGREE_LEVEL, rel=1e-10
    )
    # the envelope inverts in closed form at any other level
    t = (th.forward_degree_asymptote(1.0, P) / 0.1) ** (1.0 / (3.0 - P.tau))
    assert th.forward_degree_asymptote(t, P) == pytest.approx(0.1, rel=1e-10)


# --------------------------------------------------------------------------
# branching-process Monte Carlo oracle
# --------------------------------------------------------------------------


def test_branching_mc_input_checks():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        branching_survival_mc(2.0, 1.0, P, rng=rng)
    with pytest.raises(DomainError):
        branching_survival_mc(0.5, 1.0, P, replicas=10, rng=rng)


def test_branching_mc_is_seed_deterministic():
    a = 1.0
    est1 = branching_survival_mc(0.5, a, P, replicas=2000, rng=np.random.default_rng(11))
    est2 = branching_survival_mc(0.5, a, P, replicas=2000, rng=np.random.default_rng(11))
    assert est1 == est2


def test_branching_mc_matches_survival_probability():
    a, u = 1.0, 1.0
    rho = rho_a_of_u(u, a, th.rho_star_fixed_point(a, P), P)
    est = branching_survival_mc(u, a, P, replicas=10_000, rng=np.random.default_rng(5))
    se = math.sqrt(rho * (1.0 - rho) / 10_000)
    assert abs(est - rho) < 3.0 * se


def test_branching_mc_handles_tiny_types():
    # tiny root types carry enormous offspring means; the mean cap must keep
    # this bounded and call it survival
    est = branching_survival_mc(1e-12, 1.0, P, replicas=1000, rng=np.random.default_rng(3))
    assert est == 1.0
