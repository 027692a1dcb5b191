from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfperc.errors import DomainError
from sfperc.params import (
    _CHUNK,
    _MAX_N,
    LambdaRule,
    WeightSequence,
    build_weights,
    core_prefix_size,
    derive_constants,
    make_schedule,
    model_params,
)

from oracles import weight_of

TAUS = st.floats(min_value=2.05, max_value=2.95)
CS = st.floats(min_value=0.1, max_value=10.0)


def test_derived_constants_at_reference_point():
    d = derive_constants(2.5, 1.0)
    assert d["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert d["eta"] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert d["eta_s"] == pytest.approx(0.25, rel=1e-15)
    assert d["c_F"] == pytest.approx(1.0, rel=1e-15)
    assert d["mu"] == pytest.approx(3.0, rel=1e-15)


def test_weight_scale_uses_inverse_tail_exponent():
    # c_F = C**(1/(tau-1)), so C=4 at tau=2.5 gives 4**(2/3)
    d = derive_constants(2.5, 4.0)
    assert d["c_F"] == pytest.approx(4.0 ** (2.0 / 3.0), rel=1e-14)
    assert d["mu"] == pytest.approx(3.0 * 4.0 ** (2.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("tau", [1.5, 2.0, 3.0, 3.5])
def test_tau_outside_open_interval_rejected(tau):
    with pytest.raises(DomainError):
        derive_constants(tau, 1.0)


def test_scale_past_float_range_rejected():
    # c_F = C**(1/(tau-1)) fits a float, but c_F**2, in every pair rate, must too
    assert math.isfinite(derive_constants(2.5, 1e200)["c_F"] ** 2)
    for tau, C in ((2.5, 1e300), (2.9, 1e300), (2.1, 1e170)):
        with pytest.raises(DomainError, match="past float range"):
            derive_constants(tau, C)


def test_nonpositive_scale_rejected():
    with pytest.raises(DomainError):
        derive_constants(2.5, 0.0)
    with pytest.raises(DomainError):
        derive_constants(2.5, -1.0)


@given(tau=TAUS, c=CS)
@settings(max_examples=60, deadline=None)
def test_exponent_relations(tau, c):
    d = derive_constants(tau, c)
    assert 0.5 < d["alpha"] < 1.0
    assert d["eta"] == pytest.approx((3.0 - tau) / (tau - 1.0), rel=1e-12)
    assert d["eta_s"] == pytest.approx((3.0 - tau) / 2.0, rel=1e-12)
    # single-edge window is the wider one: eta_s < eta iff tau < 2... always
    assert d["eta_s"] / d["eta"] == pytest.approx((tau - 1.0) / 2.0, rel=1e-10)
    assert d["mu"] > 0.0


def test_build_weights_power_law():
    params = model_params(2.5, 1.0, 100)
    ws = build_weights(params)
    assert ws.n == 100
    assert weight_of(ws, 100) == pytest.approx(1.0, rel=1e-14)
    assert weight_of(ws, 1) == pytest.approx(100.0 ** (2.0 / 3.0), rel=1e-14)
    w = ws.weight(np.arange(1, 101))
    assert np.all(np.diff(w) < 0.0)
    assert ws.ell_n == pytest.approx(float(w.sum()), rel=1e-14)


@pytest.mark.parametrize("tau", [2.2, 2.5, 2.9])
@pytest.mark.parametrize("n", [1, 7, 10_000, 1_000_003])
def test_build_weights_bitwise(tau, n):
    # weight(ids) equals the plain expression at every id, across chunks
    params = model_params(tau, 0.7, n)
    ws = build_weights(params)
    i = np.arange(1, n + 1)
    w = params.c_F * (params.n / i) ** params.alpha
    assert ws.weight(i).tobytes() == w.tobytes()
    picks = np.array([n, 1, (n + 1) // 2, min(n, _CHUNK + 1), min(n, 3 * _CHUNK)])
    assert ws.weight(picks).tobytes() == w[picks - 1].tobytes()



@pytest.mark.parametrize("tau", [2.2, 2.5, 2.9])
@pytest.mark.parametrize("n", [10**4, 1_000_003])
def test_build_weights_ell_n_is_accurate(tau, n):
    # the accuracy any form of ell_n must keep: within 1e-12 of the correctly
    # rounded sum of the weights (a chunked cumsum was up to 534 ulp, 6.2e-14, off here)
    ws = build_weights(model_params(tau, 0.7, n))
    exact = math.fsum(ws.weight(np.arange(1, n + 1)).tolist())
    assert abs(ws.ell_n - exact) <= 1e-12 * exact


@pytest.mark.parametrize("tau", [2.01, 2.5, 2.99])
@pytest.mark.parametrize("n", [1, 7, _CHUNK, _CHUNK + 1, 10**6, 10**9, _MAX_N])
def test_build_weights_ell_n_within_4_ulp(tau, n):
    # the exact sum c_F * n**alpha * sum_{i<=n} i**-alpha, from Hurwitz zeta
    # values at 40 digits: one exact chunk plus the closed tail stay within 4 ulp
    params = model_params(tau, 0.7, n)
    with mpmath.workdps(40):
        alpha = mpmath.mpf(params.alpha)
        exact = float(mpmath.mpf(params.c_F) * mpmath.mpf(n) ** alpha
                      * (mpmath.zeta(alpha) - mpmath.zeta(alpha, n + 1)))
    assert abs(build_weights(params).ell_n - exact) <= 4 * math.ulp(exact)


def test_build_weights_evaluates_at_most_one_chunk(monkeypatch):
    # ell_n at the largest n reads the weights of one chunk of ids, no more
    evaluated = []
    weight = WeightSequence.weight

    def counting(self, ids):
        evaluated.append(ids.size)
        return weight(self, ids)

    monkeypatch.setattr(WeightSequence, "weight", counting)
    assert build_weights(model_params(2.5, 0.7, _MAX_N)).ell_n > 0.0
    assert sum(evaluated) <= _CHUNK


def test_build_weights_peak_is_one_chunk():
    # ell_n sums one chunk of weights: the peak is the chunk's ids and its
    # weights (8 bytes an id each) plus numpy's buffers, whatever n is, and
    # nothing n-length is held
    n = 2_000_000
    tracemalloc.start()
    try:
        ws = build_weights(model_params(2.5, 1.0, n))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ws.n == n
    assert held < 4096
    assert peak <= 4 * 8 * _CHUNK


def test_n_past_int64_pair_keys_rejected():
    # pairs are keyed as i*(n+1) + j, at most (n+1)**2 - 1; checked without
    # building anything
    largest = 3_037_000_498
    assert (largest + 1) ** 2 - 1 <= 2**63 - 1 < (largest + 2) ** 2 - 1
    assert model_params(2.5, 1.0, largest).n == largest
    with pytest.raises(DomainError):
        model_params(2.5, 1.0, largest + 1)


def test_weight_of_range_checked():
    ws = build_weights(model_params(2.5, 1.0, 10))
    with pytest.raises(DomainError):
        weight_of(ws, 0)
    with pytest.raises(DomainError):
        weight_of(ws, 11)


@pytest.mark.parametrize("n", [10**6, _MAX_N])
def test_pair_weight_is_the_product_of_weights(n):
    # one power of n^2 / (i*j) agrees with w_i * w_j; i*j stays in int64 up to n
    c = derive_constants(2.5, 1.0)
    ws = WeightSequence(n=n, alpha=c["alpha"], c_F=c["c_F"], ell_n=1.0)  # ell_n is not read
    rng = np.random.default_rng(3)
    i = np.concatenate([[1, 1, n], rng.integers(1, n + 1, 10_000)])
    j = np.concatenate([[1, n, n], rng.integers(1, n + 1, 10_000)])
    np.testing.assert_allclose(ws.pair_weight(i * j), ws.weight(i) * ws.weight(j), rtol=1e-14)


def test_lambda_rules_evaluate():
    assert LambdaRule("constant", 7.0).evaluate(10**6) == 7.0
    assert LambdaRule("power", 0.1).evaluate(10**5) == pytest.approx(10.0 ** 0.5)
    assert LambdaRule("logpower", 2.0).evaluate(math.e ** 3) == pytest.approx(9.0, rel=1e-6)


def test_lambda_rule_validation():
    with pytest.raises(DomainError):
        LambdaRule("cubic", 1.0)
    with pytest.raises(DomainError, match="n must be at least 1"):
        LambdaRule("constant", 1.0).evaluate(0)
    with pytest.raises(DomainError):
        LambdaRule("constant", 0.5)
    with pytest.raises(DomainError):
        LambdaRule("power", -0.1)
    with pytest.raises(DomainError):
        LambdaRule("power", math.inf)


def test_lambda_rule_value_is_a_real_stored_as_float():
    # ("constant", True) used to pass, and its to_dict() was refused by from_dict
    for kind, bad in (("constant", True), ("power", "0.1"), ("power", False),
                      ("constant", None), ("power", 1j)):
        with pytest.raises(DomainError):
            LambdaRule(kind, bad)
    with pytest.raises(DomainError):
        LambdaRule.from_dict({"kind": "constant", "value": True})
    for value in (10, np.int64(10), np.float32(2.5)):
        rule = LambdaRule("constant", value)
        assert type(rule.value) is float and rule.value == float(value)
        assert LambdaRule.from_dict(rule.to_dict()) == rule
        assert type(rule.to_dict()["value"]) is float


def test_lambda_rule_dict_round_trip():
    rule = LambdaRule("power", 0.1)
    assert LambdaRule.from_dict(rule.to_dict()) == rule
    with pytest.raises(DomainError):
        LambdaRule.from_dict({"kind": "power", "value": 0.1, "x": 1})
    with pytest.raises(DomainError):
        LambdaRule.from_dict({"kind": "power"})


# tau across the range the acceptance criteria sample
_SCHEDULE_TAUS = (2.05, 2.2, 2.5, 2.8, 2.95)


def test_multi_schedule_closed_forms():
    n = 10**6
    for tau in _SCHEDULE_TAUS:
        eta = (3.0 - tau) / (tau - 1.0)
        # lambda_n halfway into the window in log scale
        sch = make_schedule(model_params(tau, 1.0, n), "multi", LambdaRule("power", eta / 2))
        lam = n ** (eta / 2)
        assert sch.lambda_n == pytest.approx(lam, rel=1e-12), tau
        assert sch.pi_n == pytest.approx(lam * n ** -eta, rel=1e-12), tau
        assert sch.beta_n == pytest.approx(n * sch.pi_n ** (1.0 / (3.0 - tau)), rel=1e-12), tau
        # the same scale in (n, lambda_n)
        assert sch.beta_n == pytest.approx(
            n ** (1.0 - eta / (3.0 - tau)) * lam ** (1.0 / (3.0 - tau)), rel=1e-12), tau
        assert sch.N_n is None
    sch = make_schedule(model_params(2.5, 1.0, n), "multi", LambdaRule("power", 0.1))
    assert sch.pi_n == pytest.approx(n ** 0.1 * n ** (-1.0 / 3.0), rel=1e-12)
    assert sch.beta_n == pytest.approx(n * sch.pi_n ** 2.0, rel=1e-12)


def test_single_schedule_closed_forms():
    n = 10**6
    for tau in _SCHEDULE_TAUS:
        eta_s = (3.0 - tau) / 2.0
        lam = n ** (eta_s / 2)
        sch = make_schedule(model_params(tau, 1.0, n), "single", LambdaRule("constant", lam))
        assert sch.pi_n == pytest.approx(lam * n ** -eta_s, rel=1e-12), tau
        assert sch.beta_n == pytest.approx(n * sch.pi_n ** (1.0 / (3.0 - tau)), rel=1e-12), tau
        assert sch.beta_n == pytest.approx(
            n ** (1.0 - eta_s / (3.0 - tau)) * lam ** (1.0 / (3.0 - tau)), rel=1e-12), tau
        assert sch.N_n == pytest.approx(
            n * sch.pi_n ** ((tau - 1.0) / (3.0 - tau)), rel=1e-12), tau
    sch = make_schedule(model_params(2.5, 1.0, n), "single", LambdaRule("constant", 10.0))
    assert sch.pi_n == pytest.approx(10.0 * n ** -0.25, rel=1e-12)
    assert sch.beta_n == pytest.approx(n * sch.pi_n ** 2.0, rel=1e-12)
    assert sch.N_n == pytest.approx(n * sch.pi_n ** 3.0, rel=1e-12)


def test_infeasible_schedules_raise():
    # pi_n = 1 exactly at n = lambda**4 in single mode
    with pytest.raises(DomainError, match=r"pi_n=1 outside \(0, 1\)"):
        make_schedule(model_params(2.5, 1.0, 10**4), "single", LambdaRule("constant", 10.0))
    # logpower rules drop below 1 for small n, leaving the subcritical side
    with pytest.raises(DomainError, match="lambda_n=0.693147 < 1 at n=2"):
        make_schedule(model_params(2.5, 1.0, 2), "multi", LambdaRule("logpower", 1.0))


def test_bad_mode_rejected():
    with pytest.raises(DomainError):
        make_schedule(model_params(2.5, 1.0, 100), "both", LambdaRule("power", 0.1))


def test_core_prefix_size():
    sch = make_schedule(model_params(2.5, 1.0, 10**6), "single", LambdaRule("constant", 10.0))
    assert core_prefix_size(sch, 1.0) == math.floor(sch.N_n)
    assert core_prefix_size(sch, 0.5) == math.floor(0.5 * sch.N_n)
    with pytest.raises(DomainError, match="is empty"):
        core_prefix_size(sch, 1e-9)
    # a product a * N_n past n is refused, an infinite one included
    for a in (1e9, 1e308):
        with pytest.raises(DomainError, match="exceeds n=1000000"):
            core_prefix_size(sch, a)


def test_core_prefix_needs_single_mode():
    sch = make_schedule(model_params(2.5, 1.0, 10**6), "multi", LambdaRule("power", 0.1))
    with pytest.raises(DomainError):
        core_prefix_size(sch, 1.0)


def test_weight_at_core_scale_approaches_power_law():
    # w_ceil(N_n*u) / (sqrt(n) * lambda**(-1/(3-tau))) -> c_F * u**-alpha;
    # the only finite-n error is the index rounding, so the worst relative
    # deviation over the u-grid shrinks as N_n grows
    rule = LambdaRule("constant", 10.0)
    worst = []
    for n in (10**5, 10**6, 10**7):
        params = model_params(2.5, 1.0, n)
        ws = build_weights(params)
        sch = make_schedule(params, "single", rule)
        scale = math.sqrt(n) * sch.lambda_n ** (-1.0 / (3.0 - params.tau))
        devs = []
        for u in (0.5, 1.0, 2.0):
            got = weight_of(ws, math.ceil(sch.N_n * u)) / scale
            devs.append(abs(got / (params.c_F * u ** -params.alpha) - 1.0))
        assert max(devs) < 1e-4
        worst.append(max(devs))
    assert worst[0] > worst[1] > worst[2]


@given(tau=TAUS, c=CS, n=st.integers(min_value=10, max_value=2000))
@settings(max_examples=40, deadline=None)
def test_weight_sequence_properties(tau, c, n):
    params = model_params(tau, c, n)
    ws = build_weights(params)
    # w_i = c_F * (n/i)**alpha, so extremes pin the whole sequence
    assert weight_of(ws, n) == pytest.approx(params.c_F, rel=1e-12)
    assert weight_of(ws, 1) == pytest.approx(params.c_F * n ** params.alpha, rel=1e-12)
    assert ws.ell_n > 0.0
    # ell_n/(mu*n) -> 1; integral bracket of sum(i**-alpha) gives exact envelope
    ratio = ws.ell_n / (params.mu * n)
    assert 1.0 - n ** (params.alpha - 1.0) - 1e-12 < ratio <= 1.0
