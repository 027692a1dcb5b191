from __future__ import annotations

import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, ks_2samp

from sfperc.components import component_sizes
from sfperc.errors import DomainError, RangeError
from sfperc.exploration import (
    _first_draws,
    repeat_fraction,
    residual_largest_component,
    run_exploration,
    sup_distance_to_limit,
    write_trace_csv,
)
from sfperc.graphgen import draw_marks, sample_percolated_mnr_direct
from sfperc.params import LambdaRule, build_weights, make_schedule, model_params
from sfperc.theory import compute_constants, limit_curve_z

from oracles import labels_from_summary


def multi_setup(n=2000, seed=0):
    params = model_params(2.5, 1.0, n)
    ws = build_weights(params)
    sch = make_schedule(params, "multi", LambdaRule("power", 0.1))
    rng = np.random.default_rng(seed)
    return params, ws, sch, rng


# --------------------------------------------------------------------------
# trace structure
# --------------------------------------------------------------------------


def test_trace_invariants():
    params, ws, sch, rng = multi_setup()
    trace = run_exploration(ws, sch, 600, rng)
    assert trace.steps == 600
    assert trace.Z[0] == 0 and trace.S[0] == 0.0 and trace.repeats[0] == 0
    assert np.all(np.diff(trace.Z) >= -1)
    # |V_l| = l - R(l) at every step
    for l in (0, 1, 57, 600):
        assert trace.explored(l).size == l - trace.repeats[l]
        assert trace.explored(l).tolist() == sorted(set(trace.marks[:l].tolist()))


def test_trace_matches_stepwise_oracle():
    # replay the walk rules step by step from the recorded marks
    params, ws, sch, rng = multi_setup(seed=3)
    trace = run_exploration(ws, sch, 400, rng)
    wbar = sch.pi_n * ws.weights
    X = np.diff(trace.Z) + 1

    seen: set[int] = set()
    s_val = 0.0
    repeats = 0
    run_min = 0
    start = 1
    excursions = []
    for l in range(1, trace.steps + 1):
        m = int(trace.marks[l - 1])
        fresh = m not in seen
        seen.add(m)
        assert bool(trace.new_mark[l - 1]) == fresh
        if fresh:
            s_val += wbar[m - 1]
        else:
            repeats += 1
            assert X[l - 1] == 0
        assert trace.repeats[l] == repeats
        assert trace.S[l] == pytest.approx(s_val - l, abs=1e-9)
        if trace.Z[l] < run_min:
            run_min = int(trace.Z[l])
            excursions.append((start, l))
            start = l + 1
    assert trace.excursions == excursions


@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), min_size=1, max_size=60))))
@example((1, [1]))                      # one step
@example((5, [3] * 20))                 # every draw the same mark
@example((30, list(range(30, 0, -1))))  # every draw a distinct mark
@settings(max_examples=200, deadline=None)
def test_first_draws_match_unique_oracle(case):
    n, draws = case
    marks = np.array(draws, dtype=np.int64)
    oracle = np.zeros(marks.size, dtype=bool)
    oracle[np.unique(marks, return_index=True)[1]] = True
    assert np.array_equal(_first_draws(marks, n), oracle)


def test_first_draw_keys_must_fit_int64():
    # keys are mark * m + step < m * (n + 1); m = 3 steps here
    marks = np.array([2, 1, 2], dtype=np.int64)
    largest = np.iinfo(np.int64).max // 3 - 1
    assert _first_draws(marks, largest).tolist() == [True, True, False]
    with pytest.raises(DomainError):
        _first_draws(marks, largest + 1)
    # run_exploration refuses before it draws a single mark
    params, ws, sch, rng = multi_setup()
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        run_exploration(SimpleNamespace(n=largest + 1), sch, 3, rng)
    assert rng.bit_generator.state == state


def test_exploration_rejects_bad_inputs():
    params, ws, sch, rng = multi_setup()
    single = make_schedule(params, "single", LambdaRule("power", 0.1))
    with pytest.raises(DomainError):
        run_exploration(ws, single, 10, rng)
    with pytest.raises(DomainError):
        run_exploration(ws, sch, 0, rng)


def test_explored_range_checked():
    params, ws, sch, rng = multi_setup()
    trace = run_exploration(ws, sch, 50, rng)
    with pytest.raises(RangeError):
        trace.explored(51)
    with pytest.raises(RangeError):
        trace.explored(-1)


# --------------------------------------------------------------------------
# rescaled statistics
# --------------------------------------------------------------------------


def test_sup_distance_matches_manual():
    params, ws, sch, rng = multi_setup(seed=5)
    constants = compute_constants(params)
    trace = run_exploration(ws, sch, 400, rng)
    T = 300 / sch.beta_n
    got = sup_distance_to_limit(trace, sch, constants, T)
    best = 0.0
    for l in range(math.floor(T * sch.beta_n) + 1):
        t = l / sch.beta_n
        z = limit_curve_z(t, params, constants)
        best = max(best, abs(trace.Z[l] / sch.beta_n - z))
    assert got == pytest.approx(best, rel=1e-12)


def test_repeat_fraction_manual():
    params, ws, sch, rng = multi_setup(seed=11)
    trace = run_exploration(ws, sch, 300, rng)
    t = 200 / sch.beta_n
    step = math.floor(t * sch.beta_n)
    assert repeat_fraction(trace, sch, t) == trace.repeats[step] / sch.beta_n
    with pytest.raises(RangeError):
        repeat_fraction(trace, sch, 300 / sch.beta_n + 1.0)
    with pytest.raises(DomainError):
        repeat_fraction(trace, sch, -0.1)


def test_mark_draws_match_weight_distribution():
    # chi-squared on 1e6 size-biased draws against w_i/ell_n, n=100
    params = model_params(2.5, 1.0, 100)
    ws = build_weights(params)
    draws = 1_000_000
    marks = draw_marks(ws, draws, np.random.default_rng(0))
    observed = np.bincount(marks, minlength=ws.n + 1)[1:]
    expected = draws * ws.weights / ws.ell_n
    assert expected.min() > 100.0
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, ws.n - 1) > 0.01


def test_fresh_probability_negative_correlation():
    # P(i and j both unseen after l draws) <= product of the marginals;
    # deterministic inequality, checked exactly on every pair
    params = model_params(2.5, 1.0, 50)
    ws = build_weights(params)
    q = ws.weights / ws.ell_n
    i, j = np.triu_indices(ws.n, k=1)
    for l in (1, 2, 5, 10, 100, 1000):
        lhs = (1.0 - (q[i] + q[j])) ** l
        rhs = (1.0 - q[i]) ** l * (1.0 - q[j]) ** l
        assert np.all(lhs <= rhs)


# --------------------------------------------------------------------------
# residual components
# --------------------------------------------------------------------------


def test_residual_when_nothing_explored():
    params, ws, sch, rng = multi_setup(seed=21)
    size = residual_largest_component(ws, sch, 0.0, rng)
    assert size >= 1


def test_residual_when_everything_explored():
    params, ws, sch, _ = multi_setup(n=125)
    t = 4000 / sch.beta_n
    assert residual_largest_component(ws, sch, t, np.random.default_rng(2)) == 0


def test_residual_moderate_time():
    params, ws, sch, rng = multi_setup(seed=31)
    size = residual_largest_component(ws, sch, 1.0, rng)
    assert 0 <= size < ws.n


# --------------------------------------------------------------------------
# the walk explores the percolated graph: distributional identity
# --------------------------------------------------------------------------


def component_size_of(g, vertex):
    label = labels_from_summary(component_sizes(g))
    return int(np.count_nonzero(label[1:] == label[vertex]))


def test_first_excursion_matches_size_biased_component():
    # fresh marks of the first closed excursion ~ component of a size-biased
    # root in the percolated multigraph; compare the two pipelines by K-S
    params = model_params(2.5, 1.0, 200)
    ws = build_weights(params)
    sch = make_schedule(params, "multi", LambdaRule("constant", 5.26))
    reps = 3000

    rng = np.random.default_rng(101)
    walk_sizes = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        trace = run_exploration(ws, sch, 3000, rng)
        assert trace.excursions, "first excursion never closed"
        s, e = trace.excursions[0]
        walk_sizes[r] = int(trace.new_mark[s - 1:e].sum())

    rng = np.random.default_rng(202)
    graph_sizes = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        g = sample_percolated_mnr_direct(ws, sch.pi_n, rng)
        root = int(draw_marks(ws, 1, rng)[0])
        graph_sizes[r] = component_size_of(g, root)

    assert ks_2samp(walk_sizes, graph_sizes).pvalue > 0.01


# --------------------------------------------------------------------------
# CSV export
# --------------------------------------------------------------------------


def test_write_trace_csv_round_trip(tmp_path):
    params, ws, sch, rng = multi_setup(seed=7)
    trace = run_exploration(ws, sch, 40, rng)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == trace.steps
    for row in rows:
        l = int(row["step"])
        assert int(row["Z"]) == trace.Z[l]
        assert float(row["S"]) == trace.S[l]
        assert int(row["repeats"]) == trace.repeats[l]
        assert int(row["new_mark"]) == int(trace.new_mark[l - 1])
