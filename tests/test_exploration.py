from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

from sfperc.components import component_labels
from sfperc.errors import DomainError, RangeError
from sfperc.exploration import (
    ExplorationTrace,
    empirical_forward_degree,
    repeat_fraction,
    rescaled_walk,
    residual_largest_component,
    run_exploration,
    sup_distance_to_limit,
    write_trace_csv,
)
from sfperc.graphgen import draw_marks, sample_percolated_mnr_direct
from sfperc.params import LambdaRule, build_weights, make_schedule, model_params
from sfperc.theory import compute_constants, limit_curve_z


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
    # stack is empty exactly at step 0 and at closing steps
    closes = {e for _, e in trace.excursions}
    for l in range(trace.steps + 1):
        if l == 0 or l in closes:
            assert trace.potential_stack_size[l] == 0
        else:
            assert trace.potential_stack_size[l] >= 1


def test_trace_matches_stepwise_oracle():
    # replay the walk rules step by step from the recorded marks
    params, ws, sch, rng = multi_setup(seed=3)
    trace = run_exploration(ws, sch, 400, rng)
    wbar = sch.percolated_weights(ws)
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
    assert trace.open_excursion == (not excursions or excursions[-1][1] != trace.steps)

    fresh_flags = trace.new_mark.astype(int)
    counts = [int(fresh_flags[s - 1:e].sum()) for s, e in excursions]
    assert trace.excursion_vertex_counts().tolist() == counts


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
# rescaled views
# --------------------------------------------------------------------------


def test_rescaled_walk_values():
    params, ws, sch, rng = multi_setup(seed=9)
    trace = run_exploration(ws, sch, 500, rng)
    grid = [0.0, 0.5, 1.7]
    rows = rescaled_walk(trace, sch, grid)
    assert rows.shape == (3, 2)
    for (t, val), t_in in zip(rows, grid):
        step = math.floor(t_in * sch.beta_n)
        assert t == t_in
        assert val == trace.Z[step] / sch.beta_n
    with pytest.raises(RangeError):
        rescaled_walk(trace, sch, [500 / sch.beta_n + 1.0])
    with pytest.raises(DomainError):
        rescaled_walk(trace, sch, [-0.1])


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


def test_empirical_forward_degree_manual():
    params, ws, sch, rng = multi_setup(seed=13)
    trace = run_exploration(ws, sch, 250, rng)
    t = 150 / sch.beta_n
    got = empirical_forward_degree(trace, ws, sch, t)
    explored = trace.explored(150)
    mask = np.ones(ws.n, dtype=bool)
    mask[explored - 1] = False
    wbar = sch.pi_n * ws.weights
    expected = float(np.sum(wbar[mask] ** 2)) / float(np.sum(wbar[mask]))
    assert got == pytest.approx(expected, rel=1e-10)


def test_forward_degree_exhausted_denominator():
    # tiny graph, long walk: the explored set swallows every vertex
    params, ws, sch, rng = multi_setup(n=125, seed=2)
    trace = run_exploration(ws, sch, 4000, rng)
    assert trace.explored().size == ws.n
    with pytest.raises(DomainError):
        empirical_forward_degree(trace, ws, sch, 4000 / sch.beta_n)


def test_forward_degree_monotone_when_heavy_explored_first():
    # synthetic trace that explores vertices 1, 2, ... in weight order; the
    # size-biased mean over the unexplored tail can then only shrink
    params = model_params(2.5, 1.0, 400)
    ws = build_weights(params)
    sch = make_schedule(params, "multi", LambdaRule("constant", 2.0))
    m = ws.n - 1
    wbar = sch.pi_n * ws.weights
    steps = np.arange(1, m + 1)
    trace = ExplorationTrace(
        steps=m,
        marks=steps.copy(),
        new_mark=np.ones(m, dtype=bool),
        Z=np.zeros(m + 1, dtype=np.int64),
        S=np.concatenate([[0.0], np.cumsum(wbar[:m]) - steps]),
        repeats=np.zeros(m + 1, dtype=np.int64),
        potential_stack_size=np.ones(m + 1, dtype=np.int64),
        excursions=[],
        open_excursion=True,
    )
    nus = [empirical_forward_degree(trace, ws, sch, l / sch.beta_n)
           for l in range(0, m + 1, 21)]
    assert all(b <= a + 1e-12 for a, b in zip(nus, nus[1:]))


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


def component_size_of(n, g, vertex):
    label = component_labels(n, g.src, g.dst)
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
        graph_sizes[r] = component_size_of(ws.n, g, root)

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
