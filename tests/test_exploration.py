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
from sfperc.errors import DomainError
from sfperc.experiments import write_trace_csv
from sfperc.exploration import (
    _MAX_STEPS,
    ExplorationTrace,
    _first_draws,
    check_walk,
    repeat_fraction,
    residual_largest_component,
    run_exploration,
    sup_distance_to_limit,
)
from sfperc.graphgen import draw_marks, sample_percolated_mnr_direct
from sfperc.params import (
    _MAX_N,
    LambdaRule,
    WeightSequence,
    build_weights,
    make_schedule,
    model_params,
)
from sfperc.theory import compute_constants, limit_curve_z

from oracles import as_tuples, excursions, explored, labels_from_summary, weight_array, weight_of


def multi_setup(n=2000, seed=0):
    params = model_params(2.5, 1.0, n)
    ws = build_weights(params)
    sch = make_schedule(params, "multi", LambdaRule("power", 0.1))
    rng = np.random.default_rng(seed)
    return params, ws, sch, rng


def forbid_columns(monkeypatch):
    """Make any later read of a trace's S or repeats column fail."""
    def built(trace):
        raise AssertionError("a trace column was built")

    for name in ("S", "repeats"):
        monkeypatch.setattr(ExplorationTrace, name, property(built))


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
        assert explored(trace, l).size == l - trace.repeats[l]
        assert explored(trace, l).tolist() == sorted(set(trace.marks[:l].tolist()))


def test_trace_matches_stepwise_oracle():
    # replay the walk rules step by step from the recorded marks
    params, ws, sch, rng = multi_setup(seed=3)
    trace = run_exploration(ws, sch, 400, rng)
    wbar = sch.pi_n * weight_array(ws)
    X = np.diff(trace.Z) + 1

    seen: set[int] = set()
    s_val = 0.0
    repeats = 0
    run_min = 0
    start = 1
    want = []
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
            want.append((start, l))
            start = l + 1
    assert excursions(trace) == want


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
    new, distinct = _first_draws(marks)
    assert np.array_equal(new, oracle)
    assert distinct == np.unique(marks).size


def test_first_draw_keys_must_fit_int64():
    # keys are mark * m + step < m * (n + 1); m = 3 steps here
    marks = np.array([2, 1, 2], dtype=np.int64)
    largest = np.iinfo(np.int64).max // 3 - 1
    check_walk(largest, 3)
    check_walk(largest, np.int64(3))  # the product is formed in Python ints, not int64
    assert _first_draws(marks)[0].tolist() == [True, True, False]
    for steps in (3, np.int64(3)):
        with pytest.raises(DomainError, match="overflow the int64 first-draw keys"):
            check_walk(largest + 1, steps)
    # run_exploration refuses before it draws a single mark
    params, ws, sch, rng = multi_setup()
    state = rng.bit_generator.state
    with pytest.raises(DomainError):
        run_exploration(SimpleNamespace(n=largest + 1), sch, 3, rng)
    assert rng.bit_generator.state == state


def test_walk_step_cap():
    # the cap is checked before the int64 keys, and at the cap no n the
    # weights accept overflows them
    check_walk(_MAX_N, _MAX_STEPS)
    with pytest.raises(DomainError, match=f"passes the cap of {_MAX_STEPS} steps"):
        check_walk(10, _MAX_STEPS + 1)
    with pytest.raises(DomainError, match="passes the cap"):
        check_walk(np.iinfo(np.int64).max, 10**17)


def test_exploration_rejects_bad_inputs():
    params, ws, sch, rng = multi_setup()
    # the walk reads only pi_n, so a single-window schedule walks as the same
    # schedule relabelled multi does, byte for byte
    single = make_schedule(params, "single", LambdaRule("power", 0.1))
    got = run_exploration(ws, single, 500, np.random.default_rng(3))
    want = run_exploration(ws, single._replace(mode="multi"), 500, np.random.default_rng(3))
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.new_mark.sum() < 500 and got.Z.max() > 0  # repeats, and a walk that climbs
    with pytest.raises(DomainError):
        run_exploration(ws, sch, 0, rng)
    # a rate past numpy's Poisson draws is refused before any mark is drawn
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="past 2"):
        run_exploration(WeightSequence.of(ws.n, ws.alpha, 1e30), sch, 10, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("flip", ["one-too-many", "one-too-few"])
def test_explored_set_check_catches_a_wrong_fresh_flag(flip, monkeypatch):
    # the fresh flags must number the distinct marks _first_draws sorted out
    params, ws, sch, rng = multi_setup(seed=9)

    def off_by_one(marks):
        new, distinct = _first_draws(marks)
        new = new.copy()
        if flip == "one-too-many":
            new[np.flatnonzero(~new)[0]] = True
        else:
            new[np.flatnonzero(new)[-1]] = False
        return new, distinct

    run_exploration(ws, sch, 200, np.random.default_rng(9))
    monkeypatch.setattr("sfperc.exploration._first_draws", off_by_one)
    with pytest.raises(AssertionError, match="explored-set identity"):
        run_exploration(ws, sch, 200, np.random.default_rng(9))


def test_explored_range_checked():
    params, ws, sch, rng = multi_setup()
    trace = run_exploration(ws, sch, 50, rng)
    with pytest.raises(DomainError):
        explored(trace, 51)
    with pytest.raises(DomainError):
        explored(trace, -1)


# --------------------------------------------------------------------------
# rescaled statistics
# --------------------------------------------------------------------------


def test_sup_distance_matches_manual():
    params, ws, sch, rng = multi_setup(seed=5)
    constants = compute_constants(params)
    trace = run_exploration(ws, sch, 400, rng)
    T = 300 / sch.beta_n
    last = math.floor(T * sch.beta_n)
    z_grid = limit_curve_z(np.arange(last + 1) / sch.beta_n, params, constants)
    got = sup_distance_to_limit(trace, sch, z_grid)
    best = 0.0
    for l in range(last + 1):
        t = l / sch.beta_n
        z = limit_curve_z(t, params, constants)
        best = max(best, abs(trace.Z[l] / sch.beta_n - z))
    assert got == pytest.approx(best, rel=1e-12)
    # a grid reaching past the last step is refused, and the trace is not written
    Z = trace.Z.copy()
    with pytest.raises(DomainError):
        sup_distance_to_limit(trace, sch, np.zeros(trace.steps + 2))
    assert np.array_equal(trace.Z, Z)


def test_trace_builds_S_and_repeats_on_read():
    params, ws, sch, rng = multi_setup(seed=13)
    trace = run_exploration(ws, sch, 300, rng)
    # the walk stores neither column; each read builds it from the stored ones
    assert trace._fields == ("marks", "new_mark", "Z", "wbar") and trace.steps == 300
    S, repeats = trace.S, trace.repeats
    fresh = np.where(trace.new_mark, trace.wbar, 0.0)
    assert np.array_equal(S, np.r_[0.0, np.cumsum(fresh) - np.arange(1, 301)])
    assert np.array_equal(repeats, np.r_[0, np.cumsum(~trace.new_mark)])
    assert np.array_equal(trace.wbar, sch.pi_n * ws.weight(trace.marks))


def test_repeat_fraction_manual(monkeypatch):
    params, ws, sch, rng = multi_setup(seed=11)
    trace = run_exploration(ws, sch, 300, rng)
    repeats = trace.repeats
    assert repeats[-1] > 0
    # R(steps) is counted from the first-draw flags; neither column is built
    forbid_columns(monkeypatch)
    assert repeat_fraction(trace, sch) == repeats[300] / sch.beta_n
    # R(l) of a shorter walk is that of the trace's first l steps
    for l in (0, 1, 200):
        head = trace._replace(marks=trace.marks[:l], new_mark=trace.new_mark[:l],
                              Z=trace.Z[:l + 1], wbar=trace.wbar[:l])
        assert repeat_fraction(head, sch) == repeats[l] / sch.beta_n


@pytest.mark.parametrize("steps, error", [(-1, DomainError), (1.5, DomainError),
                                          (2.0, DomainError), (True, DomainError),
                                          (_MAX_STEPS + 1, DomainError)])
def test_step_counts_fail_closed(steps, error):
    params, ws, sch, rng = multi_setup(seed=17)
    # refused before the walk draws anything
    state = rng.bit_generator.state
    with pytest.raises(error):
        residual_largest_component(ws, sch, steps, rng)
    with pytest.raises(error):
        run_exploration(ws, sch, steps, rng)
    assert rng.bit_generator.state == state
    # numpy integer counts are whole counts
    walk = run_exploration(ws, sch, np.int64(300), rng)
    assert walk.Z.tobytes() == run_exploration(ws, sch, 300, np.random.default_rng(17)).Z.tobytes()


def test_mark_draws_match_weight_distribution():
    # chi-squared on 1e6 size-biased draws against w_i/ell_n, n=100
    params = model_params(2.5, 1.0, 100)
    ws = build_weights(params)
    draws = 1_000_000
    marks = draw_marks(ws, draws, np.random.default_rng(0))
    observed = np.bincount(marks, minlength=ws.n + 1)[1:]
    expected = draws * weight_array(ws) / ws.ell_n
    assert expected.min() > 100.0
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, ws.n - 1) > 0.01


def test_fresh_probability_negative_correlation():
    # P(i and j both unseen after l draws) <= product of the marginals;
    # deterministic inequality, checked exactly on every pair
    params = model_params(2.5, 1.0, 50)
    ws = build_weights(params)
    q = weight_array(ws) / ws.ell_n
    i, j = np.triu_indices(ws.n, k=1)
    for l in (1, 2, 5, 10, 100, 1000):
        lhs = (1.0 - (q[i] + q[j])) ** l
        rhs = (1.0 - q[i]) ** l * (1.0 - q[j]) ** l
        assert np.all(lhs <= rhs)


# --------------------------------------------------------------------------
# residual components
# --------------------------------------------------------------------------


def test_residual_when_nothing_explored():
    # a walk of no steps is refused, as for the other walks, before any draw:
    # sizing the whole graph is the multigraph giant's own job
    params, ws, sch, rng = multi_setup(seed=21)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="takes no step"):
        residual_largest_component(ws, sch, 0, rng)
    assert rng.bit_generator.state == state


def test_residual_when_everything_explored():
    params, ws, sch, _ = multi_setup(n=125)
    assert residual_largest_component(ws, sch, 4000, np.random.default_rng(2)) == 0


def test_residual_moderate_time(monkeypatch):
    params, ws, sch, rng = multi_setup(seed=31)
    traces = []

    def walk(*args):
        traces.append(run_exploration(*args))
        return traces[-1]

    monkeypatch.setattr("sfperc.exploration.run_exploration", walk)
    # the residual reads only the marks
    forbid_columns(monkeypatch)
    size = residual_largest_component(ws, sch, math.floor(sch.beta_n), rng)
    assert 0 <= size < ws.n
    assert len(traces) == 1


def test_residual_graph_is_the_percolated_graph_on_unexplored_pairs(monkeypatch):
    # no residual pair touches an explored vertex, and a pair whose ends are
    # both unexplored keeps its rate pi_n * w_i * w_j / ell_n (Poisson
    # restriction: the walk and the graph are drawn independently)
    params, ws, sch, rng = multi_setup(n=50, seed=41)
    seen = {}

    def walk(*args):
        trace = run_exploration(*args)
        seen["explored"] = set(trace.marks.tolist())
        return trace

    def sizes(g):
        seen["graph"] = g
        return component_sizes(g)

    monkeypatch.setattr("sfperc.exploration.run_exploration", walk)
    monkeypatch.setattr("sfperc.exploration.component_sizes", sizes)
    reps, kept, total = 3000, 0, 0
    for _ in range(reps):
        residual_largest_component(ws, sch, 3, rng)
        g, explored = seen["graph"], seen["explored"]
        assert len(explored) <= 3
        assert not explored & set(g.src.tolist() + g.dst.tolist())
        if not explored & {1, 2}:
            kept += 1
            total += sum(m for i, j, m in as_tuples(g) if (i, j) == (1, 2))
    lam = sch.pi_n * weight_of(ws, 1) * weight_of(ws, 2) / ws.ell_n
    assert kept > reps // 3
    assert abs(total - kept * lam) < 4.0 * math.sqrt(kept * lam)


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
        assert excursions(trace), "first excursion never closed"
        s, e = excursions(trace)[0]
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
