from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sfperc.errors import DomainError
from sfperc.graphgen import (
    MultiGraph,
    SimpleGraph,
    _lookup,
    collapse_to_simple,
    draw_marks,
    percolate_coupled,
    percolate_multigraph,
    read_edge_list,
    sample_coupled_direct,
    sample_mnr,
    sample_percolated_mnr_direct,
    sample_percolated_mnr_subset,
    write_edge_list,
)
from sfperc.params import WeightSequence, build_weights, model_params


def toy_weights():
    return WeightSequence.from_array([4.0, 2.0, 2.0, 1.0, 1.0])


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------


def test_from_pairs_canonicalizes_and_merges():
    g = MultiGraph.from_pairs(4, [(2, 1, 1), (1, 2, 2), (3, 3, 1), (4, 2, 5)])
    assert g.as_tuples() == [(1, 2, 3), (2, 4, 5), (3, 3, 1)]
    assert g.pair_count == 3
    assert g.total_edge_count == 9
    # (1, 6) at n = 3 would alias onto the loop (2, 2) without the range check
    for bad in ([(1, 6, 1)], [(0, 2, 1)], [(1, 2, 0)], [(1, 2, 1), (2, 3, 0)]):
        with pytest.raises(DomainError):
            MultiGraph.from_pairs(3, bad)


def test_degrees_count_loops_twice():
    g = MultiGraph.from_pairs(3, [(1, 2, 2), (3, 3, 4)])
    deg = g.degrees()
    assert deg.tolist() == [0, 2, 2, 8]
    assert int(deg.sum()) == 2 * g.total_edge_count


def test_multigraph_validate_rejects_bad_arrays():
    ok = MultiGraph.from_pairs(3, [(1, 2, 1), (2, 3, 1)])
    bad_order = MultiGraph(n=3, src=ok.dst, dst=ok.src, mult=ok.mult)
    with pytest.raises(AssertionError):
        bad_order.validate()
    bad_range = MultiGraph(n=2, src=ok.src, dst=ok.dst, mult=ok.mult)
    with pytest.raises(AssertionError):
        bad_range.validate()
    bad_mult = MultiGraph(n=3, src=ok.src, dst=ok.dst, mult=np.array([1, 0]))
    with pytest.raises(AssertionError):
        bad_mult.validate()
    dup = MultiGraph(n=3, src=np.array([1, 1]), dst=np.array([2, 2]),
                     mult=np.array([1, 1]))
    with pytest.raises(AssertionError):
        dup.validate()


def test_simple_graph_rejects_loops_and_checks_order():
    for bad in ([(1, 1)], [(1, 2), (3, 3)], [(1, 6)], [(0, 2)]):
        with pytest.raises(DomainError):
            SimpleGraph.from_pairs(3, bad)
    g = SimpleGraph.from_pairs(3, [(3, 1), (1, 2), (2, 1)])
    assert g.as_tuples() == [(1, 2), (1, 3)]
    bad = SimpleGraph(n=3, src=np.array([2]), dst=np.array([2]))
    with pytest.raises(AssertionError):
        bad.validate()


def test_collapse_to_simple_drops_loops_and_mults():
    g = MultiGraph.from_pairs(4, [(1, 2, 3), (2, 2, 1), (3, 4, 1)])
    s = collapse_to_simple(g)
    assert s.as_tuples() == [(1, 2), (3, 4)]


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
                max_size=25))
@settings(max_examples=60, deadline=None)
def test_degree_sum_identity(pairs):
    g = MultiGraph.from_pairs(6, pairs)
    assert int(g.degrees().sum()) == 2 * g.total_edge_count


# --------------------------------------------------------------------------
# samplers: exact laws on toy weight sequences
# --------------------------------------------------------------------------


def test_draw_marks_distribution():
    ws = toy_weights()
    rng = np.random.default_rng(7)
    size = 200_000
    marks = draw_marks(ws, size, rng)
    assert marks.min() >= 1 and marks.max() <= ws.n
    counts = np.bincount(marks, minlength=ws.n + 1)[1:]
    probs = ws.weights / ws.ell_n
    # each cell within 4 binomial standard errors
    se = np.sqrt(size * probs * (1.0 - probs))
    assert np.all(np.abs(counts - size * probs) < 4.0 * se)


def test_lookup_matches_unsorted_search():
    cum = np.cumsum([4.0, 2.0, 2.0, 1.0, 1.0])
    rng = np.random.default_rng(3)
    queries = (
        np.empty(0),
        np.concatenate([[0.0], cum]),  # exactly on every cumulative boundary
        np.array([2.5, 8.0, 2.5, 0.0, 8.0, 8.0, 9.75]),  # repeated values
        rng.random(10_000) * cum[-1],
    )
    for u in queries:
        got = _lookup(cum, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cum, u, side="right"))


def test_draw_marks_rejects_negative_size():
    with pytest.raises(DomainError):
        draw_marks(toy_weights(), -1, np.random.default_rng(0))


def test_sample_mnr_pair_rates():
    ws = toy_weights()
    rng = np.random.default_rng(11)
    reps = 4000
    tot_12 = 0
    tot_loop1 = 0
    edges = 0
    for _ in range(reps):
        g = sample_mnr(ws, rng)
        g.validate()
        for i, j, m in g.as_tuples():
            if (i, j) == (1, 2):
                tot_12 += m
            if (i, j) == (1, 1):
                tot_loop1 += m
        edges += g.total_edge_count
    lam_12 = ws.weights[0] * ws.weights[1] / ws.ell_n
    lam_loop = ws.weights[0] ** 2 / (2.0 * ws.ell_n)
    lam_tot = ws.ell_n / 2.0
    for total, lam in ((tot_12, lam_12), (tot_loop1, lam_loop), (edges, lam_tot)):
        se = math.sqrt(reps * lam)
        assert abs(total - reps * lam) < 4.0 * se


def test_direct_percolated_sampler_rate():
    ws = toy_weights()
    rng = np.random.default_rng(3)
    pi = 0.4
    reps = 4000
    edges = sum(sample_percolated_mnr_direct(ws, pi, rng).total_edge_count
                for _ in range(reps))
    lam = pi * ws.ell_n / 2.0
    assert abs(edges - reps * lam) < 4.0 * math.sqrt(reps * lam)


def test_subset_sampler_respects_subset():
    params = model_params(2.5, 1.0, 500)
    ws = build_weights(params)
    rng = np.random.default_rng(5)
    sub = np.array([3, 8, 13, 21, 34], dtype=np.int64)
    g = sample_percolated_mnr_subset(ws, 0.8, sub, rng)
    g.validate()
    assert g.n == ws.n
    members = set(sub.tolist())
    assert set(g.src.tolist()) <= members and set(g.dst.tolist()) <= members


def test_subset_sampler_edge_cases():
    ws = toy_weights()
    rng = np.random.default_rng(0)
    empty = sample_percolated_mnr_subset(ws, 0.5, np.array([], dtype=np.int64), rng)
    assert empty.pair_count == 0 and empty.n == ws.n
    with pytest.raises(DomainError):
        sample_percolated_mnr_subset(ws, 0.5, np.array([0, 2]), rng)
    with pytest.raises(DomainError):
        sample_percolated_mnr_subset(ws, 0.5, np.array([2, 6]), rng)


def test_subset_sampler_pair_rate():
    ws = toy_weights()
    rng = np.random.default_rng(19)
    pi = 0.5
    sub = np.array([1, 3], dtype=np.int64)
    reps = 4000
    total = 0
    for _ in range(reps):
        g = sample_percolated_mnr_subset(ws, pi, sub, rng)
        for i, j, m in g.as_tuples():
            if (i, j) == (1, 3):
                total += m
    lam = pi * ws.weights[0] * ws.weights[2] / ws.ell_n
    assert abs(total - reps * lam) < 4.0 * math.sqrt(reps * lam)


# --------------------------------------------------------------------------
# percolation operators
# --------------------------------------------------------------------------


def test_percolate_multigraph_identity_at_full_retention():
    g = MultiGraph.from_pairs(5, [(1, 2, 3), (2, 5, 1), (4, 4, 2)])
    kept = percolate_multigraph(g, 1.0, np.random.default_rng(0))
    assert kept.as_tuples() == g.as_tuples()


def test_percolate_multigraph_thinning_rate():
    g = MultiGraph.from_pairs(2, [(1, 2, 10)])
    rng = np.random.default_rng(23)
    pi = 0.3
    reps = 20_000
    total = 0
    for _ in range(reps):
        kept = percolate_multigraph(g, pi, rng)
        kept.validate()
        total += kept.total_edge_count
    mean = 10 * pi
    se = math.sqrt(reps * 10 * pi * (1 - pi))
    assert abs(total - reps * mean) < 4.0 * se


def test_percolate_multigraph_binomial_pmf():
    # kept multiplicity of a k=5 pair is Binomial(5, pi): chi-squared at 1%
    g = MultiGraph.from_pairs(2, [(1, 2, 5)])
    rng = np.random.default_rng(11)
    pi, trials = 0.4, 100_000
    counts = np.zeros(6, dtype=np.int64)
    for _ in range(trials):
        counts[percolate_multigraph(g, pi, rng).total_edge_count] += 1
    pmf = np.array([math.comb(5, k) * pi**k * (1 - pi) ** (5 - k) for k in range(6)])
    expected = trials * pmf
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2.sf(stat, 5) > 0.01


def test_retention_probability_domain():
    g = MultiGraph.from_pairs(2, [(1, 2, 1)])
    rng = np.random.default_rng(0)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            percolate_multigraph(g, bad, rng)
        with pytest.raises(DomainError):
            percolate_coupled(g, bad, rng)
        with pytest.raises(DomainError):
            sample_percolated_mnr_direct(toy_weights(), bad, rng)
        with pytest.raises(DomainError):
            sample_coupled_direct(toy_weights(), bad, rng)


def test_percolate_coupled_subgraph_relation():
    params = model_params(2.5, 1.0, 300)
    ws = build_weights(params)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        g = sample_mnr(ws, rng)
        gm, gs = percolate_coupled(g, 0.45, rng)
        gm.validate()
        gs.validate()
        multi_pairs = {(i, j) for i, j, _ in gm.as_tuples()}
        assert set(gs.as_tuples()) <= multi_pairs
        # kept multigraph pairs never exceed the original multiplicity
        orig = {(i, j): m for i, j, m in g.as_tuples()}
        assert all(m <= orig[(i, j)] for i, j, m in gm.as_tuples())


def test_percolate_coupled_exact_on_singletons():
    # all multiplicities 1, no loops: both sides keep exactly the same pairs
    g = MultiGraph.from_pairs(6, [(i, j, 1) for i in range(1, 6)
                                  for j in range(i + 1, 7)])
    rng = np.random.default_rng(17)
    gm, gs = percolate_coupled(g, 0.5, rng)
    assert [(i, j) for i, j, _ in gm.as_tuples()] == gs.as_tuples()
    assert np.all(gm.mult == 1)


def test_percolate_coupled_full_retention():
    g = MultiGraph.from_pairs(4, [(1, 2, 2), (2, 2, 1), (3, 4, 1)])
    gm, gs = percolate_coupled(g, 1.0, np.random.default_rng(1))
    assert gm.as_tuples() == g.as_tuples()
    assert gs.as_tuples() == [(1, 2), (3, 4)]


def test_percolate_coupled_conditional_multiplicity():
    # given the pair survives, copies follow Binomial(k, pi) conditioned >= 1
    g = MultiGraph.from_pairs(2, [(1, 2, 4)])
    rng = np.random.default_rng(29)
    pi = 0.4
    reps = 30_000
    kept_counts = []
    for _ in range(reps):
        gm, _ = percolate_coupled(g, pi, rng)
        if gm.pair_count:
            kept_counts.append(int(gm.mult[0]))
    p_any = 1.0 - (1.0 - pi) ** 4
    se_any = math.sqrt(reps * p_any * (1 - p_any))
    assert abs(len(kept_counts) - reps * p_any) < 4.0 * se_any
    mean_given = 4 * pi / p_any
    arr = np.asarray(kept_counts, dtype=float)
    assert abs(arr.mean() - mean_given) < 4.0 * arr.std(ddof=1) / math.sqrt(arr.size)


def _joint_cells(draw, reps: int) -> Counter:
    """Tally (pair, min(c, 3), simple kept) over ``reps`` coupled draws."""
    cells = Counter()
    for _ in range(reps):
        gm, gs = draw()
        simple = set(gs.as_tuples())
        mult = {(i, j): m for i, j, m in gm.as_tuples()}
        for pair in ((1, 2), (2, 3), (1, 1)):
            cells[pair, min(mult.get(pair, 0), 3), pair in simple] += 1
    return cells


def test_sample_coupled_direct_joint_law():
    # two-sample chi-squared against the raw-multigraph operator: multigraph
    # count, simple edge and their coupling, on two pairs and a loop
    ws = WeightSequence.from_array([6.0, 4.0, 2.5, 1.0, 0.5])
    pi, reps = 0.35, 20_000
    rng_ref, rng_new = np.random.default_rng(41), np.random.default_rng(43)
    ref = _joint_cells(lambda: percolate_coupled(sample_mnr(ws, rng_ref), pi, rng_ref), reps)
    new = _joint_cells(lambda: sample_coupled_direct(ws, pi, rng_new), reps)
    cells = set(ref) | set(new)
    assert len(cells) == 18  # 7 per non-loop pair (c = 0 has no simple edge), 4 for the loop
    stat = sum((ref[c] - new[c]) ** 2 / (ref[c] + new[c]) for c in cells)
    # each draw fills one cell per pair: (7-1) + (7-1) + (4-1) degrees of freedom
    assert chi2.sf(stat, 15) > 0.001, stat


def test_sample_coupled_direct_full_retention():
    # at pi = 1 every pair is kept, so every non-loop pair is a simple edge
    params = model_params(2.5, 1.0, 300)
    ws = build_weights(params)
    rng = np.random.default_rng(5)
    for _ in range(5):
        gm, gs = sample_coupled_direct(ws, 1.0, rng)
        gm.validate()
        gs.validate()
        assert gs.as_tuples() == collapse_to_simple(gm).as_tuples()


# --------------------------------------------------------------------------
# edge-list round trip
# --------------------------------------------------------------------------


def test_edge_list_round_trip(tmp_path):
    g = MultiGraph.from_pairs(5, [(1, 2, 3), (2, 2, 1), (4, 5, 2)])
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.n == g.n
    assert back.as_tuples() == g.as_tuples()


def test_edge_list_simple_graph_dump(tmp_path):
    s = SimpleGraph.from_pairs(4, [(1, 2), (3, 4)])
    path = tmp_path / "simple.txt"
    write_edge_list(s, path)
    back = read_edge_list(path)
    assert back.as_tuples() == [(1, 2, 1), (3, 4, 1)]


def test_edge_list_header_mismatch(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("3 2\n1 2 1\n")
    with pytest.raises(DomainError):
        read_edge_list(path)
