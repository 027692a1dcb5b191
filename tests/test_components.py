from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from sfperc.components import (
    ComponentSummary,
    component_labels,
    component_sizes,
    core_giant_and_weight,
    core_report,
    extract_core,
    kernel_convergence_check,
    largest_component_among,
    one_neighborhood,
    write_component_table,
)
from sfperc.errors import DomainError, RangeError
from sfperc.graphgen import MultiGraph, SimpleGraph, percolate_coupled, sample_mnr
from sfperc.params import LambdaRule, build_weights, core_prefix_size, make_schedule, model_params


def bfs_components(n, edges):
    """Reference component finder: list of vertex sets by depth-first search."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    seen = set()
    comps = []
    for start in range(1, n + 1):
        if start in seen:
            continue
        stack = [start]
        comp = set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        comps.append(comp)
    return comps


def check_against_oracle(g, edges):
    summary = component_sizes(g)
    comps = bfs_components(g.n, edges)
    sizes = sorted((len(c) for c in comps), reverse=True)
    assert summary.sizes.tolist() == sizes
    assert summary.second_size == (sizes[1] if len(sizes) > 1 else 0)
    # giant = max-size component containing the smallest eligible vertex id
    giant_size = sizes[0]
    best = min(min(c) for c in comps if len(c) == giant_size)
    expected = next(c for c in comps if len(c) == giant_size and min(c) == best)
    assert set(summary.giant_members.tolist()) == expected


# --------------------------------------------------------------------------
# component labels
# --------------------------------------------------------------------------


def check_labels(n, src, dst):
    label = component_labels(n, np.asarray(src, dtype=np.int64),
                             np.asarray(dst, dtype=np.int64))
    assert label.shape == (n + 1,) and label[0] == 0
    expected = np.zeros(n + 1, dtype=np.int64)
    for comp in bfs_components(n, zip(np.asarray(src).tolist(), np.asarray(dst).tolist())):
        expected[list(comp)] = min(comp)
    assert label.tolist() == expected.tolist()


def test_component_labels_random_multigraphs():
    # loops, repeated pairs and either endpoint order, on shuffled ids
    rng = np.random.default_rng(77)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        perm = rng.permutation(n) + 1
        src = perm[rng.integers(0, n, size=m)]
        dst = perm[rng.integers(0, n, size=m)]
        check_labels(n, src, dst)


def test_component_labels_empty_and_loops_only():
    check_labels(5, [], [])
    check_labels(3, [2, 2, 3], [2, 2, 3])
    assert component_labels(0, np.empty(0, np.int64), np.empty(0, np.int64)).tolist() == [0]


def test_component_labels_long_path_in_random_order():
    # a path through a random vertex order takes many hooking rounds
    rng = np.random.default_rng(3)
    n = 10_000
    order = rng.permutation(n) + 1
    check_labels(n, order[:-1], order[1:])
    check_labels(n + 5, order[1:], order[:-1])


# --------------------------------------------------------------------------
# component summaries vs a BFS oracle
# --------------------------------------------------------------------------


def test_component_sizes_exhaustive_small():
    # every simple graph on up to 4 vertices
    for n in (1, 2, 3, 4):
        all_pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(all_pairs) + 1):
            for edges in itertools.combinations(all_pairs, r):
                g = SimpleGraph.from_pairs(n, edges)
                check_against_oracle(g, edges)


def test_component_sizes_random_multigraphs():
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 14))
        pairs = [(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)),
                  int(rng.integers(1, 4))) for _ in range(m)]
        g = MultiGraph.from_pairs(n, pairs)
        check_against_oracle(g, [(i, j) for i, j, _ in pairs])


def test_component_summary_fields():
    g = SimpleGraph.from_pairs(7, [(1, 2), (2, 3), (5, 6)])
    s = component_sizes(g)
    assert isinstance(s, ComponentSummary)
    assert s.giant_size == 3
    assert s.second_size == 2
    assert s.sizes.tolist() == [3, 2, 1, 1]
    assert s.giant_members.tolist() == [1, 2, 3]


def test_giant_tie_break_prefers_smallest_id():
    g = SimpleGraph.from_pairs(6, [(3, 5), (2, 6)])
    s = component_sizes(g)
    assert s.giant_size == 2
    assert s.giant_members.tolist() == [2, 6]


def test_largest_component_among():
    g = SimpleGraph.from_pairs(8, [(1, 2), (2, 3), (3, 4), (6, 7)])
    assert largest_component_among(g, np.array([1, 2, 6])) == 2
    assert largest_component_among(g, np.array([4, 6, 8])) == 1
    assert largest_component_among(g, np.array([], dtype=np.int64)) == 0
    # counted by membership inside the restriction, not total component size
    assert largest_component_among(g, np.array([1, 4])) == 2


# --------------------------------------------------------------------------
# core extraction and kernel check
# --------------------------------------------------------------------------


def test_extract_core_induced_prefix():
    g = SimpleGraph.from_pairs(6, [(1, 2), (2, 3), (2, 5), (4, 6)])
    core = extract_core(g, 3)
    assert core.n == 3
    assert core.as_tuples() == [(1, 2), (2, 3)]
    for bad in (0, 7):
        with pytest.raises(RangeError):
            extract_core(g, bad)


def single_schedule(n=20_000, lam=5.0):
    params = model_params(2.5, 1.0, n)
    ws = build_weights(params)
    sch = make_schedule(params, "single", LambdaRule("constant", lam))
    return params, ws, sch


def test_kernel_check_values():
    params, ws, sch = single_schedule()
    a = 1.0
    grid = [(0.5, 1.0), (0.25, 0.25)]
    entries = kernel_convergence_check(ws, sch, a, grid)
    n_a = core_prefix_size(sch, a)
    for (u, v), entry in zip(grid, entries):
        i = math.ceil(sch.N_n * u)
        j = math.ceil(sch.N_n * v)
        wi = params.c_F * (params.n / i) ** params.alpha
        wj = params.c_F * (params.n / j) ** params.alpha
        p_edge = sch.pi_n * (1.0 - math.exp(-wi * wj / ws.ell_n))
        assert entry.empirical == pytest.approx(n_a * p_edge, rel=1e-12)
        limit = a * params.c_F**2 / params.mu * (u * v) ** (-params.alpha)
        assert entry.limit == pytest.approx(limit, rel=1e-12)
        # finite-n kernel should already sit near the limit
        assert 0.5 < entry.ratio < 2.0


def test_kernel_check_rejects_bad_inputs():
    params, ws, sch = single_schedule()
    multi = make_schedule(params, "multi", LambdaRule("power", 0.1))
    with pytest.raises(DomainError):
        kernel_convergence_check(ws, multi, 1.0, [(0.5, 0.5)])
    with pytest.raises(DomainError):
        kernel_convergence_check(ws, sch, 1.0, [(0.0, 0.5)])
    with pytest.raises(DomainError):
        kernel_convergence_check(ws, sch, 1.0, [(0.5, 1.5)])


def test_kernel_check_grid_past_n():
    # a chosen so the prefix still fits but ceil(N_n * a) lands on n + 1
    params, ws, sch = single_schedule(n=10_000, lam=9.0)
    a = (ws.n + 0.5) / sch.N_n
    assert core_prefix_size(sch, a) == ws.n
    with pytest.raises(RangeError):
        kernel_convergence_check(ws, sch, a, [(a, a)])


# --------------------------------------------------------------------------
# core giant, one-neighborhood, full report
# --------------------------------------------------------------------------


def test_one_neighborhood_toy():
    g = SimpleGraph.from_pairs(8, [(1, 2), (3, 5), (3, 6), (4, 6), (2, 7), (5, 8)])
    assert one_neighborhood(g, np.array([3, 4]), core_size=4) == 2
    assert one_neighborhood(g, np.array([1, 2]), core_size=4) == 1
    assert one_neighborhood(g, np.array([], dtype=np.int64), core_size=4) == 0
    with pytest.raises(DomainError):
        one_neighborhood(g, np.array([5]), core_size=4)


def test_one_neighborhood_union_bound():
    # the union of outside neighbors never exceeds the per-member sum, and
    # equals the set of outside endpoints of edges leaving the members
    rng = np.random.default_rng(5)
    for _ in range(50):
        n, core = 30, 10
        pairs = {tuple(sorted(p)) for p in rng.integers(1, n + 1, size=(60, 2)) if p[0] != p[1]}
        g = SimpleGraph.from_pairs(n, pairs)
        members = np.unique(rng.integers(1, core + 1, size=4))
        union = one_neighborhood(g, members, core_size=core)
        per_member = sum(
            len({j for i, j in g.as_tuples() if i == m and j > core}
                | {i for i, j in g.as_tuples() if j == m and i > core})
            for m in members.tolist()
        )
        assert union <= per_member
        inside = set(members.tolist())
        assert union == len({j for i, j in g.as_tuples() if i in inside and j > core})


def test_core_giant_and_weight_toy():
    params, ws, sch = single_schedule()
    core = SimpleGraph.from_pairs(5, [(1, 2), (2, 3), (4, 5)])
    giant = core_giant_and_weight(core, ws, sch)
    assert giant.size == 3
    assert giant.members.tolist() == [1, 2, 3]
    expected = sch.pi_n * float(ws.weights[:3].sum())
    assert giant.weight == pytest.approx(expected, rel=1e-12)


def test_core_report_chain():
    params, ws, sch = single_schedule()
    rng = np.random.default_rng(42)
    g = sample_mnr(ws, rng)
    _, gs = percolate_coupled(g, sch.pi_n, rng)
    report = core_report(gs, ws, sch, a=1.0)
    assert report.core_size == core_prefix_size(sch, 1.0)
    assert 0 < report.core_giant_size <= report.core_size
    assert report.core_giant_weight > 0.0
    assert report.one_neighborhood_size >= 0
    # the report asserts the giant lower bound internally; re-check here
    full = component_sizes(gs)
    assert full.giant_size >= report.core_giant_size + report.one_neighborhood_size


def test_write_component_table(tmp_path):
    g = SimpleGraph.from_pairs(5, [(1, 2), (3, 4)])
    path = tmp_path / "comps.csv"
    write_component_table(component_sizes(g), path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "rank,size"
    assert lines[1:] == ["1,2", "2,2", "3,1"]
