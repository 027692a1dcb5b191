from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sfperc.components import (
    ComponentSummary,
    component_labels,
    component_sizes,
    core_giant_and_weight,
    core_report,
    extract_core,
    one_neighborhood,
)
from sfperc.errors import DomainError, RangeError
from sfperc.graphgen import (
    MultiGraph,
    SimpleGraph,
    percolate_coupled,
    sample_coupled_direct,
    sample_mnr,
)
from sfperc.params import LambdaRule, build_weights, core_prefix_size, make_schedule, model_params

from oracles import kernel_convergence_check


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
    assert summary.giant_size == giant_size
    assert summary.sizes.dtype == np.int64
    # no runner-up exactly when one component holds every vertex
    assert (summary.second_size == 0) == (len(comps) == 1)
    assert np.all(np.diff(summary.giant_members) > 0)
    # the graph's own forest as a base changes nothing
    check_same_summary(component_sizes(g, base=summary), summary)


def check_same_summary(got, want):
    assert got.sizes.tolist() == want.sizes.tolist()
    assert got.sizes.dtype == want.sizes.dtype
    assert got.giant_size == want.giant_size
    assert got.giant_members.tolist() == want.giant_members.tolist()
    assert got.giant_members.dtype == want.giant_members.dtype
    assert got.second_size == want.second_size


def raw(n, src, dst):
    """Edge list as a graph, loops and repeats kept: component_sizes reads
    only n, src and dst, so it goes in unvalidated."""
    return SimpleGraph(n=n, src=np.asarray(src, dtype=np.int64),
                       dst=np.asarray(dst, dtype=np.int64))


def labels_from_summary(s):
    """(n + 1)-labels read off a summary's rank forest."""
    label = np.arange(s.n + 1)
    label[s.ids] = s.ids[s.root]
    return label


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


def test_component_labels_sparse_touched_ids():
    # only the touched ids are ranked: edges at vertex n, at high ids only,
    # across gaps in the id range, and loops beside real edges
    check_labels(1, [], [])
    check_labels(9, [9, 9], [9, 9])
    check_labels(9, [8], [9])
    check_labels(9, [9, 3], [3, 9])
    check_labels(1_000, [999, 1_000, 998], [1_000, 997, 997])
    check_labels(50, [2, 40, 17, 50, 40], [40, 17, 33, 50, 2])
    check_labels(50, [5, 5, 30, 30, 30], [5, 45, 30, 12, 30])
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 200))
        pool = rng.choice(np.arange(1, n + 1), size=min(n, int(rng.integers(1, 8))),
                          replace=False)
        m = int(rng.integers(0, 12))
        check_labels(n, rng.choice(pool, size=m), rng.choice(pool, size=m))


def test_component_sizes_base_matches_direct_labels():
    # a summarized subgraph plus the full edge list, including repeats and loops
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        src = rng.integers(1, n + 1, size=m)
        dst = rng.integers(1, n + 1, size=m)
        sub = rng.random(m) < 0.5
        base = component_sizes(raw(n, src[sub], dst[sub]))
        merged = component_sizes(raw(n, src, dst), base=base)
        direct = component_labels(n, src, dst)
        assert labels_from_summary(merged).tolist() == direct.tolist()
        check_same_summary(merged, component_sizes(raw(n, src, dst)))
        check_labels(n, src, dst)


def test_component_sizes_base_adds_its_edges():
    # the base graph and the added edges each touch ids the other does not:
    # the result is the union of both edge sets
    rng = np.random.default_rng(34)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        src = rng.integers(1, n + 1, size=m)
        dst = rng.integers(1, n + 1, size=m)
        side = rng.random(m) < 0.5
        base = component_sizes(raw(n, src[side], dst[side]))
        added = raw(n, src[~side], dst[~side])
        merged = component_sizes(added, base=base)
        assert labels_from_summary(merged).tolist() == component_labels(n, src, dst).tolist()
        check_same_summary(merged, component_sizes(raw(n, src, dst)))
    # base-only ids: an empty added graph keeps the base's components
    base = component_sizes(SimpleGraph.from_pairs(9, [(2, 7), (7, 9), (4, 5)]))
    merged = component_sizes(SimpleGraph.from_pairs(9, []), base=base)
    check_same_summary(merged, base)
    assert merged.giant_members.tolist() == [2, 7, 9]
    # added ids outside the base, one edge bridging into a base component
    merged = component_sizes(SimpleGraph.from_pairs(9, [(1, 3), (3, 5), (6, 8)]), base=base)
    assert merged.sizes.tolist() == [4, 3, 2]
    assert merged.giant_members.tolist() == [1, 3, 4, 5]
    assert merged.second_size == 3


def test_component_sizes_base_on_the_coupled_pair():
    # the single_vs_multi composition: the simple forest seeds the multigraph's
    params = model_params(2.5, 1.0, 10_000)
    ws = build_weights(params)
    sch = make_schedule(params, "single", LambdaRule("constant", 1.0))
    differs = 0
    for seed in range(20):
        gm, gs = sample_coupled_direct(ws, sch.pi_n, np.random.default_rng(seed))
        direct = component_labels(gm.n, gm.src, gm.dst)
        simple = component_sizes(gs)
        merged = component_sizes(gm, base=simple)
        assert np.array_equal(labels_from_summary(merged), direct)
        check_same_summary(merged, component_sizes(gm))
        assert merged.giant_size >= simple.giant_size
        differs += not np.array_equal(labels_from_summary(simple), direct)
    assert differs  # the multigraph joins some simple components


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


def test_component_sizes_rejects_base_of_other_n():
    g = SimpleGraph.from_pairs(4, [(1, 2)])
    for n in (3, 5):
        base = component_sizes(SimpleGraph.from_pairs(n, [(1, 2)]))
        with pytest.raises(DomainError):
            component_sizes(g, base=base)


def test_giant_tie_break_prefers_smallest_id():
    g = SimpleGraph.from_pairs(6, [(3, 5), (2, 6)])
    s = component_sizes(g)
    assert s.giant_size == 2
    assert s.giant_members.tolist() == [2, 6]


def test_component_summary_edge_cases():
    # each against the BFS oracle, which also checks the sizes dtype, that
    # second_size is 0 exactly when one component spans the graph (n = 1 for
    # an edgeless one), and that the giant's members ascend
    cases = [
        (1, []),                                     # a single vertex
        (6, []),                                     # no edges
        (5, [(2, 2), (5, 5), (2, 2)]),               # loops only
        (6, [(4, 1), (1, 6), (6, 2), (2, 5), (5, 3)]),  # one component spans all
        (8, [(7, 8), (5, 6), (3, 4)]),               # equal sizes: smallest id wins
        (9, [(9, 4), (4, 8), (2, 7), (7, 3), (1, 1)]),
    ]
    for n, edges in cases:
        g = MultiGraph.from_pairs(n, [(i, j, 1) for i, j in edges])
        check_against_oracle(g, edges)
    single = component_sizes(MultiGraph.from_pairs(1, []))
    assert single.sizes.tolist() == [1] and single.second_size == 0
    assert component_sizes(MultiGraph.from_pairs(6, [])).second_size == 1
    spanning = component_sizes(SimpleGraph.from_pairs(6, cases[3][1]))
    assert spanning.sizes.tolist() == [6] and spanning.second_size == 0
    assert component_sizes(SimpleGraph.from_pairs(8, cases[4][1])).giant_members.tolist() == [3, 4]


def test_component_sizes_memory_is_edge_bounded():
    # untouched ids cost no per-vertex arrays beyond the touched mask and the
    # rank map: a ~2k-edge graph on 2e6 ids peaks under 6 bytes per vertex
    n = 2_000_000
    rng = np.random.default_rng(12)
    pairs = rng.integers(1, n + 1, size=(2_100, 2))
    g = SimpleGraph.from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
    tracemalloc.start()
    try:
        summary = component_sizes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.giant_size >= 2
    assert peak / n <= 6.0


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

