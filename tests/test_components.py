from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sfperc.components import (
    ComponentSummary,
    component_sizes,
    core_giant_and_weight,
    core_report,
    extract_core,
    merged_giant_size,
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

from oracles import kernel_convergence_check, labels_from_summary


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
    assert summary.giant_members.dtype == np.int64
    # the graph's own summary as a base changes nothing
    assert merged_giant_size(summary, g) == giant_size


def raw(n, src, dst):
    """Edge list as a graph, loops and repeats kept: component_sizes and
    merged_giant_size read only n, src and dst, so it goes in unvalidated."""
    return SimpleGraph(n=n, src=np.asarray(src, dtype=np.int64),
                       dst=np.asarray(dst, dtype=np.int64))


def bfs_giant_size(n, src, dst):
    return max(len(c) for c in bfs_components(n, zip(np.asarray(src).tolist(),
                                                      np.asarray(dst).tolist())))


# --------------------------------------------------------------------------
# component labels read off the rank forest
# --------------------------------------------------------------------------


def check_labels(n, src, dst):
    label = labels_from_summary(component_sizes(raw(n, src, dst)))
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
    assert labels_from_summary(component_sizes(raw(0, [], []))).tolist() == [0]


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


# --------------------------------------------------------------------------
# the giant of a summarized graph plus more edges
# --------------------------------------------------------------------------


def check_merged(n, base_src, base_dst, src, dst):
    """merged_giant_size of a base plus edges against the union's summary and BFS."""
    got = merged_giant_size(component_sizes(raw(n, base_src, base_dst)), raw(n, src, dst))
    union_src, union_dst = np.r_[base_src, src], np.r_[base_dst, dst]
    assert got == component_sizes(raw(n, union_src, union_dst)).giant_size
    assert got == bfs_giant_size(n, union_src, union_dst)


def test_component_sizes_base_matches_direct_labels():
    # a summarized subgraph plus the full edge list, including repeats, loops
    # and either endpoint order
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        src = rng.integers(1, n + 1, size=m)
        dst = rng.integers(1, n + 1, size=m)
        sub = rng.random(m) < 0.5
        check_merged(n, src[sub], dst[sub], src, dst)
        check_labels(n, src, dst)


def test_component_sizes_base_adds_its_edges():
    # the base graph and the added edges each touch ids the other does not:
    # the result is the giant of the union of both edge sets
    rng = np.random.default_rng(34)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 2 * n))
        src = rng.integers(1, n + 1, size=m)
        dst = rng.integers(1, n + 1, size=m)
        side = rng.random(m) < 0.5
        check_merged(n, src[side], dst[side], src[~side], dst[~side])
    # base-only ids: an empty added graph keeps the base's giant
    base = component_sizes(SimpleGraph.from_pairs(9, [(2, 7), (7, 9), (4, 5)]))
    assert merged_giant_size(base, SimpleGraph.from_pairs(9, [])) == 3
    # added ids outside the base, one edge bridging into a base component
    assert merged_giant_size(base, SimpleGraph.from_pairs(9, [(1, 3), (3, 5), (6, 8)])) == 4
    # two added edges join both base components and a new id
    assert merged_giant_size(base, SimpleGraph.from_pairs(9, [(5, 9), (1, 4)])) == 6


def test_component_sizes_base_on_the_coupled_pair():
    # the single_vs_multi composition: the simple summary plus the pairs the
    # simple graph dropped gives the multigraph's giant
    params = model_params(2.5, 1.0, 10_000)
    ws = build_weights(params)
    sch = make_schedule(params, "single", LambdaRule("constant", 1.0))
    differs = 0
    for pi in (sch.pi_n, 0.05, 0.3):
        for seed in range(8):
            gm, gs, dropped = sample_coupled_direct(ws, pi, np.random.default_rng(seed))
            multi = component_sizes(gm)
            simple = component_sizes(gs)
            merged = merged_giant_size(simple, dropped)
            assert merged == multi.giant_size
            assert merged_giant_size(simple, gm) == merged
            assert merged >= simple.giant_size
            differs += not np.array_equal(labels_from_summary(simple), labels_from_summary(multi))
    assert differs  # the multigraph joins some simple components


def test_component_sizes_base_edge_cases():
    # the added edges' ids sit below, between and above the base's ids, on
    # either side of a base component, or the base touches no id at all
    cases = [
        (9, [], [(2, 5), (5, 9)]),                          # empty base
        (9, [], []),
        (9, [(5, 6), (6, 8)], [(1, 2), (2, 5)]),            # new ids below
        (9, [(1, 2), (8, 9)], [(4, 5), (5, 1)]),            # new ids between
        (9, [(1, 3)], [(7, 9), (9, 3)]),                    # new ids above, up to n
        (12, [(3, 4), (7, 8), (10, 11)],
         [(1, 2), (5, 6), (12, 9), (2, 7), (6, 6), (9, 4), (1, 2)]),  # all three, a loop, a repeat
        (9, [(1, 9), (4, 6)], [(6, 9), (9, 6)]),            # no new ids
        (9, [(4, 6)], [(1, 1), (8, 8)]),                    # loops only: no new ids either
        (9, [(4, 6), (6, 4)], [(6, 6), (4, 4)]),            # loops on base ids
        (5, [(2, 4)], [(1, 3), (3, 5), (5, 1)]),            # a new component larger than the base's
    ]
    for n, base_edges, added in cases:
        base_src, base_dst = [i for i, _ in base_edges], [j for _, j in base_edges]
        check_merged(n, np.array(base_src, dtype=np.int64), np.array(base_dst, dtype=np.int64),
                     np.array([i for i, _ in added], dtype=np.int64),
                     np.array([j for _, j in added], dtype=np.int64))


def test_component_labels_long_path_in_random_order():
    # a path through a random vertex order takes many hooking rounds
    rng = np.random.default_rng(3)
    n = 10_000
    order = rng.permutation(n) + 1
    check_labels(n, order[:-1], order[1:])
    check_labels(n + 5, order[1:], order[:-1])


def test_hooking_rounds_halve_the_roots(monkeypatch):
    # each hooking round recurses on the roots its live edges join; two rounds
    # at least halve them, so the recursion depth is logarithmic
    import sfperc.components as components
    hook, ranks = components._hook, []

    def counted(k, src, dst):
        ranks.append(k)
        return hook(k, src, dst)

    monkeypatch.setattr(components, "_hook", counted)
    rng = np.random.default_rng(6)
    graphs = []
    for n in (10, 1_000, 20_000):  # paths through a random vertex order
        order = rng.permutation(n) + 1
        graphs.append((n, order[:-1], order[1:]))
    for n, m in ((50, 40), (5_000, 4_000), (5_000, 6_000)):
        graphs.append((n, rng.integers(1, n + 1, size=m), rng.integers(1, n + 1, size=m)))
    graphs.append((9, np.full(8, 9), np.arange(1, 9)))  # a star whose centre is the largest id
    for n, src, dst in graphs:
        ranks.clear()
        check_labels(n, src, dst)
        assert all(later <= k / 2 for k, later in zip(ranks, ranks[2:])), ranks
        assert len(ranks) <= 2 * math.log2(max(ranks[0], 2)) + 1, ranks


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
            merged_giant_size(base, g)


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


def test_merged_giant_size_memory_is_pair_bounded():
    # ten added pairs on a base touching 1e6 ids allocate no per-id arrays
    n = 2_000_000
    half = 500_000
    base_src, base_dst = np.arange(1, 2 * half, 2), np.arange(2, 2 * half + 1, 2)
    base = component_sizes(raw(n, base_src, base_dst))
    assert base.ids.size == 2 * half and base.giant_size == 2
    rng = np.random.default_rng(9)
    src, dst = rng.integers(1, n + 1, size=(2, 10))
    g = raw(n, src, dst)
    tracemalloc.start()
    try:
        got = merged_giant_size(base, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert got == component_sizes(raw(n, np.r_[base_src, src], np.r_[base_dst, dst])).giant_size


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

