from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from sfperc.components import (
    _SPARSE,
    ComponentSummary,
    component_sizes,
    core_report,
    merged_giant_size,
    one_neighborhood,
)
from sfperc.errors import DomainError
from sfperc.graphgen import (
    SimpleGraph,
    id_dtype,
    percolate_coupled,
    sample_coupled_direct,
    sample_mnr,
)
from sfperc.params import LambdaRule, build_weights, core_prefix_size, make_schedule, model_params

from oracles import (all_sizes, as_tuples, kernel_convergence_check, labels_from_summary,
                     multi_from_pairs, simple_from_pairs)


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
    assert all_sizes(summary).tolist() == sizes
    assert summary.second_size == (sizes[1] if len(sizes) > 1 else 0)
    # giant = max-size component containing the smallest eligible vertex id
    giant_size = sizes[0]
    best = min(min(c) for c in comps if len(c) == giant_size)
    expected = next(c for c in comps if len(c) == giant_size and min(c) == best)
    assert set(summary.giant_members.tolist()) == expected
    assert summary.giant_size == giant_size
    assert all_sizes(summary).dtype == np.int64
    # no runner-up exactly when one component holds every vertex
    assert (summary.second_size == 0) == (len(comps) == 1)
    assert np.all(np.diff(summary.giant_members) > 0)
    assert summary.giant_members.dtype == id_dtype(g.n)
    # the graph's own summary as a base changes nothing
    assert merged_giant_size(summary, g) == giant_size
    check_padded_summary(summary, g)


def padded_past_switch(g):
    """``g`` with isolated ids added until its edges are few enough for the
    touched ids to be listed by sorting."""
    return g._replace(n=max(g.n, _SPARSE * g.src.size + 1))


def check_padded_summary(summary, g):
    """``g`` padded past the sorting switch has ``summary``'s forest and giant;
    the padding adds only singletons."""
    padded = component_sizes(padded_past_switch(g))
    for a, b in ((summary.ids, padded.ids), (summary.root, padded.root),
                 (summary.counts, padded.counts)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()
    assert summary.ids.dtype == id_dtype(g.n)
    assert (padded.giant_root, padded.giant_size) == (summary.giant_root, summary.giant_size)
    assert padded.giant_members.tolist() == summary.giant_members.tolist()
    # a component spanning the unpadded graph gains the singletons as runners-up
    assert padded.second_size == (summary.second_size or int(padded.n > padded.giant_size))
    assert all_sizes(padded).tolist() == all_sizes(summary).tolist() + [1] * (padded.n - g.n)


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
    base = component_sizes(simple_from_pairs(9, [(2, 7), (7, 9), (4, 5)]))
    assert merged_giant_size(base, simple_from_pairs(9, [])) == 3
    # added ids outside the base, one edge bridging into a base component
    assert merged_giant_size(base, simple_from_pairs(9, [(1, 3), (3, 5), (6, 8)])) == 4
    # two added edges join both base components and a new id
    assert merged_giant_size(base, simple_from_pairs(9, [(5, 9), (1, 4)])) == 6


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
    hook, rank, ranks, ranked = components._hook, components._rank, [], []

    def counted(k, src, dst, table=None):
        ranks.append(k)
        return hook(k, src, dst, table)

    def listed(n, src, dst):
        ranked.append((n, src.size))
        return rank(n, src, dst)

    monkeypatch.setattr(components, "_hook", counted)
    monkeypatch.setattr(components, "_rank", listed)
    rng = np.random.default_rng(6)
    graphs = []
    for n in (10, 1_000, 20_000):  # paths through a random vertex order
        order = rng.permutation(n) + 1
        graphs.append((n, order[:-1], order[1:]))
    for n, m in ((50, 40), (5_000, 4_000), (5_000, 6_000)):
        graphs.append((n, rng.integers(1, n + 1, size=m), rng.integers(1, n + 1, size=m)))
    graphs.append((9, np.full(8, 9), np.arange(1, 9)))  # a star whose centre is the largest id
    # sparse, so the recursion lists its roots by sorting
    graphs.append((100_000, rng.integers(1, 100_001, size=3_000),
                   rng.integers(1, 100_001, size=3_000)))
    for n, src, dst in graphs:
        ranks.clear()
        ranked.clear()
        check_labels(n, src, dst)
        assert all(later <= k / 2 for k, later in zip(ranks, ranks[2:])), ranks
        assert len(ranks) <= 2 * math.log2(max(ranks[0], 2)) + 1, ranks
    # the sparse graph, labeled last: a recursion level took the sorting path
    assert any(_SPARSE * m < n for n, m in ranked[1:]), ranked


def test_blocked_root_resolution_matches_one_block(monkeypatch):
    # in blocks of 5 ranks and edges (a dense ranking's edges in blocks of
    # 7, ranked 3 ids at a time), hooking, settling and the jump after each
    # recursion give the forest, ids and counts of one block, and the
    # summaries still match BFS: on the ranking-path graphs, the edge cases,
    # random multigraphs, a path whose ids descend across 12 blocks (every
    # rank hooks onto the one below it) and a star centred on the last rank
    import sfperc.components as components
    rng = np.random.default_rng(53)
    order = rng.permutation(2_000) + 1
    descending = np.arange(60, 0, -1)
    cases = [(5, [], []), (2_000, order[:-1], order[1:]),
             (60, descending[:-1], descending[1:]), (30, np.full(29, 30), np.arange(1, 30)),
             (5, [2, 2, 5], [2, 2, 5]), (6, [4, 1, 6, 2, 5], [1, 6, 2, 5, 3]),
             (8, [7, 5, 3], [8, 6, 4]), (9, [9, 4, 2, 7, 1], [4, 8, 7, 3, 1])]
    for k in (99, 100):  # edge counts either side of the sorting switch at n = 1,000
        cases.append((1_000, rng.integers(1, 1_001, size=k), rng.integers(1, 1_001, size=k)))
    for _ in range(200):
        n, m = int(rng.integers(1, 40)), int(rng.integers(0, 60))
        cases.append((n, rng.integers(1, n + 1, size=m), rng.integers(1, n + 1, size=m)))
    # multigraphs drop their loops, as the oracle does
    graphs = [multi_from_pairs(n, [(i, j, 1) for i, j in zip(np.asarray(src).tolist(),
                                                              np.asarray(dst).tolist())])
              for n, src, dst in cases]
    whole = [component_sizes(g) for g in graphs]
    monkeypatch.setattr(components, "_HOOK_BLOCK", 5)
    # a dense ranking's edges in blocks of 7, ranked 3 ids at a time
    monkeypatch.setattr(components, "_EDGE_BLOCK", 7)
    monkeypatch.setattr(components, "_OFFSET_BLOCK", 3)
    for g, want in zip(graphs, whole):
        got = component_sizes(g)
        for a, b in ((got.ids, want.ids), (got.root, want.root), (got.counts, want.counts)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        check_against_oracle(g, list(zip(g.src.tolist(), g.dst.tolist())))
    assert max(summary.ids.size for summary in whole) >= 4 * 5  # at least four blocks


@pytest.mark.parametrize("block", [5, 64, None], ids=["block5", "block64", "default"])
def test_jump_settles_blocks_in_rank_order(block, monkeypatch):
    # on random forests with sub[r] <= r, jumping block by block ends at
    # every rank's root, as whole-array pointer jumping does; and where
    # every parent's parent is a root, one jump equals the whole-array one.
    # Forests of one block less one rank, one block and one rank more.
    import sfperc.components as components
    if block:
        monkeypatch.setattr(components, "_HOOK_BLOCK", block)
    edge = components._HOOK_BLOCK
    rng = np.random.default_rng(59)
    for k in sorted({1, 4, 5, 6, 63, 64, 65, 300, 1_000, edge - 1, edge, edge + 1}):
        for _ in range(5):
            ranks = np.arange(k, dtype=np.int32)
            sub = (rng.random(k) * (ranks + 1)).astype(np.int32)  # a parent <= r
            rooted = rng.random(k) < 0.2
            sub[rooted] = ranks[rooted]
            want = sub
            while not np.array_equal(jumped := want[want], want):
                want = jumped
            got = components._jump(sub.copy())
            assert got.dtype == sub.dtype and got.tolist() == want.tolist()
            # re-point some roots at the largest kept root below them
            roots = np.unique(want)
            kept = roots[(rng.random(roots.size) < 0.5) | (roots == 0)]
            two = want.copy()
            two[roots] = kept[np.searchsorted(kept, roots, side="right") - 1]
            once = components._jump(two.copy(), settle=False)
            assert once.tolist() == two[two].tolist()


# --------------------------------------------------------------------------
# component summaries vs a BFS oracle
# --------------------------------------------------------------------------


def test_component_sizes_exhaustive_small():
    # every simple graph on up to 4 vertices
    for n in (1, 2, 3, 4):
        all_pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(all_pairs) + 1):
            for edges in itertools.combinations(all_pairs, r):
                g = simple_from_pairs(n, edges)
                check_against_oracle(g, edges)


def test_ranking_paths_against_the_oracle():
    # each graph at its own n and padded past the switch to the sorting path,
    # both against BFS: no edges, loops only, a path through a random vertex
    # order (many hooking rounds), and edge counts one either side of the switch
    rng = np.random.default_rng(31)
    order = rng.permutation(2_000) + 1
    n = 1_000
    m = (n - 1) // _SPARSE  # the most edges that still take the sorting path
    assert _SPARSE * m < n <= _SPARSE * (m + 1)
    cases = [(5, [], []), (2_000, order[:-1], order[1:])]
    cases += [(n, rng.integers(1, n + 1, size=k), rng.integers(1, n + 1, size=k))
              for k in (m, m + 1)]
    for n, src, dst in cases:
        g = raw(n, src, dst)
        edges = list(zip(np.asarray(src).tolist(), np.asarray(dst).tolist()))
        check_against_oracle(g, edges)
        check_against_oracle(padded_past_switch(g), edges)
    check_against_oracle(multi_from_pairs(4, [(2, 2, 1), (4, 4, 3)]), [(2, 2), (4, 4)])
    # a multigraph drops its loops before ranking; raw loops are ranked as touched ids
    loops = raw(3, [2, 2, 3], [2, 2, 3])
    check_labels(3, loops.src, loops.dst)
    check_padded_summary(component_sizes(loops), loops)


def ranked(edges, table):
    """An edge column as the hooking passes read it, ranked through
    ``table`` block by block, in one array."""
    import sfperc.components as components
    blocks = [s.copy() for s, _ in components._edge_blocks(edges, edges, table)]
    return np.concatenate(blocks) if blocks else edges


@pytest.mark.parametrize("n", [255, 256, 257])
def test_offset_table_edge_cases(n, monkeypatch):
    # a dense graph ranks through 256-id blocks; every ranking's edges, read
    # through its table, are checked against np.unique and searchsorted, and
    # each graph against BFS: all of 0..n touched (block 0 full, offsets up
    # to 255), a path through every id in random order (the block holding
    # n), ids at 255, 256 and 257 beside 30 small pairs, and a star on n
    # (its recursion is dense)
    import sfperc.components as components
    rank, dense = components._rank, []

    def checked(k, src, dst):
        ids, edge_src, edge_dst, table = rank(k, src, dst)
        assert ids.tolist() == np.unique(np.concatenate([src, dst])).tolist()
        for given, edge in ((src, edge_src), (dst, edge_dst)):
            ranks = ranked(edge, table)
            assert ranks.dtype == ids.dtype == id_dtype(k)
            assert ranks.tolist() == np.searchsorted(ids, given).tolist()
        # a dense ranking hands its edges back unranked, with its table
        assert (table is not None) == (_SPARSE * src.size >= k)
        if table is not None:
            assert edge_src is src and edge_dst is dst
            assert ranked(ids, table).tolist() == list(range(ids.size))
            dense.append((k, ids.tolist()))
        return ids, edge_src, edge_dst, table

    monkeypatch.setattr(components, "_rank", checked)
    for dtype in (np.int32, np.int64):
        every = np.arange(n + 1, dtype=dtype)
        ids, edge_src, _, table = components._rank(n, every, every[::-1])
        assert ids.tolist() == ranked(edge_src, table).tolist() == list(range(n + 1))
    rng = np.random.default_rng(n)
    order = (rng.permutation(n) + 1).tolist()
    near = [i for i in (254, 255, 256, 257) if i <= n]
    graphs = [list(zip(order[:-1], order[1:])),
              list(zip(near[:-1], near[1:])) + [(2 * i + 1, 2 * i + 2) for i in range(30)],
              [(i, n) for i in range(1, n)]]
    for edges in graphs:
        dense.clear()
        check_against_oracle(raw(n, *zip(*edges)), edges)
        # the graph's own ranking is the one on n ids; recursion levels rank fewer
        top = [ids for k, ids in dense if k == n]
        assert top and set(top[0]) == {i for e in edges for i in e}
    # the star's recursion ranks the n - 1 leaves' roots on the dense branch
    assert [ids for k, ids in dense if k < n][0] == list(range(n - 1))


def test_component_sizes_random_multigraphs():
    rng = np.random.default_rng(1234)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(0, 14))
        pairs = [(int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)),
                  int(rng.integers(1, 4))) for _ in range(m)]
        g = multi_from_pairs(n, pairs)
        check_against_oracle(g, [(i, j) for i, j, _ in pairs])


def test_component_summary_fields():
    g = simple_from_pairs(7, [(1, 2), (2, 3), (5, 6)])
    s = component_sizes(g)
    assert isinstance(s, ComponentSummary)
    assert s.giant_size == 3
    assert s.second_size == 2
    assert all_sizes(s).tolist() == [3, 2, 1, 1]
    assert s.giant_members.tolist() == [1, 2, 3]


def test_component_sizes_rejects_base_of_other_n():
    g = simple_from_pairs(4, [(1, 2)])
    for n in (3, 5):
        base = component_sizes(simple_from_pairs(n, [(1, 2)]))
        with pytest.raises(DomainError):
            merged_giant_size(base, g)


def test_giant_tie_break_prefers_smallest_id():
    g = simple_from_pairs(6, [(3, 5), (2, 6)])
    s = component_sizes(g)
    assert s.giant_size == 2
    assert s.giant_members.tolist() == [2, 6]


def test_component_partition_check_fires(monkeypatch):
    # one edge needs one hooking round, so the shortened roots reach the check
    import sfperc.components as comp

    hook = comp._hook
    monkeypatch.setattr(comp, "_hook", lambda *edges: hook(*edges)[:-1])
    with pytest.raises(AssertionError, match="do not partition the vertex set"):
        component_sizes(simple_from_pairs(3, [(1, 2)]))


def test_component_root_check_fires(monkeypatch):
    # without pointer jumping, a path's ranks point at their neighbours, not
    # at the root; the sizes still sum to the touched ids
    import sfperc.components as comp

    monkeypatch.setattr(comp, "_jump", lambda sub, settle=True: sub)
    with pytest.raises(AssertionError, match="not its own root"):
        component_sizes(simple_from_pairs(4, [(1, 2), (2, 3), (3, 4)]))


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
        g = multi_from_pairs(n, [(i, j, 1) for i, j in edges])
        check_against_oracle(g, edges)
    single = component_sizes(multi_from_pairs(1, []))
    assert all_sizes(single).tolist() == [1] and single.second_size == 0
    assert component_sizes(multi_from_pairs(6, [])).second_size == 1
    spanning = component_sizes(simple_from_pairs(6, cases[3][1]))
    assert all_sizes(spanning).tolist() == [6] and spanning.second_size == 0
    assert component_sizes(simple_from_pairs(8, cases[4][1])).giant_members.tolist() == [3, 4]


def test_component_sizes_memory_is_edge_bounded():
    # untouched ids cost no per-vertex array beyond the rank map (a graph this
    # sparse sorts its endpoints, with no mask): a ~2k-edge graph on 2e6 ids
    # peaks under 6 bytes per vertex
    n = 2_000_000
    rng = np.random.default_rng(12)
    pairs = rng.integers(1, n + 1, size=(2_100, 2))
    g = simple_from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
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


def union_find_giant(edges):
    """Largest component of an edge list, by union-find over the ids it names."""
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in edges:
        parent[find(i)] = find(j)
    return max(Counter(find(v) for v in parent).values())


def test_merged_giant_size_at_the_largest_int32_n():
    # at n = 2**31 - 2 the node keys id + |ids| of ids no base edge touches
    # pass 2**31; the base summary is built by hand, so nothing is n long
    n = 2**31 - 2
    base_edges = [(5, 6), (7, n - 3)]
    base = ComponentSummary(n=n, ids=np.array([5, 6, 7, n - 3], dtype=np.int64),
                            root=np.array([0, 0, 2, 2], dtype=np.int32),
                            counts=np.array([2, 0, 2, 0], dtype=np.int64),
                            giant_root=0, giant_size=2, second_size=2)
    for edges in ([(6, n - 1), (n - 2, n - 1), (n - 1, n)], [(n - 2, n), (n - 1, n)],
                  [(7, n), (6, n - 3), (n - 1, n)], [(5, 7)]):
        g = SimpleGraph(n, *(np.array(col, dtype=np.int32) for col in zip(*sorted(edges))))
        g.validate()
        assert merged_giant_size(base, g) == union_find_giant(base_edges + edges)


def core_schedule_graph(n, seed=1):
    """The coupled simple graph of a core-schedule replica at n."""
    params = model_params(2.5, 1.0, n)
    sch = make_schedule(params, "single", LambdaRule("constant", 10.0))
    return sample_coupled_direct(build_weights(params), sch.pi_n, np.random.default_rng(seed))[1]


def test_int32_labeling_peaks_no_higher_than_int64(monkeypatch):
    # int32 ids go to intp one block at a time, never a whole column: on a
    # core-schedule graph at n = 2e5, cut into 4k-id blocks so that it spans
    # many, labeling int32 ids peaks no higher than labeling int64 ids, whose
    # gathers copy nothing, give or take one block's intp copy.  Whole-column
    # copies read 3.34 against 3.12 MiB; in blocks both read 2.97 MiB, and
    # 2.26 MiB with the edges ranked a block at a time.
    import sfperc.components as components
    monkeypatch.setattr(components, "_HOOK_BLOCK", 1 << 12)
    g = core_schedule_graph(200_000)
    assert g.src.dtype == np.int32 and g.src.size > 16 * components._HOOK_BLOCK
    peaks = []
    for dtype in (np.int32, np.int64):
        h = SimpleGraph(g.n, g.src.astype(dtype), g.dst.astype(dtype))
        component_sizes(h)  # numpy's one-time set-up for this dtype
        tracemalloc.start()
        try:
            component_sizes(h)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] + 8 * components._HOOK_BLOCK


def test_dense_ranking_holds_less_than_the_rank_map():
    # a dense graph is ranked through its mask's bytes and one count per
    # 256-id block, and hands its edges back unranked: on a core-schedule
    # graph at n = 2e5, ranking allocates less beyond the ids it returns,
    # its table and temporaries included, than the 4 (n + 1) bytes an int32
    # rank map takes alone (0.75 of them; 0.69 beyond the ids and ranked
    # edges when it returned those, and 2.31 with the map)
    import sfperc.components as components
    n = 200_000
    g = core_schedule_graph(n)
    assert _SPARSE * g.src.size >= n  # the dense branch
    components._rank(n, g.src, g.dst)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        ids, src, dst, table = components._rank(n, g.src, g.dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert src is g.src and dst is g.dst  # no ranked copy of the edges
    assert peak - ids.nbytes < 4 * (n + 1)


def test_dense_labeling_holds_no_ranked_edges():
    # hooking and the live-ends pass rank a dense graph's edges block by
    # block as they read them, and counts take the ranks' 4 bytes: labeling
    # a core-schedule graph at n = 2e5 peaks at 11.9 B/vertex over the
    # graph, against 20.8 when a ranked copy of the edges (8 B per pair,
    # 5.6 B/vertex here), whole-block intp copies and int64 counts were
    # held; a 4-byte rank table in place of the 1-byte one adds 3 B/vertex
    import sfperc.components as components
    n = 200_000
    g = core_schedule_graph(n)
    assert _SPARSE * g.src.size >= n  # the dense branch
    component_sizes(g)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        summary = component_sizes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.counts.dtype == summary.root.dtype == np.int32
    assert peak / n <= 13.0


# --------------------------------------------------------------------------
# kernel check
# --------------------------------------------------------------------------


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
    with pytest.raises(DomainError):
        kernel_convergence_check(ws, sch, a, [(a, a)])


# --------------------------------------------------------------------------
# core giant, one-neighborhood, full report
# --------------------------------------------------------------------------


def test_one_neighborhood_toy():
    g = simple_from_pairs(8, [(1, 2), (3, 5), (3, 6), (4, 6), (2, 7), (5, 8)])
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
        g = simple_from_pairs(n, pairs)
        members = np.unique(rng.integers(1, core + 1, size=4))
        union = one_neighborhood(g, members, core_size=core)
        per_member = sum(
            len({j for i, j in as_tuples(g) if i == m and j > core}
                | {i for i, j in as_tuples(g) if j == m and i > core})
            for m in members.tolist()
        )
        assert union <= per_member
        inside = set(members.tolist())
        assert union == len({j for i, j in as_tuples(g) if i in inside and j > core})


def test_extract_core_induced_prefix():
    # core_report cuts the core as the subgraph the prefix {1..floor(a N_n)} induces
    params, ws, sch = single_schedule()
    a = 3.5 / sch.N_n  # a core of floor(a N_n) = 3 vertices
    assert core_prefix_size(sch, a) == 3
    # (2, 5) and (4, 6) leave the prefix {1, 2, 3}; inside it 1-2-3 is the giant
    report = core_report(simple_from_pairs(6, [(1, 2), (2, 3), (2, 5), (4, 6)]), ws, sch, a)
    assert report.core_size == 3
    assert report.core_giant_members.tolist() == [1, 2, 3]
    assert report.one_neighborhood_size == 1  # vertex 5 through (2, 5)
    # the prefix's only edge (1, 3) beats the singleton 2; 4 is outside it
    report = core_report(simple_from_pairs(6, [(1, 3), (2, 4), (3, 5), (3, 6)]), ws, sch, a)
    assert report.core_giant_members.tolist() == [1, 3]
    assert report.one_neighborhood_size == 2
    # an empty prefix and one past n are refused
    g = simple_from_pairs(6, [(1, 2)])
    with pytest.raises(DomainError, match="is empty"):
        core_report(g, ws, sch, 0.5 / sch.N_n)
    with pytest.raises(DomainError, match="exceeds n="):
        core_report(g, ws, sch, (params.n + 1.5) / sch.N_n)


def test_core_giant_and_weight_toy():
    params, ws, sch = single_schedule()
    a = 5.5 / sch.N_n  # a core of floor(a N_n) = 5 vertices
    g = simple_from_pairs(6, [(1, 2), (2, 3), (4, 5)])
    report = core_report(g, ws, sch, a)
    assert report.core_giant_size == 3
    assert report.core_giant_members.tolist() == [1, 2, 3]
    expected = sch.pi_n * float(ws.weight(np.arange(1, 4)).sum())
    assert report.core_giant_weight == pytest.approx(expected, rel=1e-12)


def test_core_report_core_without_internal_edge():
    # no edge inside the prefix: every core vertex is a singleton, and the
    # tie goes to the smallest id, vertex 1
    params, ws, sch = single_schedule()
    a = 3.5 / sch.N_n  # a core of floor(a N_n) = 3 vertices
    g = simple_from_pairs(6, [(1, 4), (1, 5), (2, 6), (4, 5)])
    report = core_report(g, ws, sch, a)
    assert report.core_giant_size == 1
    assert report.core_giant_members.tolist() == [1]
    assert report.core_giant_weight == pytest.approx(sch.pi_n * ws.weight(np.array([1]))[0],
                                                     rel=1e-12)
    assert report.one_neighborhood_size == 2


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


def test_core_report_lower_bound_check_fires(monkeypatch):
    # a one-neighborhood larger than the graph breaks |C1*| >= |G| + N1
    params, ws, sch = single_schedule()
    a = 3.5 / sch.N_n  # a core of floor(a N_n) = 3 vertices
    g = simple_from_pairs(6, [(1, 2), (2, 3), (2, 5)])
    monkeypatch.setattr("sfperc.components.one_neighborhood", lambda g_full, *_: g_full.n)
    with pytest.raises(AssertionError, match="smaller than core giant"):
        core_report(g, ws, sch, a)
