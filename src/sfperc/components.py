"""Connected components, the high-weight core, and its one-neighborhood.

Components are found in numpy by min-label hooking with pointer jumping
(Shiloach & Vishkin, J. Algorithms 3, 1982) over only the vertices that
touch a non-loop edge.  Those ids are ranked in increasing order, and the
forest on the ranks ends with every rank pointing at its component's
smallest rank, which is the component's smallest id.  Every other id is a
singleton, so sizes and the giant come from the touched ranks alone and no
pass over all n ids is needed beyond finding the touched ones.  The giant is
the largest component, with ties broken by smallest contained vertex id, so
summaries are reproducible run to run.  A summary's per-root counts give the
giant of its graph plus a few more edges at a cost that grows with those alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .graphgen import MultiGraph, SimpleGraph
from .params import PercolationSchedule, WeightSequence, core_prefix_size


@dataclass(frozen=True)
class ComponentSummary:
    """The rank forest of a graph on ids 1..n with its giant and runner-up.

    ``ids`` are the ids a non-loop edge touches, in increasing order,
    ``root[r]`` is the rank of the smallest id in rank r's component,
    ``counts[r]`` is the size of the component rooted at rank r (0 off the
    roots), and ``giant_root`` is the giant's root rank when ``ids`` is not
    empty.
    """

    n: int
    ids: np.ndarray
    root: np.ndarray
    counts: np.ndarray
    giant_root: int
    giant_size: int
    second_size: int

    @property
    def sizes(self) -> np.ndarray:
        """All component sizes in non-increasing order, as int64."""
        large = np.sort(self.counts[self.counts > 0])[::-1]
        sizes = np.ones(self.n - self.ids.size + large.size, dtype=np.int64)
        sizes[:large.size] = large
        return sizes

    @property
    def giant_members(self) -> np.ndarray:
        """The giant's ids in increasing order; vertex 1 when no edge joins two ids."""
        if not self.ids.size:
            return np.ones(1, dtype=np.int64)
        return self.ids[self.root == self.giant_root]


def _rank(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ids in 0..n an edge touches, in increasing order, and the edges on their ranks."""
    dtype = np.int32 if n < 2**31 - 1 else np.int64
    touched = np.zeros(n + 1, dtype=bool)
    touched[src] = True
    touched[dst] = True
    ids = np.flatnonzero(touched)
    del touched
    # Only touched entries of the rank map are ever read, so the zeroed
    # array needs no pass over the rest.
    rank = np.zeros(n + 1, dtype=dtype)
    rank[ids] = np.arange(ids.size, dtype=dtype)
    return ids, rank[src], rank[dst]


def _hook(k: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each of ranks 0..k-1's root rank, the smallest in its component.

    A round hooks the larger endpoint of every edge onto the smaller and
    pointer-jumps until every rank points at a root; from the identity
    forest that needs no gathers and no filter.  The roots the still-live
    edges join are then ranked and hooked alike, so later rounds skip every
    settled rank.  Two rounds at least halve those roots, so the recursion
    is O(log k) deep.  Parallel edges and loops need no special case.
    """
    sub = np.arange(k, dtype=src.dtype)
    np.minimum.at(sub, np.maximum(src, dst), np.minimum(src, dst))
    while not np.array_equal(jumped := sub[sub], sub):
        sub = jumped
    lo, hi = sub[src], sub[dst]
    live = lo != hi
    if live.any():
        roots, src, dst = _rank(k - 1, lo[live], hi[live])
        del lo, hi, live  # not held through the later rounds
        # A joined root points at its group's smallest root, itself a root,
        # so one jump settles every rank.
        sub[roots] = roots[_hook(roots.size, src, dst)]
        sub = sub[sub]
    return sub


def component_sizes(g: MultiGraph | SimpleGraph) -> ComponentSummary:
    """Components of the graph; loops and multiplicities are ignored."""
    # Loops join nothing; dropping them first keeps the hooking rounds small.
    live = g.src != g.dst
    ids, src, dst = _rank(g.n, g.src[live], g.dst[live])
    root = _hook(ids.size, src, dst)
    counts = np.bincount(root)
    if int(counts.sum()) != ids.size:
        raise AssertionError("component sizes do not partition the vertex set")
    if ids.size:
        # The first maximal count is the largest component holding the smallest id.
        giant = int(np.argmax(counts))
        giant_size = int(counts[giant])
        counts[giant] = 0
        second = int(counts.max())
        counts[giant] = giant_size
    else:
        giant, giant_size, second = 0, 1, 0
    # Every component past the touched ones is a singleton.
    if second == 0 and g.n > giant_size:
        second = 1
    return ComponentSummary(n=g.n, ids=ids, root=root, counts=counts, giant_root=giant,
                            giant_size=giant_size, second_size=second)


def merged_giant_size(base: ComponentSummary, g: MultiGraph | SimpleGraph) -> int:
    """Giant size of the union of ``base``'s graph and ``g`` on the same ids.

    Each endpoint of ``g``'s non-loop pairs stands for its base root, or for
    itself if no base edge touches it.  Hooking those nodes groups the base
    components ``g`` joins, and a group's size is the sum of its nodes'
    counts.  Every other base component keeps its size, and a group is at
    least as large as each base component in it, so the larger of the base
    giant and the largest group is the union's giant.  The cost grows with
    ``g``'s pairs alone.
    """
    if base.n != g.n:
        raise DomainError(f"base summary is on n = {base.n} ids, the graph on {g.n}")
    live = g.src != g.dst
    ends = np.concatenate([g.src[live], g.dst[live]])
    pos = np.searchsorted(base.ids, ends)
    known = pos < base.ids.size
    known[known] = base.ids[pos[known]] == ends[known]
    # Untouched ids sit past every rank, so no node key is shared by both kinds.
    key = ends + base.ids.size
    key[known] = base.root[pos[known]]
    nodes, node = np.unique(key, return_inverse=True)
    size = np.ones(nodes.size, dtype=np.int64)
    rooted = nodes < base.ids.size
    size[rooted] = base.counts[nodes[rooted]]
    group = np.zeros(nodes.size, dtype=np.int64)
    np.add.at(group, _hook(nodes.size, *np.split(node, 2)), size)
    return max(base.giant_size, int(group.max(initial=0)))


# --------------------------------------------------------------------------
# core extraction
# --------------------------------------------------------------------------


def extract_core(g: SimpleGraph, core_size: int) -> SimpleGraph:
    """Induced subgraph on the top-weight prefix {1, ..., core_size}."""
    if not (1 <= core_size <= g.n):
        raise RangeError(f"core size {core_size} outside [1, {g.n}]")
    keep = g.dst <= core_size  # src < dst, so this bounds both endpoints
    return SimpleGraph(n=core_size, src=g.src[keep].copy(), dst=g.dst[keep].copy())


# --------------------------------------------------------------------------
# core giant, its percolated weight, and the one-neighborhood
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreGiant:
    """Largest component of the core with its percolated weight sum."""

    size: int
    weight: float
    members: np.ndarray


def core_giant_and_weight(g_core: SimpleGraph, weights: WeightSequence,
                          schedule: PercolationSchedule) -> CoreGiant:
    """Largest core component and its percolated weight sum_{i in giant} pi_n w_i."""
    summary = component_sizes(g_core)
    members = summary.giant_members
    weight = float(schedule.pi_n * weights.weights[members - 1].sum())
    return CoreGiant(size=summary.giant_size, weight=weight, members=members)


def one_neighborhood(g_full: SimpleGraph, members: np.ndarray, core_size: int) -> int:
    """Number of vertices outside {1..core_size} adjacent to the given core set."""
    members = np.asarray(members, dtype=np.int64)
    if members.size and (members.min() < 1 or members.max() > core_size):
        raise DomainError("members must lie inside the core prefix")
    # src < dst, so a core-outside edge always has src in the core side.
    mask = (g_full.dst > core_size) & np.isin(g_full.src, members)
    # Distinct neighbours are counted on a sorted copy: numpy >= 2.3 answers
    # np.unique on integers with a hash set, ~60x slower here than the sort
    # and, through its scattered memory access, far less steady run to run.
    outside = np.sort(g_full.dst[mask])
    return int(outside.size and 1 + np.count_nonzero(outside[1:] != outside[:-1]))


@dataclass(frozen=True)
class CoreReport:
    """Summary of one core analysis at level a."""

    core_size: int
    core_giant_size: int
    core_giant_weight: float
    one_neighborhood_size: int


def core_report(g_full: SimpleGraph, weights: WeightSequence,
                schedule: PercolationSchedule, a: float) -> CoreReport:
    """Extract the level-a core from a percolated simple graph and summarize it.

    Also asserts the deterministic lower-bound chain: the component of the
    full graph containing the core giant is at least the core giant plus its
    one-neighborhood.
    """
    core_size = core_prefix_size(schedule, a)
    g_core = extract_core(g_full, core_size)
    giant = core_giant_and_weight(g_core, weights, schedule)
    n1 = one_neighborhood(g_full, giant.members, core_size)
    full_summary = component_sizes(g_full)
    if full_summary.giant_size < giant.size + n1:
        raise AssertionError(
            "largest full-graph component is smaller than core giant + one-neighborhood"
        )
    return CoreReport(core_size=core_size, core_giant_size=giant.size,
                      core_giant_weight=giant.weight, one_neighborhood_size=n1)

