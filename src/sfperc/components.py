"""Connected components, the high-weight core, and its one-neighborhood.

Components are found in numpy by min-label hooking with pointer jumping
(Shiloach & Vishkin, J. Algorithms 3, 1982) over only the vertices that
touch a non-loop edge.  Those ids are ranked in increasing order, and the
forest on the ranks ends with every rank pointing at its component's
smallest rank, which is the component's smallest id.  Every other id is a
singleton, so sizes and the giant come from the touched ranks alone and no
pass over all n ids is needed beyond finding the touched ones.  The giant is
the largest component, with ties broken by smallest contained vertex id, so
summaries are reproducible run to run.
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

    ``ids`` are the ids a non-loop edge touches, in increasing order, and
    ``root[r]`` is the rank of the smallest id in rank r's component.
    """

    n: int
    ids: np.ndarray
    root: np.ndarray
    giant_size: int
    second_size: int
    giant_members: np.ndarray

    @property
    def sizes(self) -> np.ndarray:
        """All component sizes in non-increasing order, as int64."""
        counts = np.bincount(self.root)
        large = np.sort(counts[counts > 0])[::-1]
        sizes = np.ones(self.n - self.ids.size + large.size, dtype=np.int64)
        sizes[:large.size] = large
        return sizes


def _rank_forest(n: int, src: np.ndarray, dst: np.ndarray,
                 base: ComponentSummary | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Touched ids in increasing order and each rank's root rank.

    ``base``'s forest, if given, seeds the ranks, so the result is the forest
    of the union of both graphs' edges.  Its ids are extended by the ones
    only the new edges touch, which costs nothing per untouched id.
    """
    # Loops join nothing; dropping them first keeps the hooking rounds small.
    live = src != dst
    src, dst = src[live], dst[live]
    dtype = np.int32 if n < 2**31 - 1 else np.int64
    if base is None:
        touched = np.zeros(n + 1, dtype=bool)
        touched[src] = True
        touched[dst] = True
        ids = np.flatnonzero(touched)
        del touched
        # Only touched entries of the rank map are ever read, so the zeroed
        # array needs no pass over the rest.
        rank = np.zeros(n + 1, dtype=dtype)
        rank[ids] = np.arange(ids.size, dtype=dtype)
        src, dst = rank[src], rank[dst]
        del rank
        sub = np.arange(ids.size, dtype=dtype)
    else:
        ends = np.concatenate([src, dst])
        pos = np.searchsorted(base.ids, ends)
        known = pos < base.ids.size
        known[known] = base.ids[pos[known]] == ends[known]
        new = np.unique(ends[~known])
        at = np.searchsorted(base.ids, new)
        # Inserting keeps ids increasing, so a base root stays its
        # component's smallest rank once shifted past the new ids below it.
        ids = np.insert(base.ids, at, new)
        moved = np.repeat(np.arange(new.size + 1, dtype=dtype),
                          np.diff(at, prepend=0, append=base.ids.size))
        moved += np.arange(base.ids.size, dtype=dtype)
        sub = np.insert(moved[base.root], at, at + np.arange(new.size, dtype=dtype))
        src, dst = np.searchsorted(ids, src), np.searchsorted(ids, dst)
    return ids, _hook(sub, src, dst)


def _hook(sub: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Each rank's root rank, from the forest ``sub`` and the edges on ranks.

    Each round hooks the larger endpoint root of every edge onto the smaller
    and pointer-jumps until every rank points at a root.  Roots only fall
    and every round removes one, so the loop ends; parallel edges need no
    special case.
    """
    while True:
        lo, hi = sub[src], sub[dst]
        live = lo != hi
        if not live.any():
            break
        src, dst, lo, hi = src[live], dst[live], lo[live], hi[live]
        np.minimum.at(sub, np.maximum(lo, hi), np.minimum(lo, hi))
        while not np.array_equal(jumped := sub[sub], sub):
            sub = jumped
    return sub


def component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest vertex id in each vertex's component, indexed by id 0..n.

    Labels are int32 when n < 2**31 - 1, else int64; every id no non-loop
    edge touches labels itself.
    """
    ids, root = _rank_forest(n, src, dst)
    label = np.arange(n + 1, dtype=root.dtype)
    label[ids] = ids[root]
    return label


def component_sizes(g: MultiGraph | SimpleGraph,
                    base: ComponentSummary | None = None) -> ComponentSummary:
    """Components of the graph; loops and multiplicities are ignored.

    ``base``, the summary of another graph on the same ids, adds that
    graph's edges: its forest seeds the labelling, and the cost beyond
    copying it grows with ``g``'s edges alone.  The coupled multigraph is
    labelled as its simple graph's summary plus the pairs that graph dropped.
    """
    if base is not None and base.n != g.n:
        raise DomainError(f"base summary is on n = {base.n} ids, the graph on {g.n}")
    ids, root = _rank_forest(g.n, g.src, g.dst, base)
    counts = np.bincount(root)
    if int(counts.sum()) != ids.size:
        raise AssertionError("component sizes do not partition the vertex set")
    if ids.size:
        # The first maximal count is the largest component holding the smallest id.
        giant = int(np.argmax(counts))
        giant_size = int(counts[giant])
        giant_members = ids[root == giant]
        counts[giant] = 0
        second = int(counts.max())
    else:
        giant_size, second = 1, 0
        giant_members = np.ones(1, dtype=np.int64)
    # Every component past the touched ones is a singleton.
    if second == 0 and g.n > giant_size:
        second = 1
    return ComponentSummary(n=g.n, ids=ids, root=root, giant_size=giant_size,
                            second_size=second, giant_members=giant_members)


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

