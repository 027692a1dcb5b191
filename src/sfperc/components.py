"""Connected components, the high-weight core, and its one-neighborhood.

Components are labelled in numpy by min-label hooking with pointer jumping
(Shiloach & Vishkin, J. Algorithms 3, 1982), so every vertex carries the
smallest id in its component.  Only the vertices that touch a non-loop edge
take part: they are ranked in id order, labelled on the compact ranks and
scattered back, and because ranking is monotone the smallest rank of a
component is its smallest id.  The giant is the largest component, with ties
broken by smallest contained vertex id, so summaries are reproducible run to
run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .graphgen import MultiGraph, SimpleGraph
from .params import PercolationSchedule, WeightSequence, core_prefix_size


@dataclass(frozen=True)
class ComponentSummary:
    """Component sizes in non-increasing order plus the giant's membership."""

    sizes: np.ndarray
    giant_members: np.ndarray
    second_size: int

    @property
    def giant_size(self) -> int:
        return int(self.sizes[0])


def component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Smallest vertex id in each vertex's component, indexed by id 0..n.

    Labels are int32 when n < 2**31 - 1, else int64.

    Only the ids a non-loop edge touches take part, under their rank in
    increasing id order.  Each round hooks the larger endpoint label of
    every edge onto the smaller and pointer-jumps until every label is a
    root.  Labels only fall and every round removes a root, so the loop
    ends; parallel edges need no special case.  Ranking is monotone, so a
    component's smallest rank maps back to its smallest id, and every
    untouched id labels itself.
    """
    # Loops join nothing; dropping them first keeps merge_labels' contracted
    # graph, which is mostly loops, small.
    live = src != dst
    src, dst = src[live], dst[live]
    touched = np.zeros(n + 1, dtype=bool)
    touched[src] = True
    touched[dst] = True
    ids = np.flatnonzero(touched)
    rank = np.cumsum(touched, dtype=np.int32 if n < 2**31 - 1 else np.int64)
    rank -= 1
    src, dst = rank[src], rank[dst]
    sub = np.arange(ids.size, dtype=rank.dtype)
    while True:
        lo, hi = sub[src], sub[dst]
        live = lo != hi
        if not live.any():
            break
        src, dst, lo, hi = src[live], dst[live], lo[live], hi[live]
        np.minimum.at(sub, np.maximum(lo, hi), np.minimum(lo, hi))
        while not np.array_equal(jumped := sub[sub], sub):
            sub = jumped
    label = np.arange(n + 1, dtype=rank.dtype)
    label[ids] = ids[sub]
    return label


def merge_labels(labels: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component labels after adding the edges (src, dst) to a labelled graph.

    Each labelled component contracts onto its label, the smallest id it
    holds, so labelling the contracted edges and reading the result back
    through ``labels`` gives the supergraph's smallest ids.
    """
    return component_labels(labels.size - 1, labels[src], labels[dst])[labels]


def component_sizes(g: MultiGraph | SimpleGraph,
                    labels: np.ndarray | None = None) -> ComponentSummary:
    """All component sizes of the graph; loops and multiplicities are ignored.

    ``labels``, if given, are the graph's ``component_labels`` (length n + 1).
    """
    if labels is None:
        labels = component_labels(g.n, g.src, g.dst)
    elif labels.shape != (g.n + 1,):
        raise DomainError(f"labels must have length n + 1 = {g.n + 1}, got {labels.shape}")
    labels = labels[1:]
    # A label is its component's smallest id, which labels itself, so only
    # the other members are counted: bincount over all labels would make an
    # n-length intp copy of int32 labels.
    joined = np.compress(labels != np.arange(1, g.n + 1, dtype=labels.dtype), labels)
    others = np.bincount(joined)
    # The first maximal count is the largest component holding the smallest id.
    giant = np.argmax(others) if joined.size else 1
    # Most components are isolated vertices: sort only the larger sizes and
    # fill the rest of the non-increasing order with ones.
    large = np.sort(others[others > 0]) + 1
    del others
    sizes = np.ones(g.n - joined.size, dtype=np.int64)
    sizes[:large.size] = large[::-1]
    giant_members = np.nonzero(labels == giant)[0] + 1
    second = int(sizes[1]) if sizes.size > 1 else 0
    if int(sizes.sum()) != g.n:
        raise AssertionError("component sizes do not partition the vertex set")
    return ComponentSummary(sizes=sizes, giant_members=giant_members, second_size=second)


# --------------------------------------------------------------------------
# core extraction and kernel convergence
# --------------------------------------------------------------------------


def extract_core(g: SimpleGraph, core_size: int) -> SimpleGraph:
    """Induced subgraph on the top-weight prefix {1, ..., core_size}."""
    if not (1 <= core_size <= g.n):
        raise RangeError(f"core size {core_size} outside [1, {g.n}]")
    keep = g.dst <= core_size  # src < dst, so this bounds both endpoints
    return SimpleGraph(n=core_size, src=g.src[keep].copy(), dst=g.dst[keep].copy())


@dataclass(frozen=True)
class KernelCheckEntry:
    """One (u, v) evaluation of the finite-n core kernel against its limit."""

    u: float
    v: float
    empirical: float
    limit: float

    @property
    def ratio(self) -> float:
        return self.empirical / self.limit


def kernel_convergence_check(weights: WeightSequence, schedule: PercolationSchedule,
                             a: float, grid) -> list[KernelCheckEntry]:
    """Compare N_n(a) * p_edge(ceil(N_n u), ceil(N_n v)) with the limit kernel
    kappa_a(u, v) = a * (c_F^2 / mu) * (u v)^(-alpha) on a grid of type pairs.

    The edge probability is the percolated simple-graph one,
    pi_n * (1 - exp(-w_i w_j / ell_n)).
    """
    if schedule.mode != "single":
        raise DomainError("kernel check needs a single-mode schedule")
    params = schedule.params
    n_a = core_prefix_size(schedule, a)
    out = []
    for u, v in grid:
        if not (0.0 < u <= a and 0.0 < v <= a):
            raise DomainError(f"grid point ({u}, {v}) outside (0, a]^2 with a={a}")
        i = int(np.ceil(schedule.N_n * u))
        j = int(np.ceil(schedule.N_n * v))
        if i > weights.n or j > weights.n:
            raise RangeError(f"grid point ({u}, {v}) indexes past n={weights.n}")
        wi = weights.weight_of(i)
        wj = weights.weight_of(j)
        p_edge = schedule.pi_n * -np.expm1(-wi * wj / weights.ell_n)
        limit = a * params.c_F**2 / params.mu * (u * v) ** (-params.alpha)
        out.append(KernelCheckEntry(u=float(u), v=float(v),
                                    empirical=float(n_a * p_edge), limit=float(limit)))
    return out


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

