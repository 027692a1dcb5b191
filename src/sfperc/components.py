"""Connected components, the high-weight core, and its one-neighborhood.

Components are found in numpy by min-label hooking with pointer jumping
(Shiloach & Vishkin, J. Algorithms 3, 1982) over only the vertices that
touch a non-loop edge: one sort of the endpoints lists them when the edges
are fewer than n / 10, an (n + 1)-length mask otherwise.  A sparse graph's
ids are ranked through an (n + 1)-length map, 4 bytes per id; a dense
graph's through its mask's bytes, reused as each id's offset among the
touched ids of its 256-id block, plus one count per block (a rank
directory after Jacobson, 1989), 1 byte per id, which ranks each block of
edges as it is read, so no ranked copy of a dense graph's edges is held.
Ranked in increasing order, the ids end as a forest in which every rank
points at its component's smallest rank, the component's smallest id.
Hooking makes every rank point at or below itself, so pointer jumping
settles the ranks in cache-sized blocks, in rank order, each block jumping
only within itself once the blocks before it are final; edges go in blocks
too, so labeling holds its ids, its ranks, a sparse graph's edges on them
or a dense graph's table, and a few blocks.  Every other id is
a singleton, so sizes and the giant come from the touched ranks alone, and
a sparse graph is labeled with no pass over all n ids.  The giant is the
largest component, with ties broken by smallest contained vertex id, so
summaries are reproducible run to run.  A summary's per-root counts give the
giant of its graph plus a few more edges at a cost that grows with those alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .graphgen import MultiGraph, SimpleGraph, id_dtype
from .params import PercolationSchedule, WeightSequence, core_prefix_size

_SPARSE = 10  # below n / _SPARSE edges, sorting beats scanning a mask for touched ids
_OFFSET_BITS = 8  # a dense ranking counts touched ids in blocks of 2**8, so offsets fit a byte
# Scatters and gathers copy 2**14 ids to intp at a time: 128 KiB, against
# 1 MiB in _HOOK_BLOCK steps, and no slower.
_OFFSET_BLOCK = 1 << 14
# A dense ranking's edges are ranked and hooked 2**15 at a time, through
# reused buffers: as fast as ranked edges held whole at n = 1e6, where
# 2**14-edge blocks with fresh temporaries took 8-9% longer and 2**17-edge
# blocks hold 1.2 MiB more at a core-1e6 replica's peak.
_EDGE_BLOCK = 1 << 15


class ComponentSummary(NamedTuple):
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
    def giant_members(self) -> np.ndarray:
        """The giant's ids in increasing order; vertex 1 when no edge joins two ids."""
        if not self.ids.size:
            return np.ones(1, dtype=self.ids.dtype)
        return self.ids[self.root == self.giant_root]


def _rank(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[
        np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """The ids in 0..n an edge touches, in increasing order and in
    ``id_dtype(n)``, and the edges with the table that ranks them, as
    (ids, src, dst, table).

    A sparse graph sorts its endpoints to list the ids and ranks its edges
    through an (n + 1)-length map, which it frees: its edges come back as
    ranks, and the table is None.  A dense one lists the ids from an
    (n + 1)-length mask, and the mask's bytes then become an offset table:
    an id's byte holds the number of touched ids below it in its 256-id
    block, at most 255, and ``base`` holds the number below each block, so
    rank(id) = base[id >> 8] + off[id] at one byte per id instead of the
    map's four.  Its edges come back as given, with the table (base, off),
    and each pass over them ranks them a block at a time (``_edge_blocks``),
    so no ranked copy of the edges is held.  An int32 column is copied to
    intp a block at a time, never whole: ``_HOOK_BLOCK`` ids to fill the
    map, ``_OFFSET_BLOCK`` otherwise.
    """
    dtype = id_dtype(n)
    if _SPARSE * src.size < n:
        ends = np.concatenate([src, dst], dtype=dtype)
        ends.sort()
        first = np.empty(ends.size, dtype=bool)
        first[:1] = True
        np.not_equal(ends[1:], ends[:-1], out=first[1:])
        ids = np.compress(first, ends)
        del ends, first  # not held under the map
        # Only touched entries of the rank map are ever read, so it is not
        # zero-filled and its untouched pages are never written.
        rank = np.empty(n + 1, dtype=dtype)
        for r in range(0, ids.size, _HOOK_BLOCK):
            rank[ids[r:r + _HOOK_BLOCK]] = np.arange(r, min(r + _HOOK_BLOCK, ids.size), dtype=dtype)
        return ids, _gather(rank, src), _gather(rank, dst), None
    touched = np.zeros(n + 1, dtype=bool)
    for e in range(0, src.size, _OFFSET_BLOCK):
        for col in (src, dst):
            touched[col[e:e + _OFFSET_BLOCK].astype(np.intp, copy=False)] = True
    # listed a block of the mask at a time, so no intp copy of the ids forms
    ids, r = np.empty(np.count_nonzero(touched), dtype=dtype), 0
    for b in range(0, n + 1, _OFFSET_BLOCK):
        block = np.flatnonzero(touched[b:b + _OFFSET_BLOCK])
        block += b
        ids[r:r + block.size] = block
        r += block.size
    # Only touched bytes of the table are ever read, so the mask's are reused.
    off = touched.view(np.uint8)
    base = np.searchsorted(ids, np.arange(0, n + 1, 1 << _OFFSET_BITS, dtype=dtype)).astype(dtype)
    for r in range(0, ids.size, _OFFSET_BLOCK):
        block = ids[r:r + _OFFSET_BLOCK].astype(np.intp, copy=False)
        off[block] = np.arange(r, r + block.size, dtype=dtype) - base.take(block >> _OFFSET_BITS)
    return ids, src, dst, (base, off)


def _gather(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[index], gathered one ``_OFFSET_BLOCK`` of the index at a time,
    so an int32 index is copied to intp 128 KiB at a time.

    Mode "wrap" spares ``take`` the copy of each output block that mode
    "raise" makes, and gathers the same on indices in [-table.size,
    table.size), as every caller's are.
    """
    out = np.empty(index.size, dtype=table.dtype)
    for e in range(0, index.size, _OFFSET_BLOCK):
        table.take(index[e:e + _OFFSET_BLOCK], out=out[e:e + _OFFSET_BLOCK], mode="wrap")
    return out


def _edge_blocks(src: np.ndarray, dst: np.ndarray,
                 table: tuple[np.ndarray, np.ndarray] | None):
    """The edges as ranks, a block of (src, dst) at a time: ``_HOOK_BLOCK``
    edges as given with no table, else ``_EDGE_BLOCK`` edges ranked through
    a dense ranking's table, rank(id) = base[id >> _OFFSET_BITS] + off[id],
    ``_OFFSET_BLOCK`` ids at a time.  The ranked blocks and the scratch
    they are ranked through are reused from block to block, so a caller
    is done with a block before it asks for the next.
    """
    if table is None:
        for e in range(0, src.size, _HOOK_BLOCK):
            yield src[e:e + _HOOK_BLOCK], dst[e:e + _HOOK_BLOCK]
        return
    base, off = table
    m = min(src.size, _OFFSET_BLOCK)
    index, low = np.empty(m, dtype=np.intp), np.empty(m, dtype=np.uint8)
    s, d = (np.empty(min(src.size, _EDGE_BLOCK), dtype=base.dtype) for _ in range(2))
    for e in range(0, src.size, _EDGE_BLOCK):
        size = min(_EDGE_BLOCK, src.size - e)
        for col, ranks in ((src, s), (dst, d)):
            for f in range(0, size, _OFFSET_BLOCK):
                k = min(_OFFSET_BLOCK, size - f)
                out, ids = ranks[f:f + k], index[:k]
                ids[...] = col[e + f:e + f + k]
                off.take(ids, out=low[:k], mode="wrap")
                ids >>= _OFFSET_BITS
                base.take(ids, out=out, mode="wrap")
                out += low[:k]
        yield s[:size], d[:size]


def _hook(k: int, src: np.ndarray, dst: np.ndarray,
          table: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Each of ranks 0..k-1's root rank, the smallest in its component.

    The edges are ranks, or ids that ``table`` ranks (see ``_rank``).  A
    round hooks the larger endpoint of every edge onto the smaller, so
    that sub[r] <= r, and pointer-jumps until every rank points at a root;
    from the identity forest that needs no gathers and no filter.  The
    roots the still-live edges join are then ranked and hooked alike, so
    later rounds skip every settled rank.  Two rounds at least halve those
    roots, so the recursion is O(log k) deep.  Parallel edges and loops
    need no special case.  Ranks go in blocks of ``_HOOK_BLOCK`` and edges
    as ``_edge_blocks`` hands them out, the same blocks in both passes over
    them, so no temporary grows with the graph.
    """
    sub = np.arange(k, dtype=src.dtype if table is None else table[0].dtype)
    for s, d in _edge_blocks(src, dst, table):
        np.minimum.at(sub, np.maximum(s, d), np.minimum(s, d))
    s = d = None  # a dense ranking's last block, not held through the recursion
    sub = _jump(sub)
    lo, hi = _live_ends(sub, src, dst, table)
    if lo.size:
        roots, *edges = _rank(k - 1, lo, hi)
        del lo, hi  # held on only as a dense ranking's edges
        # A joined root points at its group's smallest root, itself a root,
        # so one jump settles every rank.
        sub[roots] = roots.take(_hook(roots.size, *edges))
        del roots, edges  # not held through the jump
        sub = _jump(sub, settle=False)
    return sub


_HOOK_BLOCK = 1 << 17  # a giant-1e6 graph's ranks and edges fit in one block


def _jump(sub: np.ndarray, settle: bool = True) -> np.ndarray:
    """Pointer-jump a forest with sub[r] <= r once, or until every rank
    points at its root, and return it.

    Blocks go in rank order (Shiloach & Vishkin's pointer jumping, one
    block at a time), in place.  Once the blocks before it are settled, a
    block's ranks point at settled ranks or into the block itself, so its
    jumps gather nothing that a later block changes.
    """
    for r in range(0, sub.size, _HOOK_BLOCK):
        block = sub[r:r + _HOOK_BLOCK]
        jumped = _gather(sub, block)
        while settle and not np.array_equal(jumped, block):
            block[...] = jumped
            del jumped  # not held beside the next gather
            jumped = _gather(sub, block)
        block[...] = jumped
    return sub


def _live_ends(sub: np.ndarray, src: np.ndarray, dst: np.ndarray,
               table: tuple[np.ndarray, np.ndarray] | None):
    """The root pairs (sub[src], sub[dst]) of the edges whose roots differ,
    the edges ranked through ``table`` if one is given."""
    ends = [(sub[:0], sub[:0])]  # one pair at least, if no edge is given
    for s, d in _edge_blocks(src, dst, table):
        a, b = _gather(sub, s), _gather(sub, d)
        live = a != b
        # np.compress is ~4x faster than a boolean index on these masks
        ends.append((np.compress(live, a), np.compress(live, b)))
    return tuple(np.concatenate(col) for col in zip(*ends))


def component_sizes(g: MultiGraph | SimpleGraph) -> ComponentSummary:
    """Components of the graph; loops and multiplicities are ignored."""
    # Loops join nothing; dropping them first keeps the hooking rounds small.
    # A simple graph has none, so it is ranked without copies.
    live = slice(None) if isinstance(g, SimpleGraph) else g.src != g.dst
    ids, *edges = _rank(g.n, g.src[live], g.dst[live])
    root = _hook(ids.size, *edges)
    del edges
    # np.bincount(root) would first copy root to intp; add.at does not.  A
    # typed increment keeps add.at on its fast path for int32 counts.
    counts = np.zeros(int(root.max(initial=-1)) + 1, dtype=root.dtype)
    np.add.at(counts, root, root.dtype.type(1))
    if int(counts.sum()) != ids.size:
        raise AssertionError("component sizes do not partition the vertex set")
    # every rank points at a root exactly when each counted rank is its own root
    fixed = 0
    for r in range(0, root.size, _HOOK_BLOCK):
        block = root[r:r + _HOOK_BLOCK]
        fixed += np.count_nonzero(block == np.arange(r, r + block.size, dtype=root.dtype))
    if np.count_nonzero(counts) != fixed:
        raise AssertionError("a rank points at a rank that is not its own root")
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
    # in the ids' dtype, or searchsorted would copy all of them to the pairs'
    ends = np.concatenate([g.src[live], g.dst[live]], dtype=base.ids.dtype)
    pos = np.searchsorted(base.ids, ends)
    known = pos < base.ids.size
    known[known] = base.ids[pos[known]] == ends[known]
    # Untouched ids sit past every rank, so no node key is shared by both
    # kinds; id + |ids| can pass 2**31, so the keys are formed in int64.
    key = np.add(ends, base.ids.size, dtype=np.int64)
    key[known] = base.root[pos[known]]
    nodes, node = np.unique(key, return_inverse=True)
    size = np.ones(nodes.size, dtype=np.int64)
    rooted = nodes < base.ids.size
    size[rooted] = base.counts[nodes[rooted]]
    group = np.zeros(nodes.size, dtype=np.int64)
    np.add.at(group, _hook(nodes.size, *np.split(node, 2)), size)
    return max(base.giant_size, int(group.max(initial=0)))


# --------------------------------------------------------------------------
# the level-a core: its giant, the giant's weight, and its one-neighborhood
# --------------------------------------------------------------------------


def one_neighborhood(g_full: SimpleGraph, members: np.ndarray, core_size: int) -> int:
    """Number of vertices outside {1..core_size} adjacent to the given core set."""
    members = np.asarray(members, dtype=np.int64)
    if members.size and (members.min() < 1 or members.max() > core_size):
        raise DomainError("members must lie inside the core prefix")
    # src < dst, so a core-outside edge always has src in the core side, and
    # as pairs are sorted, those edges lie in the prefix with src <= core_size.
    end = int(np.searchsorted(g_full.src, core_size, side="right"))
    inside = np.zeros(core_size + 1, dtype=bool)
    inside[members] = True
    mask = g_full.dst[:end] > core_size
    mask &= _gather(inside, g_full.src[:end])
    # Distinct neighbours are counted on a sorted copy: numpy >= 2.3 answers
    # np.unique on integers with a hash set, ~60x slower here than the sort
    # and, through its scattered memory access, far less steady run to run.
    outside = np.sort(np.compress(mask, g_full.dst[:end]))
    return int(outside.size and 1 + np.count_nonzero(outside[1:] != outside[:-1]))


class CoreReport(NamedTuple):
    """Summary of one core analysis at level a: the core giant G (its size,
    its percolated weight pi_n * sum_G w_i and its ids in increasing order)
    and the one-neighborhood N1 of G."""

    core_size: int
    core_giant_size: int
    core_giant_weight: float
    one_neighborhood_size: int
    core_giant_members: np.ndarray


def core_report(g_full: SimpleGraph, weights: WeightSequence,
                schedule: PercolationSchedule, a: float) -> CoreReport:
    """Label the core {1..floor(a N_n)} of a percolated simple graph and summarize it.

    The core is the subgraph the prefix induces.  Also asserts the
    deterministic lower-bound chain: the largest component of the full graph
    is at least the core giant plus its one-neighborhood.
    """
    core_size = core_prefix_size(schedule, a)
    keep = g_full.dst <= core_size  # src < dst, so this bounds both endpoints
    core = component_sizes(SimpleGraph(n=core_size, src=g_full.src[keep], dst=g_full.dst[keep]))
    size, members = core.giant_size, core.giant_members
    del keep, core  # not held through the full-graph labeling
    weight = float(schedule.pi_n * weights.weight(members).sum())
    n1 = one_neighborhood(g_full, members, core_size)
    if component_sizes(g_full).giant_size < size + n1:
        raise AssertionError(
            "largest full-graph component is smaller than core giant + one-neighborhood"
        )
    return CoreReport(core_size=core_size, core_giant_size=size, core_giant_weight=weight,
                      one_neighborhood_size=n1, core_giant_members=members)
