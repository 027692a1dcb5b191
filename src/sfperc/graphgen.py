"""Sampling of the Poissonian rank-one multigraph and its percolated variants.

Sampling is Poissonized throughout: the total number of edge slots is
Poisson(ell_n / 2) and both endpoints of each slot are i.i.d. size-biased
marks, which makes the per-pair multiplicities independent Poissons with
rate w_i * w_j / ell_n (and w_i^2 / (2*ell_n) for self-loops).  The marks
follow the bounded Zipf law P(M = i) proportional to i**-alpha, drawn exactly
by rejection-inversion from (n, alpha) alone, with no per-vertex table.

Percolation by pi is equivalent to sampling with weights pi * w, which is
what the "direct" samplers exploit.  The coupled simple-graph and multigraph
percolations share the event "some copy of the pair is kept", so the former
is always a subgraph of the latter.  ``percolate_coupled`` realizes that on
a raw multigraph; ``sample_coupled_direct`` draws the same joint law from
the percolated multigraph alone.  By Poisson thinning, a non-loop pair with
c kept copies keeps its simple edge with a probability s(c, lam) that
averages over the Poisson(lam) copies percolation discarded, so one uniform
per pair decides it; s is evaluated only for the few pairs where that
uniform could fail it, chunk by chunk.  A threshold on the id product i*j,
found once per call, passes most pairs without evaluating their rate.  The
sampler also hands back the non-loop pairs the simple graph dropped.

The mark draws and the pair keys run in cache-sized blocks, the marks
written over their uniforms and the keys over the first endpoints, so a
sampler holds little beyond its outputs.  Those outputs keep their vertex
ids in ``id_dtype(n)``, 4 bytes each below n = 2**31 - 1; every value that
can pass 2**31, such as an id product, is formed in int64.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .params import WeightSequence, check_total_weight


def id_dtype(n: int) -> np.dtype:
    """The dtype of vertex ids on 1..n, and of labeling's ranks: int32 while
    it holds n + 1, the length of the rank map, else int64."""
    return np.dtype(np.int32 if n < 2**31 - 1 else np.int64)


class MultiGraph(NamedTuple):
    """Multigraph on vertices 1..n as a sorted list of pairs with multiplicities.

    ``src[k] <= dst[k]`` for every k, pairs are unique and lexicographically
    sorted, multiplicities are >= 1.  Self-loops keep src == dst.  The
    samplers give the endpoints ``id_dtype(n)`` and the multiplicities
    ``id_dtype(slots)``, as none exceeds the slot count: 12 B per pair below
    2**31 - 1 ids and slots.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    mult: np.ndarray

    def validate(self) -> None:
        """Structural invariants: column shapes and dtypes, multiplicities >= 1, ranges, order."""
        _check_pairs(self)


class SimpleGraph(NamedTuple):
    """Simple graph on vertices 1..n: unique sorted pairs with src < dst, no loops."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    def validate(self) -> None:
        """Structural invariants: column shapes, endpoint ranges, src < dst, order."""
        _check_pairs(self)


def _check_pairs(g: MultiGraph | SimpleGraph) -> None:
    """1-D signed-integer columns of one length (endpoints, and a multigraph's
    multiplicities, each >= 1), endpoints of one dtype that holds n + 1, as
    ``id_dtype(n)`` and int64 do, endpoints in [1, n], src <= dst (src < dst
    in a simple graph), pairs sorted and unique.

    This is what the degree-sum identity sum_v deg(v) = 2 * sum(mult) reduces
    to: ``np.add.at`` over integer columns of one length satisfies it
    always, so only a column of the wrong length or dtype could break it.
    """
    loops = isinstance(g, MultiGraph)
    for col in (g.src, g.dst, g.mult) if loops else (g.src, g.dst):
        if col.ndim != 1 or col.dtype.kind != "i" or col.shape != g.src.shape:
            raise AssertionError("pairs need 1-D signed-integer columns of one length")
    if g.src.dtype != g.dst.dtype or np.iinfo(g.src.dtype).max <= g.n:
        raise AssertionError(f"endpoints need one dtype that holds n + 1 = {g.n + 1}")
    if loops and np.any(g.mult < 1):
        raise AssertionError("multiplicities must be >= 1")
    if g.src.size:
        if g.src.min() < 1 or g.dst.max() > g.n:
            raise AssertionError(f"edge endpoint outside [1, {g.n}]")
        if np.any(g.src > g.dst if loops else g.src >= g.dst):
            raise AssertionError(f"pairs need src {'<=' if loops else '<'} dst")
        key = g.src * np.int64(g.n + 1)
        key += g.dst
        if np.any(key[1:] <= key[:-1]):
            raise AssertionError("pairs are not sorted and unique")


# --------------------------------------------------------------------------
# mark sampling and the Poissonized edge generator
# --------------------------------------------------------------------------

# Draws per block of the mark and key passes, and pairs per chunk of the
# coupled sampler's screen.  A giant-1e6 graph's ~59k slots fit in one block,
# so its sampler makes no more numpy calls than unblocked.
_MARK_BLOCK = 1 << 16


def draw_marks(weights: WeightSequence, size: int, rng) -> np.ndarray:
    """i.i.d. size-biased marks, P(M = i) = w_i / ell_n, as 1-based vertex ids."""
    if size < 0:
        raise DomainError(f"sample size must be nonnegative, got {size}")
    return _zipf(weights.n, weights.alpha, size, rng)


def _zipf(n: int, alpha: float, size: int, rng) -> np.ndarray:
    """Exact draws of P(M = i) proportional to h(i) = i**-alpha, i = 1..n, 0 <= alpha < 1.

    Rejection-inversion (Hormann & Derflinger, ACM TOMACS 6(3), 1996): with
    H the integral of h from 1, u uniform on (H(1.5) - 1, H(n + 0.5)] gives
    x = H^-1(u) and k = floor(x + 0.5).  As h is convex, k is kept when u >=
    H(k + 0.5) - h(k), an interval of length h(k) inside k's share of the
    range; k - x <= s implies that.  Rejected draws are drawn again, all in
    one call after the first pass.

    The uniforms come from one ``rng.random(size)`` call, and the marks are
    written over them as int64: the transcendental passes run on blocks of
    ``_MARK_BLOCK`` draws in two block buffers, so the draw holds 8 B per
    mark and a few blocks, and every block stays in cache.
    """
    # H(x) = expm1(b log x) / b and H^-1(y) = exp(log1p(b y) / b)
    b = 1.0 - alpha
    lo, hi = math.expm1(b * math.log(1.5)) / b - 1.0, math.expm1(b * math.log(n + 0.5)) / b
    s = 2.0 - math.exp(math.log1p(math.expm1(b * math.log(2.5)) - b * 2.0 ** -alpha) / b)
    u = rng.random(size)
    marks = u.view(np.int64)
    k, x = np.empty(min(size, _MARK_BLOCK)), np.empty(min(size, _MARK_BLOCK))
    rejected = []
    for start in range(0, size, _MARK_BLOCK):
        ub = u[start:start + _MARK_BLOCK]  # the block's uniforms, then its marks
        kb, xb = k[:ub.size], x[:ub.size]
        ub *= lo - hi
        ub += hi
        np.multiply(ub, b, out=xb)
        np.log1p(xb, out=xb)
        xb /= b
        np.exp(xb, out=xb)
        np.add(xb, 0.5, out=kb)
        np.floor(kb, out=kb)
        # x > 0.5 throughout, as the integral of h over [0.5, 1.5] exceeds h(1)
        # = 1, so only rounding past n + 0.5 needs a clip.
        np.minimum(kb, n, out=kb)
        np.subtract(kb, xb, out=xb)  # k - x
        reject = np.flatnonzero(xb > s)
        if reject.size:
            kr = kb[reject]
            reject = reject[ub[reject] < np.expm1(b * np.log(kr + 0.5)) / b - kr ** -alpha]
            rejected.append(reject + start)
        marks[start:start + ub.size] = kb
    if rejected:
        reject = np.concatenate(rejected)
        marks[reject] = _zipf(n, alpha, reject.size, rng)
    return marks


def _aggregate_pairs(n: int, a: np.ndarray, b: np.ndarray):
    """Canonicalize int64 endpoint arrays on ids 1..n into sorted unique
    (src, dst, mult), the endpoints in ``id_dtype(n)`` and the
    multiplicities in ``id_dtype`` of the slot count.

    Both arrays are consumed: the pair keys are built in ``a`` and sorted
    there.  A caller that keeps no name for them lets ``b`` go before the
    sort and ``a`` once the keys are split.  The keys are split straight
    into the endpoint columns, cast in the ufuncs' buffers, so no 8-byte
    column is formed beside them.  Repeated slots are few, so they are
    listed, dropped from the columns and counted onto a multiplicity of one.
    """
    key = _pair_keys(a, b)
    del a, b
    key.sort()
    repeat = np.flatnonzero(key[1:] == key[:-1])  # slot repeat[t] + 1 repeats its left neighbour
    dtype = id_dtype(n)
    src, dst = np.empty(key.size, dtype), np.empty(key.size, dtype)
    np.right_shift(key, 32, out=src, casting="unsafe")
    np.bitwise_and(key, 0xFFFFFFFF, out=dst, casting="unsafe")
    del key
    src, dst = np.delete(src, repeat + 1), np.delete(dst, repeat + 1)
    # A multiplicity is at most the slot count, the pairs plus the repeats;
    # a typed increment keeps add.at off its slow path into int32.
    mult = np.ones(src.size, dtype=id_dtype(src.size + repeat.size))
    # t dropped slots precede slot repeat[t] + 1, so its pair is the one at repeat[t] - t
    np.add.at(mult, repeat - np.arange(repeat.size), mult.dtype.type(1))
    return src, dst, mult


def _pair_keys(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The uint64 keys min(a, b) << 32 | max(a, b), written over ``a`` block by block.

    Ids lie below 2**32 (see ``params._MAX_N``), so the keys sort in
    lexicographic pair order.
    """
    key, other = a.view(np.uint64), b.view(np.uint64)
    hi = np.empty(min(key.size, _MARK_BLOCK), dtype=np.uint64)
    for lo in range(0, key.size, _MARK_BLOCK):
        kb, ob = key[lo:lo + _MARK_BLOCK], other[lo:lo + _MARK_BLOCK]
        hb = hi[:kb.size]
        np.maximum(kb, ob, out=hb)
        np.minimum(kb, ob, out=kb)
        kb <<= 32
        kb |= hb
    return key


def sample_mnr(weights: WeightSequence, rng) -> MultiGraph:
    """Sample the Poissonian multigraph: multiplicity of {i, j} is
    Poisson(w_i * w_j / ell_n), loops Poisson(w_i^2 / (2*ell_n))."""
    return sample_percolated_mnr_direct(weights, 1.0, rng)


def sample_percolated_mnr_direct(weights: WeightSequence, pi: float, rng) -> MultiGraph:
    """Sample the pi-percolated multigraph in one pass.

    Percolating Poisson multiplicities by pi is in law the same model with
    weights pi * w: Poisson(pi * ell_n / 2) slots with i.i.d. size-biased
    endpoints, so pair (i, j) carries an independent Poisson(pi*w_i*w_j/ell_n)
    multiplicity (pi*w_i^2/(2*ell_n) for loops).
    """
    _check_pi(pi)
    check_total_weight(pi, weights.ell_n)
    m = int(rng.poisson(pi * weights.ell_n / 2.0))
    src, dst, mult = _aggregate_pairs(weights.n, draw_marks(weights, m, rng),
                                      draw_marks(weights, m, rng))
    return MultiGraph(n=weights.n, src=src, dst=dst, mult=mult)


# --------------------------------------------------------------------------
# coupled percolation
# --------------------------------------------------------------------------

def percolate_coupled(g: MultiGraph, pi: float, rng) -> tuple[MultiGraph, SimpleGraph]:
    """Percolate the multigraph and its collapse on shared randomness.

    One uniform U per pair decides both sides: the collapsed simple edge is
    kept iff U <= pi, and the pair keeps at least one multigraph copy iff
    U <= 1 - (1-pi)^k.  The kept-copy count, given >= 1, follows the
    conditional Binomial(k, pi) law.  Since pi <= 1 - (1-pi)^k, and a pair
    with k = 1 compares U with pi itself, every kept simple edge is also open
    in the multigraph, which is asserted on exit.
    """
    _check_pi(pi)
    k = g.mult
    u = rng.random(g.src.size)
    with np.errstate(divide="ignore"):  # pi = 1: log1p(-1) = -inf, so every pair is kept
        multi_keep = u <= np.where(k == 1, pi, -np.expm1(k * np.log1p(-pi)))
    simple_keep = (u <= pi) & (g.src != g.dst)

    counts = np.zeros(g.src.size, dtype=k.dtype)
    counts[multi_keep & (k == 1)] = 1
    # Pairs with k >= 2 are rare; conditional binomial via rejection.
    for idx in np.nonzero(multi_keep & (k >= 2))[0]:
        ki = int(k[idx])
        while True:
            c = int(rng.binomial(ki, pi))
            if c >= 1:
                counts[idx] = c
                break

    if np.any(simple_keep & ~multi_keep):
        raise AssertionError("coupling violated: simple edge kept without a multigraph copy")

    gm = MultiGraph(n=g.n, src=g.src[multi_keep], dst=g.dst[multi_keep], mult=counts[multi_keep])
    gs = SimpleGraph(n=g.n, src=g.src[simple_keep], dst=g.dst[simple_keep])
    return gm, gs


def sample_coupled_direct(weights: WeightSequence, pi: float,
                          rng) -> tuple[MultiGraph, SimpleGraph, SimpleGraph]:
    """Sample ``percolate_coupled(sample_mnr(weights, rng), pi, rng)`` in law,
    without the raw multigraph, as (multigraph, simple graph, dropped).

    By Poisson thinning the kept count c and the discarded count K' of a pair
    are independent Poissons with rates pi*w_i*w_j/ell_n and
    lam = (1-pi)*w_i*w_j/ell_n, so the percolated multigraph is drawn
    directly.  Given c and K', the shared uniform of ``percolate_coupled`` is
    uniform on [0, 1-(1-pi)^(c+K')] and the simple edge is kept iff it is
    <= pi; averaged over K', a non-loop pair keeps its simple edge with
    probability s(c, lam) = pi * E[1 / (1-(1-pi)^(c+K'))].  One uniform u per
    non-loop pair, in pair order, decides it: kept iff u < s.  Since
    s(1, lam) >= e^-lam >= 1 - lam, a pair with c = 1 and u < 1 - 2*lam is
    kept without evaluating s; the factor 2 is a margin for rounding.  Loops
    never become simple edges and draw nothing.

    Each chunk of ``_MARK_BLOCK`` pairs draws its u and is screened on
    slices of the columns (see ``_screen``); s is then evaluated in one
    call for the pairs every screen left.  Only the positions of the loops
    and of the dropped pairs are kept; the simple graph is the rest.
    """
    gm = sample_percolated_mnr_direct(weights, pi, rng)
    rate = (1.0 - pi) / weights.ell_n
    floor = _screen_floor(weights, rate)
    loops = np.flatnonzero(gm.src == gm.dst)
    left = []  # (positions, lam, u) of the pairs each chunk's screen leaves
    for lo in range(0, max(gm.src.size, 1), _MARK_BLOCK):  # one chunk at least, if empty
        own = loops[slice(*np.searchsorted(loops, (lo, lo + _MARK_BLOCK)))] - lo
        chunk = [col[lo:lo + _MARK_BLOCK] for col in (gm.src, gm.dst, gm.mult)]
        idx, lam, u = _screen(*chunk, own, rate, floor, weights, rng)
        left.append((lo + idx, lam, u))
    # s of a pair does not depend on the others in its call, so one call serves all chunks
    idx, lam, u = (np.concatenate(col) for col in zip(*left))
    s = _simple_kept(gm.mult[idx], lam, pi)
    if not np.all((pi <= s) & (s <= 1.0)):
        raise AssertionError("coupling violated: keep probability outside [pi, 1]")
    drops = idx[u >= s]
    cut = np.concatenate([loops, drops])
    simple = SimpleGraph(n=gm.n, src=np.delete(gm.src, cut), dst=np.delete(gm.dst, cut))
    return gm, simple, SimpleGraph(n=gm.n, src=gm.src[drops], dst=gm.dst[drops])


# A pair with lam <= _SCREEN_LAM, c = 1 and u < 1 - 2 * _SCREEN_LAM keeps its
# simple edge; the screen finds those pairs without a power.
_SCREEN_LAM = 1.0 / 64.0


def _screen_floor(weights: WeightSequence, rate: float) -> int:
    """An id product P with lam(i*j) = pair_weight(i*j) * rate <= _SCREEN_LAM
    wherever i*j >= P.

    lam falls as i*j grows.  P is where the exact lam is half of
    _SCREEN_LAM, so the rounding of ``pair_weight`` cannot carry a pair past
    the bound, and no monotonicity of ``np.power`` is relied on.  At rate 0
    (pi = 1) the formula gives P = 0, and every pair passes.
    """
    # c_F^2 (n^2 / ij)^alpha * rate = _SCREEN_LAM / 2 at ij = n^2 t
    t = (weights.c_F ** 2 * rate / (0.5 * _SCREEN_LAM)) ** (1.0 / weights.alpha)
    square = float(weights.n) ** 2
    return int(min(math.ceil(square * t), square + 1.0))


def _screen(src, dst, mult, own, rate: float, floor: int, weights: WeightSequence, rng):
    """Positions, lam and u of the chunk's non-loop pairs whose s must be evaluated.

    ``own`` holds the chunk's loop positions; the other pairs draw one
    uniform each, in pair order.  A pair with i*j >= floor, c = 1 and u
    below 1 - 2 * _SCREEN_LAM passes unevaluated; the rest get lam and the
    screen of ``sample_coupled_direct``.
    """
    # aligned with the chunk's pairs by a zero at each loop, never read
    u = np.insert(rng.random(src.size - own.size), own - np.arange(own.size), 0.0)
    # products of int32 ids pass 2**31, so they are formed in int64
    test = np.multiply(src, dst, dtype=np.int64) < floor
    test |= mult != 1
    test |= u >= 1.0 - 2.0 * _SCREEN_LAM
    test[own] = False
    idx = np.flatnonzero(test)
    u = u[idx]
    lam = weights.pair_weight(np.multiply(src[idx], dst[idx], dtype=np.int64)) * rate
    test = (u >= 1.0 - 2.0 * lam) | (mult[idx] != 1)
    return idx[test], lam[test], u[test]


def _simple_kept(c: np.ndarray, lam: np.ndarray, pi: float) -> np.ndarray:
    """s(c, lam) = pi * E[1 / (1-(1-pi)^(c+K))] with K ~ Poisson(lam), c >= 1.

    The k-series pi * sum_k P(K = k) / (1-(1-pi)^(c+k)) is summed over the
    window of k within lam -+ (10 sqrt(lam) + 25), which holds all but e^-50
    of the Poisson mass.  Each factor pi / (1-(1-pi)^(c+k)) lies in [pi, 1],
    so the absolute error is below 2e^-50.  The Poisson weights start from 1
    at the window's first k, follow the ratio lam / k and are normalised by
    their sum, so e^-lam, which underflows past lam ~ 745, is never formed.
    Every pair is summed to the end of the call's widest window: the terms
    past a pair's own window are each below e^-50 of its sums, so they change
    no bit of them.  Where (1-pi)^(c+k) < 2^-60, expm1 rounds to -1, so each
    term adds to num and den alike and s = pi exactly.
    """
    if pi >= 1.0:
        return np.ones(c.size)
    log_q = math.log1p(-pi)
    half = 10.0 * np.sqrt(lam) + 25.0
    k = np.floor(np.maximum(lam - half, 0.0))
    term, num, den = np.ones(c.size), np.zeros(c.size), np.zeros(c.size)
    for _ in range(int(np.ceil(lam + half - k).max(initial=0.0)) + 1):
        num -= term / np.expm1((c + k) * log_q)
        den += term
        k += 1.0
        term *= lam / k
    return pi * (num / den)


def _check_pi(pi: float) -> None:
    if not (0.0 < pi <= 1.0):
        raise DomainError(f"retention probability must lie in (0, 1], got pi={pi}")

