"""Sampling of the Poissonian rank-one multigraph and its percolated variants.

Sampling is Poissonized throughout: the total number of edge slots is
Poisson(ell_n / 2) and both endpoints of each slot are i.i.d. size-biased
marks, which makes the per-pair multiplicities independent Poissons with
rate w_i * w_j / ell_n (and w_i^2 / (2*ell_n) for self-loops).  Marks are
drawn by inverse CDF: a batch of uniforms is searched on the cumulative
weights in sorted order, and the results are scattered back to draw order.

Percolation by pi is equivalent to sampling with weights pi * w, which is
what the "direct" samplers exploit.  The coupled simple-graph and multigraph
percolations share the event "some copy of the pair is kept", so the former
is always a subgraph of the latter.  ``percolate_coupled`` realizes that on
a raw multigraph; ``sample_coupled_direct`` draws the same joint law from
the percolated multigraph alone by Poisson thinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .params import WeightSequence


@dataclass(frozen=True)
class MultiGraph:
    """Multigraph on vertices 1..n as a sorted list of pairs with multiplicities.

    ``src[k] <= dst[k]`` for every k, pairs are unique and lexicographically
    sorted, multiplicities are >= 1.  Self-loops keep src == dst.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    mult: np.ndarray

    @property
    def pair_count(self) -> int:
        return int(self.src.size)

    @property
    def total_edge_count(self) -> int:
        """Number of edges counted with multiplicity."""
        return int(self.mult.sum())

    def degrees(self) -> np.ndarray:
        """Degree array indexed by vertex id (entry 0 unused); loops count twice."""
        deg = np.bincount(self.src, weights=self.mult, minlength=self.n + 1)
        deg += np.bincount(self.dst, weights=self.mult, minlength=self.n + 1)
        return deg.astype(np.int64)

    def as_tuples(self) -> list[tuple[int, int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist(), self.mult.tolist()))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "MultiGraph":
        """Build from an iterable of (i, j, mult); pairs are canonicalized and merged."""
        i, j, m = _pair_columns(n, pairs, 3)
        if np.any(m < 1):
            raise DomainError("multiplicities must be >= 1")
        src, dst, mult = _aggregate_pairs(n, np.repeat(i, m), np.repeat(j, m))
        g = cls(n=n, src=src, dst=dst, mult=mult)
        g.validate()
        return g

    def validate(self) -> None:
        """Structural invariants: endpoint ranges, canonical order, degree-sum identity."""
        if self.src.size != self.dst.size or self.src.size != self.mult.size:
            raise AssertionError("edge arrays have mismatched lengths")
        if self.src.size:
            if self.src.min() < 1 or self.dst.max() > self.n:
                raise AssertionError(f"edge endpoint outside [1, {self.n}]")
            if np.any(self.src > self.dst):
                raise AssertionError("pairs are not canonicalized (src <= dst)")
            if np.any(self.mult < 1):
                raise AssertionError("multiplicities must be >= 1")
            key = self.src * np.int64(self.n + 1) + self.dst
            if np.any(np.diff(key) <= 0):
                raise AssertionError("pairs are not sorted and unique")
        if int(self.degrees().sum()) != 2 * self.total_edge_count:
            raise AssertionError("degree-sum identity violated")


@dataclass(frozen=True)
class SimpleGraph:
    """Simple graph on vertices 1..n: unique sorted pairs with src < dst, no loops."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.src, minlength=self.n + 1)
        deg += np.bincount(self.dst, minlength=self.n + 1)
        return deg.astype(np.int64)

    def as_tuples(self) -> list[tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "SimpleGraph":
        """Build from an iterable of (i, j); pairs are canonicalized and deduplicated."""
        i, j = _pair_columns(n, pairs, 2)
        loops = i[i == j]
        if loops.size:
            raise DomainError(f"simple graph cannot hold the loop ({loops[0]}, {loops[0]})")
        src, dst, _ = _aggregate_pairs(n, i, j)
        g = cls(n=n, src=src, dst=dst)
        g.validate()
        return g

    def validate(self) -> None:
        if self.src.size:
            if self.src.min() < 1 or self.dst.max() > self.n:
                raise AssertionError(f"edge endpoint outside [1, {self.n}]")
            if np.any(self.src >= self.dst):
                raise AssertionError("simple edges need src < dst")
            key = self.src * np.int64(self.n + 1) + self.dst
            if np.any(np.diff(key) <= 0):
                raise AssertionError("pairs are not sorted and unique")
        if int(self.degrees().sum()) != 2 * self.edge_count:
            raise AssertionError("degree-sum identity violated")


# --------------------------------------------------------------------------
# mark sampling and the Poissonized edge generator
# --------------------------------------------------------------------------


def draw_marks(weights: WeightSequence, size: int, rng) -> np.ndarray:
    """i.i.d. size-biased marks, P(M = i) = w_i / ell_n, as 1-based vertex ids.

    Exact inverse-CDF sampling: each uniform is located on the cumulative
    weights by ``_lookup``.
    """
    if size < 0:
        raise DomainError(f"sample size must be nonnegative, got {size}")
    u = rng.random(size) * weights.ell_n
    return _lookup(weights.cum_weights, u) + 1


def _lookup(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cum, u, side="right")`` as int64, searched in sorted order.

    Successive sorted queries land near each other on the cumulative array,
    so their binary searches stay in cache; scattering the indices back to
    u's order makes the result identical to the unsorted search.
    """
    order = np.argsort(u)
    out = np.empty(u.size, dtype=np.int64)
    out[order] = np.searchsorted(cum, u[order], side="right")
    return out


def _pair_columns(n: int, pairs, width: int) -> np.ndarray:
    """Columns of an iterable of ``width``-tuples as int64 rows, endpoints checked.

    The check must come first: _aggregate_pairs keys a pair by i*(n+1) + j,
    which maps out-of-range ids onto valid pairs.
    """
    cols = np.array(list(pairs), dtype=np.int64).reshape(-1, width).T
    ends = cols[:2]
    if ends.size and (ends.min() < 1 or ends.max() > n):
        raise DomainError(f"edge endpoint outside [1, {n}]")
    return cols


def _aggregate_pairs(n: int, a: np.ndarray, b: np.ndarray):
    """Canonicalize endpoint arrays into sorted unique (src, dst, mult)."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = lo * np.int64(n + 1) + hi
    uniq, counts = np.unique(key, return_counts=True)
    return uniq // (n + 1), uniq % (n + 1), counts.astype(np.int64)


def _sample_poissonized(n: int, ids: np.ndarray, eff_weights: np.ndarray,
                        ell_div: float, rng) -> MultiGraph:
    """Poissonized sampler restricted to ``ids``: the slot count is
    Poisson(W^2 / (2*ell_div)) with W = sum(eff_weights), endpoints i.i.d.
    proportional to eff_weights.  Pair (i, j) then carries an independent
    Poisson(w_i*w_j/ell_div) multiplicity (w_i^2/(2*ell_div) for loops)."""
    total = float(eff_weights.sum())
    m = int(rng.poisson(total * total / (2.0 * ell_div)))
    cum = np.cumsum(eff_weights)
    a = ids[_lookup(cum, rng.random(m) * cum[-1])]
    b = ids[_lookup(cum, rng.random(m) * cum[-1])]
    src, dst, mult = _aggregate_pairs(n, a, b)
    return MultiGraph(n=n, src=src, dst=dst, mult=mult)


def sample_mnr(weights: WeightSequence, rng) -> MultiGraph:
    """Sample the Poissonian multigraph: multiplicity of {i, j} is
    Poisson(w_i * w_j / ell_n), loops Poisson(w_i^2 / (2*ell_n))."""
    n = weights.n
    ids = np.arange(1, n + 1, dtype=np.int64)
    return _sample_poissonized(n, ids, weights.weights, weights.ell_n, rng)


def sample_percolated_mnr_direct(weights: WeightSequence, pi: float, rng) -> MultiGraph:
    """Sample the pi-percolated multigraph in one pass.

    Percolating Poisson multiplicities by pi is in law the same model with
    weights pi * w, so this draws Poisson(pi * ell_n / 2) slots with the
    original mark distribution.
    """
    _check_pi(pi)
    n = weights.n
    ids = np.arange(1, n + 1, dtype=np.int64)
    return _sample_poissonized(n, ids, pi * weights.weights, pi * weights.ell_n, rng)


def sample_percolated_mnr_subset(weights: WeightSequence, pi: float,
                                 vertices: np.ndarray, rng) -> MultiGraph:
    """Percolated multigraph restricted to ``vertices`` (1-based ids).

    Conditionally on removing the complement, the induced subgraph of the
    percolated model is again Poissonian with the same per-pair rates
    pi * w_i * w_j / ell_n, which is what this samples.
    """
    _check_pi(pi)
    ids = np.asarray(vertices, dtype=np.int64)
    if ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return MultiGraph(n=weights.n, src=empty, dst=empty.copy(), mult=empty.copy())
    if ids.min() < 1 or ids.max() > weights.n:
        raise DomainError("subset contains vertex ids outside [1, n]")
    eff = pi * weights.weights[ids - 1]
    return _sample_poissonized(weights.n, ids, eff, pi * weights.ell_n, rng)


# --------------------------------------------------------------------------
# collapse and percolation operators
# --------------------------------------------------------------------------


def collapse_to_simple(g: MultiGraph) -> SimpleGraph:
    """Erase multiplicities and drop self-loops."""
    keep = g.src != g.dst
    return SimpleGraph(n=g.n, src=g.src[keep].copy(), dst=g.dst[keep].copy())


def percolate_multigraph(g: MultiGraph, pi: float, rng) -> MultiGraph:
    """Keep every edge copy independently with probability pi."""
    _check_pi(pi)
    kept = rng.binomial(g.mult, pi)
    mask = kept > 0
    return MultiGraph(n=g.n, src=g.src[mask].copy(), dst=g.dst[mask].copy(),
                      mult=kept[mask].astype(np.int64))


def percolate_coupled(g: MultiGraph, pi: float, rng) -> tuple[MultiGraph, SimpleGraph]:
    """Percolate the multigraph and its collapse on shared randomness.

    One uniform U per pair decides both sides: the collapsed simple edge is
    kept iff U <= pi, and the pair keeps at least one multigraph copy iff
    U <= 1 - (1-pi)^k.  The kept-copy count, given >= 1, follows the
    conditional Binomial(k, pi) law.  Since pi <= 1 - (1-pi)^k, every kept
    simple edge is also open in the multigraph, which is asserted on exit.
    """
    _check_pi(pi)
    k = g.mult
    u = rng.random(g.pair_count)
    multi_keep = u <= _any_copy_kept(k, pi)
    simple_keep = (u <= pi) & (g.src != g.dst)

    counts = np.zeros(g.pair_count, dtype=np.int64)
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

    gm = MultiGraph(n=g.n, src=g.src[multi_keep].copy(), dst=g.dst[multi_keep].copy(),
                    mult=counts[multi_keep])
    gs = SimpleGraph(n=g.n, src=g.src[simple_keep].copy(), dst=g.dst[simple_keep].copy())
    return gm, gs


def sample_coupled_direct(weights: WeightSequence, pi: float,
                          rng) -> tuple[MultiGraph, SimpleGraph]:
    """Sample ``percolate_coupled(sample_mnr(weights, rng), pi, rng)`` in law,
    without the raw multigraph.

    By Poisson thinning the kept count c and the discarded count K' of a pair
    are independent Poissons with rates pi*w_i*w_j/ell_n and
    (1-pi)*w_i*w_j/ell_n, so the percolated multigraph is drawn directly and
    each kept non-loop pair gets K' and its raw count k = c + K'.  Given k and
    a kept pair, the shared uniform of ``percolate_coupled`` is uniform on
    [0, 1-(1-pi)^k], and the simple edge is kept iff it is <= pi.  Loops never
    become simple edges, so they need no K'.
    """
    gm = sample_percolated_mnr_direct(weights, pi, rng)
    pair = gm.src != gm.dst
    src, dst = gm.src[pair], gm.dst[pair]
    w = weights.weights
    k = gm.mult[pair] + rng.poisson((1.0 - pi) * w[src - 1] * w[dst - 1] / weights.ell_n)
    p_any = _any_copy_kept(k, pi)
    if np.any(p_any < pi):
        raise AssertionError("coupling violated: a kept pair is less likely than its simple edge")
    simple_keep = rng.random(k.size) * p_any <= pi
    return gm, SimpleGraph(n=gm.n, src=src[simple_keep], dst=dst[simple_keep])


def _any_copy_kept(k: np.ndarray, pi: float) -> np.ndarray:
    """P(at least one of k copies survives pi-percolation) = 1 - (1-pi)^k.

    The k == 1 case is pi bit-for-bit, so a simple edge kept iff U <= pi can
    never leak outside the multigraph event U <= 1 - (1-pi)^k.
    """
    if pi >= 1.0:
        return np.ones(k.size)
    return np.where(k == 1, pi, -np.expm1(k * np.log1p(-pi)))


def _check_pi(pi: float) -> None:
    if not (0.0 < pi <= 1.0):
        raise DomainError(f"retention probability must lie in (0, 1], got pi={pi}")


# --------------------------------------------------------------------------
# edge-list dumps
# --------------------------------------------------------------------------


def write_edge_list(g: MultiGraph | SimpleGraph, path) -> None:
    """Plain text dump: header "n m", then one "i j multiplicity" line per pair."""
    path = Path(path)
    lines = [f"{g.n} {g.src.size}"]
    if isinstance(g, MultiGraph):
        mult = g.mult
    else:
        mult = np.ones(g.src.size, dtype=np.int64)
    for i, j, m in zip(g.src.tolist(), g.dst.tolist(), mult.tolist()):
        lines.append(f"{i} {j} {m}")
    path.write_text("\n".join(lines) + "\n")


def read_edge_list(path) -> MultiGraph:
    """Inverse of write_edge_list (always returns a MultiGraph)."""
    text = Path(path).read_text().strip().splitlines()
    n, m = (int(tok) for tok in text[0].split())
    if len(text) - 1 != m:
        raise DomainError(f"edge list header promised {m} pairs, found {len(text) - 1}")
    triples = [tuple(int(tok) for tok in line.split()) for line in text[1:]]
    src = np.array([t[0] for t in triples], dtype=np.int64)
    dst = np.array([t[1] for t in triples], dtype=np.int64)
    mult = np.array([t[2] for t in triples], dtype=np.int64)
    g = MultiGraph(n=n, src=src, dst=dst, mult=mult)
    g.validate()
    return g
