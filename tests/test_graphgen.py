from __future__ import annotations

import hashlib
import math
import tracemalloc
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from sfperc import graphgen
from sfperc.errors import DomainError
from sfperc.experiments import EXPERIMENTS, write_edge_list
from sfperc.graphgen import (
    MultiGraph,
    SimpleGraph,
    _aggregate_pairs,
    _simple_kept,
    draw_marks,
    id_dtype,
    percolate_coupled,
    sample_coupled_direct,
    sample_mnr,
    sample_percolated_mnr_direct,
)
from sfperc.params import (_MAX_N, LambdaRule, WeightSequence, build_weights,
                           check_total_weight, make_schedule, model_params)

from oracles import (
    as_tuples,
    collapse_to_simple,
    coupled_reference,
    degrees,
    multi_from_pairs,
    percolate_multigraph,
    read_edge_rows,
    simple_from_pairs,
    simple_kept_widest_window,
    weight_array,
    weight_of,
    zipf_one_pass,
)


def toy_weights():
    return build_weights(model_params(2.5, 1.0, 5))


# --------------------------------------------------------------------------
# containers
# --------------------------------------------------------------------------


def test_from_pairs_canonicalizes_and_merges():
    g = multi_from_pairs(4, [(2, 1, 1), (1, 2, 2), (3, 3, 1), (4, 2, 5)])
    assert as_tuples(g) == [(1, 2, 3), (2, 4, 5), (3, 3, 1)]
    assert g.src.size == 3
    assert int(g.mult.sum()) == 9
    # (1, 6) at n = 3 would alias onto the loop (2, 2) without the range check
    for bad in ([(1, 6, 1)], [(0, 2, 1)], [(1, 2, 0)], [(1, 2, 1), (2, 3, 0)]):
        with pytest.raises(DomainError):
            multi_from_pairs(3, bad)


def test_aggregate_pairs_matches_counter():
    # ids up to n, so the key's split sees its largest low halves; at n =
    # _MAX_N, past 2**31, ids 1 and n give the smallest key and the largest,
    # whose high half sets the uint64 key's top bit
    rng = np.random.default_rng(11)
    cases = [(n, rng.integers(max(1, n - 5), n + 1, size=60), rng.integers(1, n + 1, size=60))
             for n in (1, 7, 10**6)]
    ends = np.array([1, _MAX_N])
    cases.append((_MAX_N, rng.choice(ends, size=60), rng.choice(ends, size=60)))
    # repeat-heavy: every slot one pair; runs of 3 and 4 at the first and the
    # last sorted slot around a pair drawn once each way; runs of every length
    # on three ids; one slot; no slots
    cases += [(9, np.full(50, 4), np.full(50, 7)),
              (9, np.array([1, 9, 2, 1, 9, 3, 9, 1, 9]), np.array([1, 9, 3, 1, 9, 2, 9, 1, 9])),
              (3, rng.integers(1, 4, size=200), rng.integers(1, 4, size=200)),
              (9, np.array([6]), np.array([2])),
              (9, np.array([], dtype=np.int64), np.array([], dtype=np.int64))]
    # at n = 2**31 - 2, the largest n with int32 ids, ids near n split into
    # int32 columns; at _MAX_N they need int64
    top = 2**31 - 2
    near = np.array([1, top - 2, top - 1, top])
    cases.append((top, rng.choice(near, size=60), rng.choice(near, size=60)))
    for n, a, b in cases:
        expected = sorted(Counter((min(i, j), max(i, j)) for i, j in zip(a.tolist(), b.tolist()))
                          .items())
        src, dst, mult = _aggregate_pairs(n, a.copy(), b.copy())
        assert [((i, j), m) for i, j, m in zip(src.tolist(), dst.tolist(), mult.tolist())] \
            == expected
        assert src.dtype == dst.dtype == (np.int32 if n <= top else np.int64)
        # a multiplicity is at most the slot count
        assert mult.dtype == id_dtype(a.size) == np.int32


def test_degrees_count_loops_twice():
    g = multi_from_pairs(3, [(1, 2, 2), (3, 3, 4)])
    deg = degrees(g)
    assert deg.tolist() == [0, 2, 2, 8]
    assert int(deg.sum()) == 2 * int(g.mult.sum())


def test_multigraph_validate_rejects_bad_arrays():
    ok = multi_from_pairs(3, [(1, 2, 1), (2, 3, 1)])
    bad_order = MultiGraph(n=3, src=ok.dst, dst=ok.src, mult=ok.mult)
    with pytest.raises(AssertionError):
        bad_order.validate()
    bad_range = MultiGraph(n=2, src=ok.src, dst=ok.dst, mult=ok.mult)
    with pytest.raises(AssertionError):
        bad_range.validate()
    bad_mult = MultiGraph(n=3, src=ok.src, dst=ok.dst, mult=np.array([1, 0]))
    with pytest.raises(AssertionError):
        bad_mult.validate()
    dup = MultiGraph(n=3, src=np.array([1, 1]), dst=np.array([2, 2]),
                     mult=np.array([1, 1]))
    with pytest.raises(AssertionError):
        dup.validate()
    # column lengths and dtypes, the only ways to break the degree-sum identity;
    # float and bool multiplicities pass the >= 1 test but are no counts
    one, three = np.array([1]), np.array([1, 2, 3])
    for src, dst, mult in ((three, one, one), (one, three, one), (ok.src, ok.dst, ok.mult[:1]),
                           (ok.src.astype(float), ok.dst.astype(float), ok.mult),
                           (ok.src.astype(bool), ok.dst.astype(bool), ok.mult),
                           (ok.src[None], ok.dst[None], ok.mult),
                           (ok.src, ok.dst, ok.mult + 0.5), (ok.src, ok.dst, ok.mult.astype(bool))):
        with pytest.raises(AssertionError):
            MultiGraph(n=3, src=src, dst=dst, mult=mult).validate()


def test_validate_checks_the_id_dtype():
    # both endpoint columns share one dtype, and it holds n + 1: int64 at
    # any n, int32 up to n = 2**31 - 2
    one = np.ones(1, dtype=np.int64)
    a32, b32 = np.array([1], dtype=np.int32), np.array([2], dtype=np.int32)
    a64, b64 = a32.astype(np.int64), b32.astype(np.int64)
    for n, src, dst in ((3, a32, b64), (3, a64, b32), (2**31 - 1, a32, b32)):
        with pytest.raises(AssertionError, match="dtype"):
            SimpleGraph(n, src, dst).validate()
        with pytest.raises(AssertionError, match="dtype"):
            MultiGraph(n, src, dst, one).validate()
    for n, src, dst in ((2**31 - 2, a32, b32), (2**31 - 1, a64, b64), (_MAX_N, a64, b64)):
        SimpleGraph(n, src, dst).validate()
        MultiGraph(n, src, dst, one).validate()


def test_validate_at_the_largest_int32_n():
    # at n = 2**31 - 2 the sort keys src (n + 1) + dst of ids near n pass
    # 2**62; formed in int32 they would wrap out of order
    n = 2**31 - 2
    pairs = [(1, n), (2, n - 1), (n - 2, n - 1), (n - 1, n - 1), (n - 1, n), (n, n)]
    src, dst = (np.array(col, dtype=np.int32) for col in zip(*pairs))
    MultiGraph(n, src, dst, np.ones(src.size, dtype=np.int64)).validate()
    simple = src != dst
    SimpleGraph(n, src[simple], dst[simple]).validate()


def test_simple_graph_rejects_loops_and_checks_order():
    for bad in ([(1, 1)], [(1, 2), (3, 3)], [(1, 6)], [(0, 2)]):
        with pytest.raises(DomainError):
            simple_from_pairs(3, bad)
    g = simple_from_pairs(3, [(3, 1), (1, 2), (2, 1)])
    assert as_tuples(g) == [(1, 2), (1, 3)]
    bad = SimpleGraph(n=3, src=np.array([2]), dst=np.array([2]))
    with pytest.raises(AssertionError):
        bad.validate()
    one, three = np.array([1]), np.array([1, 2, 3])
    for src, dst in ((three, one), (one, three), (g.src.astype(float), g.dst.astype(float)),
                     (g.src.astype(bool), g.dst.astype(bool)), (g.src[None], g.dst[None])):
        with pytest.raises(AssertionError):
            SimpleGraph(n=3, src=src, dst=dst).validate()


def test_collapse_to_simple_drops_loops_and_mults():
    g = multi_from_pairs(4, [(1, 2, 3), (2, 2, 1), (3, 4, 1)])
    s = collapse_to_simple(g)
    assert as_tuples(s) == [(1, 2), (3, 4)]


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
                max_size=25))
@settings(max_examples=60, deadline=None)
def test_degree_sum_identity(pairs):
    g = multi_from_pairs(6, pairs)
    assert int(degrees(g).sum()) == 2 * int(g.mult.sum())


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n),
    st.dictionaries(st.tuples(st.integers(1, n), st.integers(1, n))
                    .map(lambda p: (min(p), max(p))),
                    st.integers(1, 2**40), max_size=30))))
@settings(max_examples=100, deadline=None)
def test_degrees_match_float_bincount_oracle(case):
    # multiplicities past 2**31 still sum exactly in float64, so the oracle
    # is exact; the pairs are canonical, so no np.repeat expands them
    n, mults = case
    pairs = sorted(mults)
    src = np.array([i for i, _ in pairs], dtype=np.int64)
    dst = np.array([j for _, j in pairs], dtype=np.int64)
    mult = np.array([mults[p] for p in pairs], dtype=np.int64)
    g = MultiGraph(n=n, src=src, dst=dst, mult=mult)
    g.validate()
    expected = (np.bincount(src, weights=mult, minlength=n + 1)
                + np.bincount(dst, weights=mult, minlength=n + 1)).astype(np.int64)
    deg = degrees(g)
    assert deg.dtype == np.int64
    assert deg.tolist() == expected.tolist()


def test_validate_memory_is_edge_bounded():
    # a ~2k-pair multigraph on 2e6 ids peaks under 10 bytes per vertex
    n = 2_000_000
    rng = np.random.default_rng(13)
    a, b = rng.integers(1, n + 1, size=(2, 2_000))
    src, dst, mult = _aggregate_pairs(n, a, b)
    g = MultiGraph(n=n, src=src, dst=dst, mult=mult * 3)
    tracemalloc.start()
    try:
        g.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 10.0


@pytest.mark.parametrize("edges", [2_000, 500_000])
def test_simple_validate_memory_is_degree_bounded(edges):
    # under 9 bytes per vertex at n = 2e6, with a few edges or with one per
    # four vertices
    n = 2_000_000
    rng = np.random.default_rng(14)
    a, b = rng.integers(1, n + 1, size=(2, edges))
    keep = a != b
    src, dst, _ = _aggregate_pairs(n, a[keep], b[keep])
    g = SimpleGraph(n=n, src=src, dst=dst)
    tracemalloc.start()
    try:
        g.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n <= 9.0


@pytest.mark.parametrize("cls", [MultiGraph, SimpleGraph])
def test_validate_memory_is_pair_bounded(cls):
    # validate allocates nothing per vertex: a few thousand pairs on 1e6 ids
    # peak under 64 bytes per pair, which any per-vertex count (8 MB in int64)
    # would exceed
    n = 1_000_000
    rng = np.random.default_rng(17)
    a, b = rng.integers(1, n + 1, size=(2, 4_000))
    keep = a != b
    src, dst, mult = _aggregate_pairs(n, a[keep], b[keep])
    g = MultiGraph(n, src, dst, mult) if cls is MultiGraph else SimpleGraph(n, src, dst)
    tracemalloc.start()
    try:
        g.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * src.size


def test_simple_degrees_match_bincount():
    rng = np.random.default_rng(15)
    n = 5_000
    a, b = rng.integers(1, n + 1, size=(2, 20_000))
    keep = a != b
    src, dst, _ = _aggregate_pairs(n, a[keep], b[keep])
    g = SimpleGraph(n=n, src=src, dst=dst)
    deg = degrees(g)
    expected = np.bincount(np.concatenate([src, dst]), minlength=n + 1)
    assert deg.dtype == expected.dtype and np.array_equal(deg, expected)
    assert degrees(SimpleGraph(n=3, src=src[:0], dst=dst[:0])).tolist() == [0, 0, 0, 0]


# sha256 of percolate_coupled's two graphs on ``_multiplicity_grid()`` at seed
# 17, recorded from a version that evaluated 1 - (1-pi)^k only where k != 1,
# so evaluating it for every pair keeps every bit.
_COUPLED_DIGESTS = {
    1e-4: "b3ae612429dfa89f0d9dfb622488da08e45c95ff5f0fe41f03b75de4f19e4706",
    0.01: "88c3d87ef0e75daaef10690ddb0e7969baafab7a64e1ca5abca2ea0fc06d11b8",
    0.316: "0b497dc59c3e428429b38c4acb090a05c493a6e7b7c3cf8be20198950fb67787",
    0.5: "d9a5f361b69e51e356999c3370d45efa8455afc802769824307ff3068e82ef0d",
    0.99: "440ddd7bb6ff701e8c39c21761fbf39008a9d328a7676b938ec0beca097a6ed5",
}


def _multiplicity_grid() -> MultiGraph:
    """Every pair i <= j of 200 vertices, half with multiplicity 1 and half
    with one drawn from 2..60."""
    rng = np.random.default_rng(16)
    i, j = np.triu_indices(200)
    k = np.where(rng.random(i.size) < 0.5, 1, rng.integers(2, 61, size=i.size))
    return MultiGraph(200, (i + 1).astype(np.int32), (j + 1).astype(np.int32), k)


@pytest.mark.parametrize("pi", list(_COUPLED_DIGESTS))
def test_percolate_coupled_matches_recorded_digests(pi):
    g = _multiplicity_grid()
    g.validate()
    gm, gs = percolate_coupled(g, pi, np.random.default_rng(17))
    digest = hashlib.sha256()
    for col in (gm.src, gm.dst, gm.mult, gs.src, gs.dst):
        digest.update(col.tobytes())
    assert digest.hexdigest() == _COUPLED_DIGESTS[pi]


# --------------------------------------------------------------------------
# the mark sampler: exact bounded Zipf law by rejection-inversion
# --------------------------------------------------------------------------


def test_draw_marks_distribution():
    ws = toy_weights()
    rng = np.random.default_rng(7)
    size = 200_000
    marks = draw_marks(ws, size, rng)
    assert marks.min() >= 1 and marks.max() <= ws.n
    counts = np.bincount(marks, minlength=ws.n + 1)[1:]
    probs = weight_array(ws) / ws.ell_n
    # each cell within 4 binomial standard errors
    se = np.sqrt(size * probs * (1.0 - probs))
    assert np.all(np.abs(counts - size * probs) < 4.0 * se)


@pytest.mark.parametrize("alpha", [0.0, 1 / 1.9, 1 / 1.5, 1 / 1.2, 0.99],
                         ids=["alpha0", "tau2.9", "tau2.5", "tau2.2", "tau2.01"])
@pytest.mark.parametrize("n", [1, 2, 10, 1000])
def test_draw_marks_chi2_against_exact_pmf(n, alpha):
    # P(M = i) = i**-alpha / sum_j j**-alpha, chi-squared on 1e6 draws at 1%
    ws = WeightSequence(n=n, alpha=alpha, c_F=1.0, ell_n=1.0)  # marks read n and alpha
    draws = 1_000_000
    marks = draw_marks(ws, draws, np.random.default_rng(n))
    assert marks.dtype == np.int64 and marks.min() >= 1 and marks.max() <= n
    if n == 1:
        return
    pmf = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    expected = draws * pmf / pmf.sum()
    observed = np.bincount(marks, minlength=n + 1)[1:]
    stat = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2.sf(stat, n - 1) > 0.01, stat


class _Uniforms:
    """A generator stand-in whose ``random`` hands out the given uniforms once."""

    def __init__(self, u):
        self.u = list(u)

    def random(self, size):
        assert size <= len(self.u), "a draw was rejected"
        out, self.u = self.u[:size], self.u[size:]
        return np.array(out)


@pytest.mark.parametrize("alpha", [0.0, 1 / 1.9, 1 / 1.5, 0.99])
@pytest.mark.parametrize("n", [1, 2, 7, 10**6, 3_037_000_498])
def test_draw_marks_ends_of_the_inverse(n, alpha):
    # u = 0 maps to the top of [H(1.5) - 1, H(n + 0.5)] and u -> 1 to the
    # bottom; H^-1 there rounds to ids n and 1, and both are accepted
    ws = WeightSequence(n=n, alpha=alpha, c_F=1.0, ell_n=1.0)
    top, bottom = 0.0, np.nextafter(1.0, 0.0)
    marks = draw_marks(ws, 2, _Uniforms([top, bottom]))
    assert marks.tolist() == [n, 1]


def test_draw_marks_at_the_largest_n():
    # at the largest n the pair keys allow, draws stay in [1, n] and the
    # peak is a fixed number of bytes per draw; ell_n is never summed
    n = 3_037_000_498
    ws = WeightSequence(n=n, alpha=1 / 1.5, c_F=1.0, ell_n=1.0)
    draws = 500_000
    rng = np.random.default_rng(12)
    tracemalloc.start()
    try:
        marks = draw_marks(ws, draws, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert marks.min() >= 1 and marks.max() <= n
    assert marks.max() > n // 2  # the tail is reached
    assert peak / draws <= 41.0


@pytest.mark.parametrize("block", [7, None], ids=["block7", "default"])
@pytest.mark.parametrize("tau", [2.05, 2.5, 2.95])
def test_blocked_marks_match_one_pass(tau, block, monkeypatch):
    # blocks of draws change no bit and consume the same stream as one pass
    # over all of them, at sizes on either side of a block edge and at one
    # large enough that some draws are rejected and redrawn
    if block:
        monkeypatch.setattr(graphgen, "_MARK_BLOCK", block)
    b = graphgen._MARK_BLOCK
    alpha = 1.0 / (tau - 1.0)
    rejected = 0
    for n in (1_000, 10**6):
        for size in (0, 1, b - 1, b, b + 1, 3 * b + 5, 5_003):
            rng, ref = np.random.default_rng(size), np.random.default_rng(size)
            got = graphgen._zipf(n, alpha, size, rng)
            want = zipf_one_pass(n, alpha, size, ref)
            assert got.dtype == want.dtype == np.int64
            assert got.tobytes() == want.tobytes(), (n, size)
            after = rng.random()
            assert after == ref.random()
            # a draw that rejected some took more than size uniforms
            plain = np.random.default_rng(size)
            plain.random(size)
            rejected += plain.random() != after
    assert rejected  # the redraw path ran


def test_draw_marks_memory_is_one_array_and_blocks():
    # the uniforms become the marks in place, so a draw holds 8 B per mark
    # and a few blocks; one pass over all draws held about 25 B per mark
    ws = build_weights(model_params(2.5, 1.0, 10**6))
    m = 200_000
    draw_marks(ws, m, np.random.default_rng(0))  # numpy's one-time set-up
    tracemalloc.start()
    try:
        draw_marks(ws, m, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * m + 3 * 8 * graphgen._MARK_BLOCK


def test_draw_marks_rejects_negative_size():
    with pytest.raises(DomainError):
        draw_marks(toy_weights(), -1, np.random.default_rng(0))


# --------------------------------------------------------------------------
# samplers: exact laws on toy weight sequences
# --------------------------------------------------------------------------


def test_samplers_refuse_rates_past_the_poisson_draws():
    # a percolated total weight pi * ell_n past 2**62 is refused before the
    # generator draws anything, by each sampler
    check_total_weight(1.0, 2.0**62)
    for pi, total in ((1.0, np.nextafter(2.0**62, np.inf)), (0.5, 2.0**64), (1.0, np.nan)):
        with pytest.raises(DomainError, match="past 2"):
            check_total_weight(pi, total)
    ws = WeightSequence.of(1_000, 2.0 / 3.0, 1e20)
    assert ws.ell_n > 2.0**63
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    for sample in (sample_mnr, lambda ws, rng: sample_percolated_mnr_direct(ws, 0.5, rng),
                   lambda ws, rng: sample_coupled_direct(ws, 0.5, rng)):
        with pytest.raises(DomainError, match="past 2"):
            sample(ws, rng)
        assert rng.bit_generator.state == state


def test_sample_mnr_pair_rates():
    ws = toy_weights()
    rng = np.random.default_rng(11)
    reps = 4000
    tot_12 = 0
    tot_loop1 = 0
    edges = 0
    for _ in range(reps):
        g = sample_mnr(ws, rng)
        g.validate()
        for i, j, m in as_tuples(g):
            if (i, j) == (1, 2):
                tot_12 += m
            if (i, j) == (1, 1):
                tot_loop1 += m
        edges += int(g.mult.sum())
    lam_12 = weight_of(ws, 1) * weight_of(ws, 2) / ws.ell_n
    lam_loop = weight_of(ws, 1) ** 2 / (2.0 * ws.ell_n)
    lam_tot = ws.ell_n / 2.0
    for total, lam in ((tot_12, lam_12), (tot_loop1, lam_loop), (edges, lam_tot)):
        se = math.sqrt(reps * lam)
        assert abs(total - reps * lam) < 4.0 * se


def test_direct_percolated_sampler_rate():
    ws = toy_weights()
    rng = np.random.default_rng(3)
    pi = 0.4
    reps = 4000
    edges = sum(int(sample_percolated_mnr_direct(ws, pi, rng).mult.sum())
                for _ in range(reps))
    lam = pi * ws.ell_n / 2.0
    assert abs(edges - reps * lam) < 4.0 * math.sqrt(reps * lam)


# --------------------------------------------------------------------------
# percolation operators
# --------------------------------------------------------------------------


def test_percolate_multigraph_identity_at_full_retention():
    g = multi_from_pairs(5, [(1, 2, 3), (2, 5, 1), (4, 4, 2)])
    kept = percolate_multigraph(g, 1.0, np.random.default_rng(0))
    assert as_tuples(kept) == as_tuples(g)


def test_percolate_multigraph_thinning_rate():
    g = multi_from_pairs(2, [(1, 2, 10)])
    rng = np.random.default_rng(23)
    pi = 0.3
    reps = 20_000
    total = 0
    for _ in range(reps):
        kept = percolate_multigraph(g, pi, rng)
        kept.validate()
        total += int(kept.mult.sum())
    mean = 10 * pi
    se = math.sqrt(reps * 10 * pi * (1 - pi))
    assert abs(total - reps * mean) < 4.0 * se


def test_percolate_multigraph_binomial_pmf():
    # kept multiplicity of a k=5 pair is Binomial(5, pi): chi-squared at 1%
    g = multi_from_pairs(2, [(1, 2, 5)])
    rng = np.random.default_rng(11)
    pi, trials = 0.4, 100_000
    counts = np.zeros(6, dtype=np.int64)
    for _ in range(trials):
        counts[int(percolate_multigraph(g, pi, rng).mult.sum())] += 1
    pmf = np.array([math.comb(5, k) * pi**k * (1 - pi) ** (5 - k) for k in range(6)])
    expected = trials * pmf
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2.sf(stat, 5) > 0.01


def test_retention_probability_domain():
    g = multi_from_pairs(2, [(1, 2, 1)])
    rng = np.random.default_rng(0)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(DomainError):
            percolate_multigraph(g, bad, rng)
        with pytest.raises(DomainError):
            percolate_coupled(g, bad, rng)
        with pytest.raises(DomainError):
            sample_percolated_mnr_direct(toy_weights(), bad, rng)
        with pytest.raises(DomainError):
            sample_coupled_direct(toy_weights(), bad, rng)


def test_percolate_coupled_subgraph_relation():
    params = model_params(2.5, 1.0, 300)
    ws = build_weights(params)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        g = sample_mnr(ws, rng)
        gm, gs = percolate_coupled(g, 0.45, rng)
        gm.validate()
        gs.validate()
        multi_pairs = {(i, j) for i, j, _ in as_tuples(gm)}
        assert set(as_tuples(gs)) <= multi_pairs
        # kept multigraph pairs never exceed the original multiplicity
        orig = {(i, j): m for i, j, m in as_tuples(g)}
        assert all(m <= orig[(i, j)] for i, j, m in as_tuples(gm))


def test_percolate_coupled_exact_on_singletons():
    # all multiplicities 1, no loops: both sides keep exactly the same pairs
    g = multi_from_pairs(6, [(i, j, 1) for i in range(1, 6)
                                  for j in range(i + 1, 7)])
    rng = np.random.default_rng(17)
    gm, gs = percolate_coupled(g, 0.5, rng)
    assert [(i, j) for i, j, _ in as_tuples(gm)] == as_tuples(gs)
    assert np.all(gm.mult == 1)


def test_percolate_coupled_full_retention():
    g = multi_from_pairs(4, [(1, 2, 2), (2, 2, 1), (3, 4, 1)])
    gm, gs = percolate_coupled(g, 1.0, np.random.default_rng(1))
    assert as_tuples(gm) == as_tuples(g)
    assert as_tuples(gs) == [(1, 2), (3, 4)]


def test_percolate_coupled_conditional_multiplicity():
    # given the pair survives, copies follow Binomial(k, pi) conditioned >= 1
    g = multi_from_pairs(2, [(1, 2, 4)])
    rng = np.random.default_rng(29)
    pi = 0.4
    reps = 30_000
    kept_counts = []
    for _ in range(reps):
        gm, _ = percolate_coupled(g, pi, rng)
        if gm.src.size:
            kept_counts.append(int(gm.mult[0]))
    p_any = 1.0 - (1.0 - pi) ** 4
    se_any = math.sqrt(reps * p_any * (1 - p_any))
    assert abs(len(kept_counts) - reps * p_any) < 4.0 * se_any
    mean_given = 4 * pi / p_any
    arr = np.asarray(kept_counts, dtype=float)
    assert abs(arr.mean() - mean_given) < 4.0 * arr.std(ddof=1) / math.sqrt(arr.size)


def _joint_cells(draw, reps: int) -> Counter:
    """Tally (pair, min(c, 3), simple kept) over ``reps`` coupled draws."""
    cells = Counter()
    for _ in range(reps):
        gm, gs = draw()
        simple = set(as_tuples(gs))
        mult = {(i, j): m for i, j, m in as_tuples(gm)}
        for pair in ((1, 2), (2, 3), (1, 1)):
            cells[pair, min(mult.get(pair, 0), 3), pair in simple] += 1
    return cells


def test_sample_coupled_direct_joint_law():
    # two-sample chi-squared against the raw-multigraph operator: multigraph
    # count, simple edge and their coupling, on two pairs and a loop
    ws = build_weights(model_params(2.5, 4.0, 5))
    pi, reps = 0.35, 20_000
    rng_ref, rng_new = np.random.default_rng(41), np.random.default_rng(43)
    ref = _joint_cells(lambda: percolate_coupled(sample_mnr(ws, rng_ref), pi, rng_ref), reps)
    new = _joint_cells(lambda: sample_coupled_direct(ws, pi, rng_new)[:2], reps)
    cells = set(ref) | set(new)
    assert len(cells) == 18  # 7 per non-loop pair (c = 0 has no simple edge), 4 for the loop
    stat = sum((ref[c] - new[c]) ** 2 / (ref[c] + new[c]) for c in cells)
    # each draw fills one cell per pair: (7-1) + (7-1) + (4-1) degrees of freedom
    assert chi2.sf(stat, 15) > 0.001, stat


def test_sample_coupled_direct_full_retention():
    # at pi = 1 every pair is kept, so every non-loop pair is a simple edge;
    # the screen's floor is 0 at that rate, and no pair is dropped
    params = model_params(2.5, 1.0, 300)
    ws = build_weights(params)
    rng = np.random.default_rng(5)
    for _ in range(5):
        gm, gs, dropped = sample_coupled_direct(ws, 1.0, rng)
        gm.validate()
        gs.validate()
        assert as_tuples(gs) == as_tuples(collapse_to_simple(gm))
        assert dropped.edge_count == 0


@pytest.mark.parametrize("pi", [0.05, 0.3, 0.8])
def test_sample_coupled_direct_partitions_the_pairs(pi):
    # the simple graph and the dropped pairs split the multigraph's non-loop
    # pairs into two disjoint sorted simple graphs
    ws = build_weights(model_params(2.5, 1.0, 2_000))
    for seed in range(4):
        gm, gs, dropped = sample_coupled_direct(ws, pi, np.random.default_rng(seed))
        gs.validate()
        dropped.validate()
        kept, lost = set(as_tuples(gs)), set(as_tuples(dropped))
        assert not kept & lost
        assert kept | lost == {(i, j) for i, j, _ in as_tuples(gm) if i != j}
        assert gs.edge_count + dropped.edge_count == np.count_nonzero(gm.src != gm.dst)
        assert dropped.edge_count > 0


_PIS = (0.05, 0.3, 0.8, 0.999, 1.0)
_COUPLED_CASES = [(tau, pi, chunk) for tau in (2.5, 2.2, 2.8) for chunk in (None, 97, 2, 3, 5)
                  for pi in _PIS]


@pytest.mark.parametrize(
    "tau, pi, chunk", _COUPLED_CASES,
    ids=[("" if tau == 2.5 else f"tau{tau}-") + str(pi) + (f"-chunk{chunk}" if chunk else "")
         for tau, pi, chunk in _COUPLED_CASES])
def test_sample_coupled_direct_matches_pair_by_pair_reference(tau, pi, chunk, monkeypatch):
    # the screen and the windowed series decide every pair as s evaluated
    # pair by pair does, so all three graphs agree byte for byte; at 97 pairs
    # a chunk the graphs cross dozens of chunk edges, some chunks with no
    # pair to evaluate.  At 2, 3 and 5 pairs a chunk, graphs on 2..40 ids put
    # loops at chunk starts, at chunk ends and side by side.
    if chunk:
        monkeypatch.setattr(graphgen, "_MARK_BLOCK", chunk)
    graphs = ([(2_000, seed) for seed in range(4)] if chunk in (None, 97)
              else [(n, seed) for n in range(2, 41) for seed in range(3)])
    starts = ends = side_by_side = 0
    for n, seed in graphs:
        ws = build_weights(model_params(tau, 1.0, n))
        got = sample_coupled_direct(ws, pi, np.random.default_rng(seed))
        want = coupled_reference(ws, pi, np.random.default_rng(seed))
        for g, ref in zip(got, want):
            for col in ("src", "dst", "mult"):
                if hasattr(ref, col):
                    a, b = getattr(g, col), getattr(ref, col)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, seed, col)
        loops = np.flatnonzero(got[0].src == got[0].dst)
        starts += np.count_nonzero(loops % graphgen._MARK_BLOCK == 0)
        ends += np.count_nonzero(loops % graphgen._MARK_BLOCK == graphgen._MARK_BLOCK - 1)
        side_by_side += np.count_nonzero(np.diff(loops) == 1)
    if chunk in (2, 3, 5) and pi >= 0.8:  # sparser small graphs seldom hold two loops in a row
        assert starts and ends and side_by_side, (starts, ends, side_by_side)


@pytest.mark.parametrize("tau", [2.2, 2.5, 2.8])
@pytest.mark.parametrize("n", [50, 2_000])
@pytest.mark.parametrize("pi", [1e-3, 0.3, 0.999, 1.0])
def test_screen_floor_bounds_lam(tau, n, pi):
    # every pair of ids whose product reaches the floor has lam, evaluated as
    # the sampler evaluates it, within _SCREEN_LAM; the floor is no id
    # product past which the bound could fail by rounding alone.  At pi = 1
    # the rate is 0 and the formula alone gives the floor 0.
    ws = build_weights(model_params(tau, 1.0, n))
    rate = (1.0 - pi) / ws.ell_n
    floor = graphgen._screen_floor(ws, rate)
    assert 0 <= floor <= n * n + 1  # past n^2 no pair passes unevaluated
    assert (floor == 0) == (pi == 1.0)
    i, j = np.triu_indices(n)
    ij = (i + 1) * (j + 1)
    lam = ws.pair_weight(ij[ij >= floor]) * rate
    assert lam.max(initial=0.0) <= graphgen._SCREEN_LAM
    # the floor sits where the exact lam is half the bound, so it is not loose
    # by more than that factor and a margin for the product's integer step
    below = floor - 1
    if 1 <= below <= n * n:
        assert ws.pair_weight(np.array([below]))[0] * rate > graphgen._SCREEN_LAM / 2 * (1 - 1e-9)


def test_screen_forms_id_products_in_int64():
    # at n = 2**31 - 2 the id products i j pass 2**31: the pairs the screen
    # leaves by the floor, and the products it hands pair_weight, are those
    # of Python's integers
    n = 2**31 - 2
    src = np.array([1, 2, 46_340, 40_000, n - 1, n - 2], dtype=np.int32)
    dst = np.array([n, n, 46_342, n - 1, n, n], dtype=np.int32)
    floor = 3 * n
    seen = []

    class Weights:
        def pair_weight(self, ij):
            seen.append(ij.tolist())
            return np.ones(ij.size)  # lam = 1 with rate 1: every screened pair stays

    class Zeros:
        def random(self, size):
            return np.zeros(size)

    idx, _, _ = graphgen._screen(src, dst, np.ones(src.size, dtype=np.int64),
                                 np.array([], dtype=np.intp), 1.0, floor, Weights(), Zeros())
    products = [i * j for i, j in zip(src.tolist(), dst.tolist())]
    want = [k for k, ij in enumerate(products) if ij < floor]
    assert idx.tolist() == want == [0, 1, 2]
    assert seen == [[products[k] for k in want]]


def test_sample_coupled_direct_memory_per_pair():
    # on a core-schedule graph at n = 2e5 the sampler holds its three graphs
    # (20 B per pair: int32 ids and multiplicities) and little more: one
    # mask, no per-pair rates or uniforms, no float temporaries beside the
    # marks.  It read 25.3 B per pair with int64 multiplicities, 41.3 with
    # int64 ids, and 44.8 with those temporaries.
    params = model_params(2.5, 1.0, 200_000)
    ws = build_weights(params)
    pi = make_schedule(params, "single", LambdaRule("constant", 10.0)).pi_n
    sample_coupled_direct(ws, pi, np.random.default_rng(0))  # numpy's one-time set-up
    for seed in (1, 2):
        tracemalloc.start()
        try:
            gm, _, _ = sample_coupled_direct(ws, pi, np.random.default_rng(seed))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gm.src.dtype == np.int32
        assert peak / gm.src.size <= 25.5


@pytest.mark.parametrize("n, pi", [(1, 0.9), (50, 1e-3)])
def test_sample_coupled_direct_without_non_loop_pairs(n, pi):
    # n = 1 draws loops only; at pi * ell_n / 2 ~ 0.06 most seeds draw no slot
    ws = build_weights(model_params(2.5, 1.0, n))
    drawn = []  # pair counts of the graphs with no non-loop pair
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        gm, gs, dropped = sample_coupled_direct(ws, pi, rng)
        want = sample_percolated_mnr_direct(ws, pi, ref)
        if np.any(want.src != want.dst):
            continue
        drawn.append(want.src.size)
        assert as_tuples(gm) == as_tuples(want)
        assert gs.edge_count == dropped.edge_count == 0
        assert rng.random() == ref.random()  # no uniform was drawn
    assert 0 in drawn and (n > 1 or max(drawn) > 0)


def test_sample_coupled_direct_drop_count_matches_closed_form():
    # a non-loop pair with raw count k ~ Poisson(r) is dropped iff its shared
    # uniform lies in (pi, 1 - (1-pi)^k], so P(dropped) = 1 - e^(-pi r)
    # - pi (1 - e^-r), r = w_i w_j / ell_n; pairs are independent, so the
    # summed count over the partition test's graphs is a Bernoulli sum
    ws = build_weights(model_params(2.5, 1.0, 2_000))
    w = weight_array(ws)
    iu = np.triu_indices(ws.n, k=1)
    r = (np.outer(w, w) / ws.ell_n)[iu]
    mean = var = observed = 0.0
    for pi in (0.05, 0.3, 0.8):
        p = -np.expm1(-pi * r) + pi * np.expm1(-r)
        for seed in range(4):
            observed += sample_coupled_direct(ws, pi, np.random.default_rng(seed))[2].edge_count
            mean += p.sum()
            var += (p * (1.0 - p)).sum()
    z = (observed - mean) / math.sqrt(var)
    assert abs(z) <= 4.0, (observed, mean, z)


def test_sample_coupled_direct_asserts_the_coupling(monkeypatch):
    # a keep probability outside [pi, 1] is a numerical failure, never a draw
    ws = build_weights(model_params(2.5, 1.0, 2_000))
    for bad in (lambda c, lam, pi: np.full(c.size, 0.99 * pi),
                lambda c, lam, pi: np.full(c.size, 1.0 + 1e-9),
                lambda c, lam, pi: np.full(c.size, np.nan)):
        monkeypatch.setattr(graphgen, "_simple_kept", bad)
        with pytest.raises(AssertionError, match="coupling violated"):
            sample_coupled_direct(ws, 0.3, np.random.default_rng(0))


def _simple_kept_mp(c: int, lam: float, pi: float):
    """The k-series of s(c, lam) at 40 digits, well past its Poisson tail."""
    with mpmath.workdps(40):
        lam_m, q = mpmath.mpf(lam), 1 - mpmath.mpf(pi)
        term, total = mpmath.exp(-lam_m), mpmath.mpf(0)
        for k in range(int(lam + 20.0 * math.sqrt(lam)) + 60):
            total += term / (1 - q ** (c + k))
            term *= lam_m / (k + 1)
        return mpmath.mpf(pi) * total


# The library sums at most 2 * (10 sqrt(500) + 25) + 1 < 500 terms, each
# with a few roundings, so its relative error stays far below this.
_SERIES_RTOL = 1e-12


@pytest.mark.parametrize("pi", [0.04, 0.126, 0.316, 1.0])
def test_simple_kept_matches_mpmath_series(pi):
    lam = np.concatenate([np.geomspace(1e-12, 500.0, 25), [0.5, 1.0, 18.0, 150.0, 170.0, 400.0]])
    for c in range(1, 5):
        got = _simple_kept(np.full(lam.size, c), lam, pi)
        want = np.array([float(_simple_kept_mp(c, x, pi)) for x in lam])
        np.testing.assert_allclose(got, want, rtol=_SERIES_RTOL, atol=0.0)
        assert np.all((pi <= got) & (got <= 1.0))
        if c == 1:
            # the sampler's screen keeps a c = 1 pair with u < 1 - 2 lam unseen
            assert np.all(got >= 1.0 - 2.0 * lam)


@pytest.mark.parametrize("pi", [1e-3, 0.04, 0.316])
def test_simple_kept_at_large_rates_matches_pgf_series(pi):
    # past e^-lam's underflow the k-series runs relative to its window's
    # first term; check it against the PGF form pi * sum_j (1-pi)^(jc)
    # exp(-lam (1 - (1-pi)^j)), which converges fast when lam * pi is large
    lam = np.array([800.0, 3e3, 3e4, 1e6])
    for c in (1, 3):
        got = _simple_kept(np.full(lam.size, c), lam, pi)
        want = []
        with mpmath.workdps(40):
            q = 1 - mpmath.mpf(pi)
            for x in lam:
                # the terms fall with j, from 1 at j = 0
                total, j, term = mpmath.mpf(0), 0, mpmath.mpf(1)
                while term > 1e-40:
                    total += term
                    j += 1
                    term = q ** (j * c) * mpmath.exp(-x * (1 - q ** j))
                want.append(float(mpmath.mpf(pi) * total))
        # windows up to 2 * (10 sqrt(3e4) + 25) + 1 ~ 3,500 terms here
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("pi", [1e-8, 1e-3, 0.04, 0.126, 0.316, 1.0])
def test_simple_kept_stops_each_pair_at_its_window(pi):
    # _simple_kept sums every pair to the call's widest window, and equals bit
    # for bit the oracle that gives a pair whose (1-pi)^(c+k) starts below
    # 2^-60 the value pi unsummed.  Both series grids go in one call, so
    # windows of every width share it; a lone pair at lam = 1e-3 sums its own
    # 27 steps.
    grid = np.concatenate([np.geomspace(1e-12, 500.0, 25),
                           [0.5, 1.0, 18.0, 150.0, 170.0, 400.0, 800.0, 3e3, 3e4, 1e6]])
    for c, lam in ((np.repeat(np.arange(1, 5), grid.size), np.tile(grid, 4)),
                   (np.ones(1, dtype=np.int64), np.array([1e-3]))):
        got = _simple_kept(c, lam, pi)
        assert got.tobytes() == simple_kept_widest_window(c, lam, pi).tobytes()


def test_simple_kept_stops_each_pair_at_its_window_on_core_graphs(monkeypatch):
    # the same bit-for-bit check against the widest-window oracle, on the
    # pairs the coupled sampler evaluates on core-1e6 graphs, one call per
    # sample
    spec = EXPERIMENTS["one_neighborhood"]
    params = model_params(2.5, 1.0, 10**6)
    ws, pi = build_weights(params), make_schedule(params, spec.mode, spec.lambda_rule).pi_n
    calls = []

    def recording(c, lam, pi):
        s = _simple_kept(c, lam, pi)
        calls[-1].append((c, lam, s))
        return s

    monkeypatch.setattr(graphgen, "_simple_kept", recording)
    for seed in range(6):
        calls.append([])
        sample_coupled_direct(ws, pi, np.random.default_rng(seed))
    for sample in calls:
        assert sum(c.size for c, _, _ in sample) > 1_000
        for c, lam, s in sample:
            assert s.tobytes() == simple_kept_widest_window(c, lam, pi).tobytes()


# --------------------------------------------------------------------------
# edge-list round trip
# --------------------------------------------------------------------------


def test_sample_coupled_direct_memory_is_pair_bounded():
    # the coupled sampler's peak stays within a fixed number of bytes per
    # pair of the percolated multigraph (the three graphs it returns hold 20)
    ws = build_weights(model_params(2.5, 1.0, 200_000))
    tracemalloc.start()
    try:
        gm = sample_coupled_direct(ws, 0.3, np.random.default_rng(17))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gm.src.size > 50_000
    assert peak / gm.src.size <= 55.0


def test_edge_list_round_trip(tmp_path):
    g = multi_from_pairs(5, [(1, 2, 3), (2, 2, 1), (4, 5, 2)])
    path = tmp_path / "edges.txt"
    write_edge_list(g, path)
    n, rows = read_edge_rows(path)
    assert n == g.n
    assert [tuple(row) for row in rows.tolist()] == as_tuples(g)


def test_edge_list_of_an_empty_graph_is_its_header(tmp_path):
    path = tmp_path / "empty.txt"
    write_edge_list(multi_from_pairs(3, []), path)
    assert path.read_text() == "3 0\n"


def test_edge_list_simple_graph_dump(tmp_path):
    s = simple_from_pairs(4, [(1, 2), (3, 4)])
    path = tmp_path / "simple.txt"
    write_edge_list(s, path)
    n, rows = read_edge_rows(path)
    assert n == 4
    assert rows.tolist() == [[1, 2, 1], [3, 4, 1]]
