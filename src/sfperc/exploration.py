"""Mark-based exploration of the percolated multigraph.

Each step draws a size-biased mark M_l.  A fresh mark contributes
Poisson(pi_n * w_{M_l}) potential children, a repeated mark contributes
nothing, and either way the walk pays one unit:

    Z(l) = Z(l-1) + X_l - 1,   X_l = Poisson(pi_n * w_{M_l}) * 1{M_l fresh}.

Components are delimited by new running minima of Z (each excursion's fresh
marks are exactly one component's vertices).  The rescaled walk
Z(floor(t*beta_n))/beta_n converges to the deterministic curve z(t);
``sup_distance_to_limit`` measures the gap, ``repeat_fraction`` counts
repeated marks, and ``residual_largest_component`` sizes what is left
unexplored.
"""

from __future__ import annotations

import numbers
from typing import NamedTuple

import numpy as np

from .components import component_sizes
from .errors import DomainError
from .graphgen import MultiGraph, draw_marks, sample_percolated_mnr_direct
from .params import PercolationSchedule, WeightSequence, check_total_weight, is_number


class ExplorationTrace(NamedTuple):
    """Step-indexed record of one exploration run.

    marks, new_mark and wbar (the percolated weight pi_n * w of each drawn
    mark) have length steps; Z has length steps + 1 and starts at the step-0
    state.  S and repeats, also of length steps + 1 from step 0, are built
    from them on each read: the ensemble experiments read neither, so a walk
    replica builds neither.
    """

    marks: np.ndarray
    new_mark: np.ndarray
    Z: np.ndarray
    wbar: np.ndarray

    @property
    def steps(self) -> int:
        """The number of mark draws."""
        return self.marks.size

    @property
    def S(self) -> np.ndarray:
        """The weight-paid walk: S(l) = sum of wbar over fresh marks to step l, minus l."""
        S = np.zeros(self.steps + 1)
        np.cumsum(np.where(self.new_mark, self.wbar, 0.0), out=S[1:])
        S[1:] -= np.arange(1, self.steps + 1)
        return S

    @property
    def repeats(self) -> np.ndarray:
        """R(l), the repeated draws among the first l steps."""
        repeats = np.zeros(self.steps + 1, dtype=np.int64)
        np.cumsum(~self.new_mark, out=repeats[1:])
        return repeats


def _check_key_range(n: int, m: int) -> None:
    """Fail unless the keys mark * m + step of m draws from 1..n fit in int64."""
    if m * (n + 1) > np.iinfo(np.int64).max:
        raise DomainError(f"{m} steps over {n} vertices overflow the int64 first-draw keys")


def _first_draws(marks: np.ndarray) -> tuple[np.ndarray, int]:
    """Flags of each mark's first draw, and the number of distinct marks.

    The flags equal the ``np.unique(marks, return_index=True)`` indices set
    True.  One unstable sort of the distinct keys mark * m + step, which the
    caller has checked fit in int64: a mark's draws sort together by step,
    so its first draw is where key - key % m (that is, mark * m) changes,
    and its step is key % m.
    """
    m = marks.size
    key = np.multiply(marks, m, dtype=np.int64)
    key += np.arange(m)
    key.sort()
    step = key % m
    key -= step
    first = np.ones(m, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    new = np.zeros(m, dtype=bool)
    new[step[first]] = True
    return new, int(np.count_nonzero(first))


def _check_steps(steps, least: int) -> None:
    """Fail unless steps is an integer count of walk steps >= least."""
    if not (is_number(steps, numbers.Integral) and steps >= least):
        raise DomainError(f"a step count must be an integer >= {least}, got {steps!r}")


def run_exploration(weights: WeightSequence, schedule: PercolationSchedule,
                    max_steps: int, rng) -> ExplorationTrace:
    """Run the exploration for max_steps mark draws.  It reads only pi_n of
    the schedule, so a schedule on either window serves."""
    _check_steps(max_steps, 1)
    m = int(max_steps)
    _check_key_range(weights.n, m)
    check_total_weight(schedule.pi_n, weights.ell_n)

    marks = draw_marks(weights, m, rng)
    new, distinct = _first_draws(marks)
    # Percolated weights pi_n * w of the drawn marks only, not of all n vertices.
    wbar = schedule.pi_n * weights.weight(marks)
    X = np.zeros(m, dtype=np.int64)
    X[new] = rng.poisson(wbar[new])

    Z = np.zeros(m + 1, dtype=np.int64)
    X -= 1
    np.cumsum(X, out=Z[1:])

    # |V_m| = m - R(m): the explored set holds one fresh draw per distinct
    # mark, and every other draw is a repeat.
    if int(np.count_nonzero(new)) != distinct:
        raise AssertionError("explored-set identity |V_l| = l - R(l) violated")

    return ExplorationTrace(marks=marks, new_mark=new, Z=Z, wbar=wbar)


def sup_distance_to_limit(trace: ExplorationTrace, schedule: PercolationSchedule,
                          z_grid: np.ndarray) -> float:
    """sup over l = 0..last of |Z(l)/beta_n - z_grid[l]|, with last = z_grid.size - 1.

    z_grid[l] is the limit curve z(l/beta_n) on the step grid up to the
    horizon; the ensemble builds it once per n and every walk shares it.
    """
    last = z_grid.size - 1
    if last > trace.steps:
        raise DomainError(f"the limit grid needs step {last} but the trace has only {trace.steps}")
    gap = trace.Z[: last + 1] / schedule.beta_n
    gap -= z_grid
    return float(np.abs(gap, out=gap).max())


def repeat_fraction(trace: ExplorationTrace, schedule: PercolationSchedule) -> float:
    """R(steps) / beta_n, the repeats among all of the trace's draws on the beta_n scale."""
    repeats = trace.steps - int(np.count_nonzero(trace.new_mark))
    return float(repeats / schedule.beta_n)


def residual_largest_component(weights: WeightSequence, schedule: PercolationSchedule,
                               steps: int, rng) -> int:
    """Largest component among the vertices still unexplored after steps steps.

    Explores for steps steps, then samples the percolated graph and keeps
    the pairs whose two ends are both unexplored: by Poisson restriction
    that is the percolated graph on the unexplored set, with the original
    rates.  Returns 0 when everything was explored, and counts isolated
    survivors as size 1.
    """
    _check_steps(steps, 0)
    explored = np.zeros(weights.n + 1, dtype=bool)
    if steps >= 1:
        explored[run_exploration(weights, schedule, steps, rng).marks] = True
    if np.count_nonzero(explored) == weights.n:
        return 0
    g = sample_percolated_mnr_direct(weights, schedule.pi_n, rng)
    g.validate()
    keep = ~(explored[g.src] | explored[g.dst])
    # edges join only unexplored vertices, so explored ones are isolated
    return component_sizes(MultiGraph(n=g.n, src=g.src[keep], dst=g.dst[keep],
                                      mult=g.mult[keep])).giant_size

