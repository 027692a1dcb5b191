"""Mark-based exploration of the percolated multigraph and its rescaled walk.

Each step draws a size-biased mark M_l.  A fresh mark contributes
Poisson(pi_n * w_{M_l}) potential children, a repeated mark contributes
nothing, and either way the walk pays one unit:

    Z(l) = Z(l-1) + X_l - 1,   X_l = Poisson(pi_n * w_{M_l}) * 1{M_l fresh}.

Components are delimited by new running minima of Z (each excursion's fresh
marks are exactly one component's vertices), and the rescaled walk
Z(floor(t*beta_n))/beta_n converges to the deterministic curve z(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .components import largest_component_among
from .errors import DomainError, RangeError
from .graphgen import draw_marks, sample_percolated_mnr_subset
from .params import PercolationSchedule, WeightSequence
from .theory import TheoryConstants, limit_curve_z


@dataclass(frozen=True)
class ExplorationTrace:
    """Step-indexed record of one exploration run.

    Arrays Z, S, repeats, and potential_stack_size have length steps + 1 and
    start at the step-0 state; marks and new_mark have length steps.
    ``excursions`` lists the closed excursions as (first_step, last_step)
    pairs, 1-based inclusive; ``open_excursion`` is True when the walk ended
    before the final excursion closed.
    """

    steps: int
    marks: np.ndarray
    new_mark: np.ndarray
    Z: np.ndarray
    S: np.ndarray
    repeats: np.ndarray
    potential_stack_size: np.ndarray
    excursions: list[tuple[int, int]]
    open_excursion: bool

    def explored(self, upto: int | None = None) -> np.ndarray:
        """Distinct explored marks after ``upto`` steps (default: all steps)."""
        if upto is None:
            upto = self.steps
        if not (0 <= upto <= self.steps):
            raise RangeError(f"step {upto} outside [0, {self.steps}]")
        # A mark is new exactly at its first draw, so no np.unique (whose
        # integer hash path is slow) is needed.
        return np.sort(self.marks[:upto][self.new_mark[:upto]])

    def excursion_vertex_counts(self) -> np.ndarray:
        """Fresh-mark count (true component size) of each closed excursion."""
        cum = np.concatenate([[0], np.cumsum(self.new_mark)])
        return np.array([cum[e] - cum[s - 1] for s, e in self.excursions], dtype=np.int64)


def run_exploration(weights: WeightSequence, schedule: PercolationSchedule,
                    max_steps: int, rng) -> ExplorationTrace:
    """Run the exploration for max_steps mark draws on a multi-mode schedule."""
    if schedule.mode != "multi":
        raise DomainError("exploration runs on multi-mode schedules")
    if max_steps < 1:
        raise DomainError(f"max_steps must be positive, got {max_steps}")
    m = int(max_steps)
    wbar = schedule.percolated_weights(weights)

    marks = draw_marks(weights, m, rng)
    new = np.zeros(m, dtype=bool)
    new[np.unique(marks, return_index=True)[1]] = True
    X = np.zeros(m, dtype=np.int64)
    X[new] = rng.poisson(wbar[marks[new] - 1])

    Z = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(X - 1, out=Z[1:])
    S = np.zeros(m + 1)
    np.cumsum(np.where(new, wbar[marks - 1], 0.0), out=S[1:])
    S[1:] -= np.arange(1, m + 1)
    repeats = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(~new, out=repeats[1:])

    # |V_l| = l - R(l): the fresh-mark count at every step.
    if int(new.sum()) != m - int(repeats[-1]):
        raise AssertionError("explored-set identity |V_l| = l - R(l) violated")

    # Excursions close exactly when Z hits a new running minimum.
    runmin = np.minimum.accumulate(Z)
    closes = np.nonzero(runmin[1:] < runmin[:-1])[0] + 1
    starts = np.concatenate([[1], closes[:-1] + 1]) if closes.size else np.empty(0, np.int64)
    excursions = list(zip(starts.tolist(), closes.tolist()))
    open_excursion = bool(closes.size == 0 or closes[-1] != m)

    # Pending potential vertices: Z above its running minimum, plus one for
    # the pending decrement, except at step 0 and at closing steps.
    stack = Z - runmin + 1
    stack[0] = 0
    stack[closes] = 0
    return ExplorationTrace(steps=m, marks=marks, new_mark=new, Z=Z, S=S,
                            repeats=repeats, potential_stack_size=stack,
                            excursions=excursions, open_excursion=open_excursion)


def _step_of(t: float, schedule: PercolationSchedule, steps: int | None) -> int:
    if t < 0.0:
        raise DomainError(f"time must be nonnegative, got t={t}")
    step = math.floor(t * schedule.beta_n)
    if steps is not None and step > steps:
        raise RangeError(
            f"time t={t} needs step {step} but the trace has only {steps} steps"
        )
    return step


def rescaled_walk(trace: ExplorationTrace, schedule: PercolationSchedule,
                  grid) -> np.ndarray:
    """Sample Z(floor(t*beta_n)) / beta_n on a grid of times; returns (t, value) rows."""
    out = np.empty((len(grid), 2))
    for row, t in enumerate(grid):
        step = _step_of(float(t), schedule, trace.steps)
        out[row, 0] = t
        out[row, 1] = trace.Z[step] / schedule.beta_n
    return out


def sup_distance_to_limit(trace: ExplorationTrace, schedule: PercolationSchedule,
                          constants: TheoryConstants, T: float) -> float:
    """sup over the step grid l = 0..floor(T*beta_n) of |Z(l)/beta_n - z(l/beta_n)|."""
    last = _step_of(T, schedule, trace.steps)
    params = schedule.params
    t_grid = np.arange(last + 1) / schedule.beta_n
    z_vals = params.mu ** (3.0 - params.tau) * constants.kappa * t_grid ** (params.tau - 2.0) - t_grid
    walk = trace.Z[: last + 1] / schedule.beta_n
    return float(np.abs(walk - z_vals).max())


def repeat_fraction(trace: ExplorationTrace, schedule: PercolationSchedule,
                    t: float) -> float:
    """R(floor(t*beta_n)) / beta_n, the repeats seen by time t on the beta_n scale."""
    step = _step_of(t, schedule, trace.steps)
    return float(trace.repeats[step] / schedule.beta_n)


def empirical_forward_degree(trace: ExplorationTrace, weights: WeightSequence,
                             schedule: PercolationSchedule, t: float) -> float:
    """Size-biased mean percolated weight of the unexplored set at time t:
    sum_{i not in V} wbar_i^2 / sum_{i not in V} wbar_i."""
    step = _step_of(t, schedule, trace.steps)
    explored = trace.explored(step)
    wbar_explored = schedule.pi_n * weights.weights[explored - 1]
    total = schedule.percolated_total(weights)
    total_sq = schedule.pi_n**2 * float(np.sum(weights.weights**2))
    denom = total - float(wbar_explored.sum())
    if denom <= 0.0:
        raise DomainError("unexplored set has no weight left")
    return (total_sq - float(np.sum(wbar_explored**2))) / denom


def residual_largest_component(weights: WeightSequence, schedule: PercolationSchedule,
                               t: float, rng) -> int:
    """Largest component among the vertices still unexplored at time t.

    Explores for floor(t*beta_n) steps, then samples the percolated graph on
    the unexplored set (the conditional law is again Poissonian with the
    original rates) and measures its largest component.  Returns 0 when
    everything was explored, and counts isolated survivors as size 1.
    """
    steps = _step_of(t, schedule, None)
    if steps < 1:
        explored = np.empty(0, dtype=np.int64)
    else:
        trace = run_exploration(weights, schedule, steps, rng)
        explored = trace.explored()
    remaining = np.setdiff1d(np.arange(1, weights.n + 1, dtype=np.int64), explored,
                             assume_unique=True)
    if remaining.size == 0:
        return 0
    g = sample_percolated_mnr_subset(weights, schedule.pi_n, remaining, rng)
    return max(largest_component_among(g, remaining), 1)


def write_trace_csv(trace: ExplorationTrace, path) -> None:
    """CSV export with header step,Z,S,repeats,new_mark (one row per step)."""
    lines = ["step,Z,S,repeats,new_mark"]
    for l in range(1, trace.steps + 1):
        lines.append(
            f"{l},{trace.Z[l]},{float(trace.S[l])!r},{trace.repeats[l]},{int(trace.new_mark[l - 1])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")
