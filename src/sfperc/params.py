"""Model parameters, power-law weights, and percolation schedules.

The graph model lives on n vertices with deterministic weights
w_i = c_F * (n/i)**alpha drawn from the quantile function of a pure power
law with tail exponent tau - 1 and tail constant C, for tau in (2, 3).
Percolation is applied with an n-dependent retention probability pi_n that
is tuned to the barely supercritical window; everything downstream is
measured on the scale beta_n = n * pi_n**(1/(3-tau)).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

MODES = ("multi", "single")
LAMBDA_RULE_KINDS = ("constant", "power", "logpower")

# Largest n whose pair keys i*(n+1) + j, at most (n+1)**2 - 1, fit in int64.
_MAX_N = math.isqrt(2**63 - 1) - 1


def is_number(value, kind=numbers.Real) -> bool:
    """A finite number of the given kind; bools, and ints too large for a float, do not count."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class ModelParams(NamedTuple):
    """Primitive parameters (tau, n) plus the constants derived from tau and C.

    alpha = 1/(tau-1) is the weight decay exponent, eta and eta_s are the
    percolation exponents for the multigraph and simple-graph windows, c_F is
    the weight scale forced by the tail constant, and mu is the limit of the
    average weight ell_n / n.
    """

    tau: float
    n: int
    alpha: float
    eta: float
    eta_s: float
    c_F: float
    mu: float


def derive_constants(tau: float, C: float) -> dict[str, float]:
    """Derive (alpha, eta, eta_s, c_F, mu) from the tail exponent and constant.

    Inverting the tail 1 - F(w) = C * w**-(tau-1) at i/n gives
    w = (C*n/i)**(1/(tau-1)), so the weight scale is c_F = C**(+1/(tau-1)).
    """
    if not (2.0 < tau < 3.0):
        raise DomainError(f"tau must lie strictly between 2 and 3, got tau={tau}")
    if not (is_number(C) and C > 0.0):
        raise DomainError(f"tail constant C must be a positive finite number, got C={C}")
    alpha = 1.0 / (tau - 1.0)
    c_F = C ** (1.0 / (tau - 1.0))
    if not math.isfinite(c_F * c_F):  # c_F**2 scales every pair rate and c_F_bar
        raise DomainError(f"tail constant C={C} puts c_F**2 past float range at tau={tau}")
    return {
        "alpha": alpha,
        "eta": (3.0 - tau) / (tau - 1.0),
        "eta_s": (3.0 - tau) / 2.0,
        "c_F": c_F,
        "mu": c_F * (tau - 1.0) / (tau - 2.0),
    }


def model_params(tau: float, C: float, n: int) -> ModelParams:
    """Validate primitives and bundle them with their derived constants."""
    if not (is_number(n, numbers.Integral) and 1 <= n <= _MAX_N):
        raise DomainError(f"n must be an integer in [1, {_MAX_N}], so that int64 pair keys"
                          f" hold, got n={n!r}")
    constants = derive_constants(tau, C)
    return ModelParams(tau=float(tau), n=int(n), **constants)


# Ids summed exactly into ell_n; past them the sum is closed in O(1).
_CHUNK = 1 << 16


class WeightSequence(NamedTuple):
    """The power-law weights w_i = c_F * (n/i)**alpha, i = 1..n, and their total ell_n.

    No weight is stored: ``weight(ids)`` evaluates w at the ids a caller
    gathers, and the size-biased mark law P(M = i) = w_i / ell_n, which is
    proportional to i**-alpha whatever the percolation, is drawn from
    (n, alpha) alone.
    """

    n: int
    alpha: float
    c_F: float
    ell_n: float

    @classmethod
    def of(cls, n: int, alpha: float, c_F: float) -> "WeightSequence":
        """The sequence with ell_n the sum of the first min(n, ``_CHUNK``) weights
        plus, for ids a = ``_CHUNK`` + 1 .. n, the Euler-Maclaurin sum of f(x) =
        c_F * (n/x)**alpha: the integral of f over [a, n] (by log1p and expm1, so it keeps its
        precision for n near a and alpha near 1), (f(a) + f(n)) / 2 and the B2 term
        (f'(n) - f'(a)) / 12, f'(x) = -alpha f(x) / x.  The next term, alpha (alpha+1)
        (alpha+2) f(a) / (720 a**3), bounds the rest: under 1e-21 of ell_n, whose
        a - 1 weights before a each exceed f(a).  O(1) work for any n.
        """
        a = min(n, _CHUNK) + 1
        ell_n = float(cls(n, alpha, c_F, 0.0).weight(np.arange(1, a)).sum())
        if n >= a:
            b, fa = 1.0 - alpha, (n / a) ** alpha  # f(a) / c_F; f(n) = c_F
            integral = -n * math.expm1(-b * math.log1p((n - a) / a)) / b
            ell_n += c_F * (integral + 0.5 * (fa + 1.0) + alpha / 12.0 * (fa / a - 1.0 / n))
        return cls(n=n, alpha=alpha, c_F=c_F, ell_n=ell_n)

    def weight(self, ids: np.ndarray) -> np.ndarray:
        """w at an int array of 1-based ids, bit for bit c_F * (n / ids) ** alpha."""
        w = self.n / ids
        np.power(w, self.alpha, out=w)
        w *= self.c_F
        return w

    def pair_weight(self, ij: np.ndarray) -> np.ndarray:
        """w_i * w_j at an int array of id products i * j, as c_F^2 * (n^2 / ij) ** alpha
        with one power per pair; i * j <= n^2 fits in int64 (see ``_MAX_N``)."""
        w = float(self.n) ** 2 / ij
        np.power(w, self.alpha, out=w)
        w *= self.c_F ** 2
        return w


def build_weights(params: ModelParams) -> WeightSequence:
    """The weights w_i = c_F * (n/i)**alpha of ``params`` with their total."""
    return WeightSequence.of(params.n, params.alpha, params.c_F)


@dataclass(frozen=True)
class LambdaRule:
    """A named rule mapping n to the percolation strength lambda_n.

    kind "constant" ignores n, "power" evaluates n**value, and "logpower"
    evaluates (log n)**value.  The closed set of rules keeps configs
    serializable and comparisons across n-grids meaningful.
    """

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in LAMBDA_RULE_KINDS:
            raise DomainError(
                f"unknown lambda rule kind {self.kind!r}; expected one of {LAMBDA_RULE_KINDS}"
            )
        if not is_number(self.value):
            raise DomainError(f"lambda rule value must be a number and finite, got {self.value!r}")
        object.__setattr__(self, "value", float(self.value))
        if self.kind == "constant" and self.value < 1.0:
            raise DomainError(f"constant lambda rule needs value >= 1, got {self.value}")
        if self.kind in ("power", "logpower") and self.value <= 0.0:
            raise DomainError(f"{self.kind} lambda rule needs a positive exponent, got {self.value}")

    def evaluate(self, n: int) -> float:
        if n < 1:
            raise DomainError(f"n must be at least 1, got n={n}")
        if self.kind == "constant":
            return self.value
        if self.kind == "power":
            return float(n) ** self.value
        return math.log(n) ** self.value

    def to_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    @classmethod
    def from_dict(cls, d: dict) -> "LambdaRule":
        if not isinstance(d, dict):
            raise DomainError(f"lambda rule must be an object, got {d!r}")
        extra = set(d) - {"kind", "value"}
        if extra:
            raise DomainError(f"unknown lambda rule fields: {sorted(extra)}")
        if "kind" not in d or "value" not in d:
            raise DomainError("lambda rule needs both 'kind' and 'value'")
        return cls(kind=d["kind"], value=d["value"])


class PercolationSchedule(NamedTuple):
    """A concrete (n, pi_n) pair on either the multigraph or simple-graph window.

    multi mode:  pi_n = lambda_n * n**-eta,   eta   = (3-tau)/(tau-1)
    single mode: pi_n = lambda_n * n**-eta_s, eta_s = (3-tau)/2
    beta_n = n * pi_n**(1/(3-tau)) is the component scale; in single mode
    N_n = n * pi_n**((tau-1)/(3-tau)) is the core scale, evaluated as
    lambda_n**((tau-1)/(3-tau)) * n**((3-tau)/2), and is None otherwise.
    Each scale is evaluated once; the tests check it against its other forms.
    """

    params: ModelParams
    mode: str
    lambda_n: float
    pi_n: float
    beta_n: float
    N_n: float | None


def make_schedule(params: ModelParams, mode: str, lambda_rule: LambdaRule) -> PercolationSchedule:
    """Evaluate a lambda rule at n and turn it into a feasible schedule."""
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}, got {mode!r}")
    n, tau = params.n, params.tau
    lam = lambda_rule.evaluate(n)
    if lam < 1.0:
        raise DomainError(
            f"lambda_n={lam:.6g} < 1 at n={n} (rule {lambda_rule.kind}:{lambda_rule.value}, mode={mode})"
        )
    exponent = params.eta if mode == "multi" else params.eta_s
    pi_n = lam * float(n) ** (-exponent)
    if not (0.0 < pi_n < 1.0):
        raise DomainError(
            f"pi_n={pi_n:.6g} outside (0, 1) for n={n}, lambda_n={lam:.6g}, mode={mode}"
        )
    N_n = None
    if mode == "single":
        N_n = lam ** ((tau - 1.0) / (3.0 - tau)) * float(n) ** ((3.0 - tau) / 2.0)
    return PercolationSchedule(params=params, mode=mode, lambda_n=lam, pi_n=pi_n,
                               beta_n=n * pi_n ** (1.0 / (3.0 - tau)), N_n=N_n)


def check_total_weight(pi: float, total: float) -> None:
    """Fail unless pi * total, the percolated total weight, is at most 2**62.

    Every Poisson rate a sampler or a walk draws on the pi-percolated model
    of total weight ``total`` is at most pi * total: the slot count's
    pi * ell_n / 2 and a mark's pi * w_i.  numpy draws Poisson counts only
    at rates below about 2**63.
    """
    if not pi * total <= 2.0**62:
        raise DomainError(f"the percolated total weight {pi * total:.6g} is past 2**62,"
                          " beyond numpy's Poisson draws; lower C")


def core_prefix_size(schedule: PercolationSchedule, a: float) -> int:
    """floor(a * N_n), the number of top-weight vertices in the core at level a."""
    if schedule.mode != "single":
        raise DomainError("core prefix is only defined for single-mode schedules")
    if not (is_number(a) and a > 0.0):
        raise DomainError(f"core level a must be a positive finite number, got a={a}")
    scaled = a * schedule.N_n
    # an infinite product has no floor; it is refused below as past n
    size = math.floor(scaled) if math.isfinite(scaled) else scaled
    if size < 1:
        raise DomainError(
            f"core prefix floor(a*N_n) = {size} is empty for a={a}, N_n={schedule.N_n:.6g}"
        )
    if size > schedule.params.n:
        raise DomainError(
            f"core prefix {size} exceeds n={schedule.params.n} for a={a}, N_n={schedule.N_n:.6g}"
        )
    return size
