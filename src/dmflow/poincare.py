"""First-return analysis of the diverge-merge network.

When the downstream link is the bottleneck (C3 <= C0 and C3 < C1 + C2),
exactly one intermediate link is congested in any nearby stationary state,
and kinematic waves circulate: backward on the congested link, forward on
the other.  Sampling the congested link's out-flux each time a disturbance
completes the loop gives a one-dimensional return map.  In the unified
variable v (link-1 out-flux; C3 minus link-2 out-flux when link 2 is the
congested one) the map is piecewise linear and nonincreasing:

    counterclockwise (link 1 congested):
        F(v) = min(C1, max(A1, C3 - ((1-xi)/xi) * v)),
        A1 = max(C3 - (1-xi)*C0, C3 - C2, beta*C3)

    clockwise (link 2 congested):
        F(v) = max(C3 - C2, min(A2p, (xi/(1-xi)) * (C3 - v))),
        A2p = min(xi*C0, C1, beta*C3)

Its unique fixed point carries the stationary flow.  Stability is read off
the interior slope: the fixed point is reached exactly after at most two
iterations when a clamp contains it; otherwise perturbations alternate
with ratio (1-xi)/xi (counterclockwise) or xi/(1-xi) (clockwise), giving
damped oscillation on one side of 1/2 and, on the other, a unique
attracting two-cycle (v-, v+) that bounds the flow oscillation amplitude.
At slope exactly one every off-fixed-point state is two-periodic.

The regime, the circulation, the slope and clamps, and the fixed point,
class and two-cycle are defined once, by one array pass over a grid of xi
(_classify_grid, which bifurcation.sweep_xi runs).  Its one-point case has
one reader, classify_stability, whose StabilityReport holds the regime, the
fixed point, the class, the two-cycle and the map that build_map returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DomainError, UnsupportedRegimeError
from .network import DmSpec, _thresholds
from .piecewise import PiecewiseLinear

__all__ = [
    "Regime",
    "Circulation",
    "PoincareMap",
    "StabilityClass",
    "PeriodTwoPoints",
    "StabilityReport",
    "build_map",
    "classify_stability",
    "cobweb",
]


class Regime(Enum):
    """Which structural case the capacities and route split select."""

    UPSTREAM_BOTTLENECK = "upstream_bottleneck"    # C0 < min(C1+C2, C3)
    MIDDLE_BOTTLENECK = "middle_bottleneck"        # C1+C2 <= min(C0, C3)
    CCW_FINITE_TIME = "ccw_finite_time"            # counterclockwise, clamped
    CW_FINITE_TIME = "cw_finite_time"              # clockwise, clamped
    CCW_CW_OVERLAP = "ccw_cw_overlap"              # xi == beta in the open band
    SOC_SUC = "soc_suc"    # link 1 strictly over-, link 2 strictly under-critical
    SUC_SOC = "suc_soc"    # mirror image

    @property
    def supports_map(self) -> bool:
        return self not in (Regime.UPSTREAM_BOTTLENECK,
                            Regime.MIDDLE_BOTTLENECK)


class Circulation(Enum):
    COUNTERCLOCKWISE = "counterclockwise"
    CLOCKWISE = "clockwise"


class StabilityClass(Enum):
    FINITE_TIME = "finite_time"
    ASYMPTOTIC = "asymptotic"
    UNSTABLE = "unstable"
    NEUTRAL_TWO_CYCLE_CONTINUUM = "neutral_two_cycle_continuum"


@dataclass(frozen=True)
class PeriodTwoPoints:
    """Two-cycle bracketing the fixed point.

    With continuum=True (interior slope exactly one) every v in
    [v_minus, v*) u (v*, v_plus] is two-periodic, not just the endpoints.
    """

    v_minus: float
    v_plus: float
    continuum: bool = False


@dataclass(frozen=True)
class StabilityReport:
    """The verdict at one route split (see classify_stability).

    fixed_point is xi*q (counterclockwise) or C3 - (1-xi)*q (clockwise),
    q the stationary through-flow; None in a bottleneck regime.  period2
    is the two-cycle of an unstable or neutral map, None otherwise:
        counterclockwise, lam = (1-xi)/xi >= 1:
            v- = max(A1, C3 - lam*C1),  v+ = min(C1, C3 - lam*v-)
        clockwise, mu = xi/(1-xi) >= 1, by the v -> C3 - v symmetry that
        swaps (xi, C1, beta) with (1-xi, C2, 1-beta):
            v- = max(C3 - C2, mu*(C3 - A2p)),  v+ = min(A2p, mu*(C3 - v-))
    map is the return map (see build_map), None in a bottleneck regime.
    """

    regime: Regime
    stability: StabilityClass
    fixed_point: float | None
    max_steps: int | None = None       # finite-time convergence bound
    period2: PeriodTwoPoints | None = None
    lyapunov_verdict: str | None = None
    # Strict Lyapunov label where it differs from the class: the neutral
    # continuum never decays, so first-method analysis calls it unstable.
    map: PoincareMap | None = None


@dataclass(frozen=True)
class PoincareMap:
    """Unified return map: nonincreasing, piecewise linear on [0, C3]."""

    branch: Circulation
    slope: float      # (1-xi)/xi counterclockwise, xi/(1-xi) clockwise
    lower: float      # A1 counterclockwise, C3 - C2 clockwise
    upper: float      # C1 counterclockwise, A2p clockwise
    c3: float

    def __call__(self, v: float) -> float:
        if not 0.0 <= v <= self.c3:
            raise DomainError(f"v={v} outside [0, {self.c3}]")
        if self.branch is Circulation.COUNTERCLOCKWISE:
            return min(self.upper, max(self.lower, self.c3 - self.slope * v))
        return max(self.lower, min(self.upper, self.slope * (self.c3 - v)))

    def iterate(self, v0: float, n: int) -> list[float]:
        """Orbit [v0, F v0, ..., F^n v0]."""
        if n < 0:
            raise DomainError("n must be nonnegative")
        self(v0)    # checks v0 against the domain, also when n == 0
        orbit = [v0]
        v = v0
        for _ in range(n):
            v = self(v)
            orbit.append(v)
        return orbit

    def as_piecewise(self) -> PiecewiseLinear:
        """Exact breakpoint representation on [0, C3].

        The fields convert to Fractions exactly, so the interior kinks, the
        preimages of the two clamp levels, and F's values on them are
        exact.  A field that is not finite raises DomainError: a subnormal
        xi overflows the counterclockwise slope to inf.
        """
        fields = (self.slope, self.lower, self.upper, self.c3)
        if not np.isfinite(fields).all():
            raise DomainError(f"non-finite field in {self}")
        f = PoincareMap(self.branch, *map(Fraction, fields))
        cuts = {0, f.c3}
        if f.slope != 0:
            if f.branch is Circulation.COUNTERCLOCKWISE:
                candidates = ((f.c3 - f.upper) / f.slope,
                              (f.c3 - f.lower) / f.slope)
            else:
                candidates = (f.c3 - f.upper / f.slope,
                              f.c3 - f.lower / f.slope)
            cuts.update(x for x in candidates if 0 < x < f.c3)
        xs = tuple(sorted(cuts))
        return PiecewiseLinear(xs, tuple(map(f, xs)))


def build_map(spec: DmSpec) -> PoincareMap:
    """Construct the return map for a downstream-bottleneck network: the
    map of `classify_stability(spec)`.

    In the overlap regime (xi == beta inside the open band) either
    circulation direction yields a valid map with the same fixed point;
    this one is counterclockwise unless that slope degenerates (xi == 0).
    """
    report = classify_stability(spec)
    if report.map is None:
        raise UnsupportedRegimeError(
            f"no circulating return map in regime {report.regime.value}")
    return report.map


def classify_stability(spec: DmSpec) -> StabilityReport:
    """Regime, fixed point, stability class, periodic points and map: the
    grid's row at spec.xi as Python values.

    Bottleneck regimes (upstream or middle) settle in finite time for any
    initial profile and carry no return map; they are reported finite-time
    with no fixed-point value.
    """
    regime, ccw, fields, v_star, stability, v_minus, v_plus = \
        _classify_grid(spec, np.array([spec.xi]))
    regime, stability = regime.item(), stability.item()
    v_star, v_minus, v_plus = (None if math.isnan(v) else v for v in
                               (v_star.item(), v_minus.item(), v_plus.item()))
    fmap = max_steps = None
    if regime.supports_map:
        branch = (Circulation.COUNTERCLOCKWISE if ccw.item()
                  else Circulation.CLOCKWISE)
        fmap = PoincareMap(branch, *fields[:, 0].tolist(), spec.c3)
        if stability is StabilityClass.FINITE_TIME:
            # 1 when the map is constant, else 2 (the general clamp bound).
            max_steps = (1 if fmap(0.0) == v_star and fmap(spec.c3) == v_star
                         else 2)
    neutral = stability is StabilityClass.NEUTRAL_TWO_CYCLE_CONTINUUM
    cycle = (None if v_minus is None
             else PeriodTwoPoints(v_minus, v_plus, continuum=neutral))
    return StabilityReport(regime, stability, v_star, max_steps=max_steps,
                           period2=cycle,
                           lyapunov_verdict="unstable" if neutral else None,
                           map=fmap)


def _max(a, b):
    """Elementwise builtin max(a, b): b only where b > a, so a NaN in b
    loses (np.maximum would return it)."""
    return np.where(b > a, b, a)


def _min(a, b):
    """Elementwise builtin min(a, b)."""
    return np.where(b < a, b, a)


def _classify_grid(template: DmSpec, xi: np.ndarray,
                   ) -> tuple[np.ndarray, ...]:
    """Classify the return map of template.with_xi(x) for every x in xi.

    This is the one definition of the regime, the circulation, the map's
    slope and clamps, and the fixed point, class and two-cycle they give;
    classify_stability reads its row at a single xi.  Returns
    the arrays (regime, ccw, fields, v*, stability, v-, v+): ccw is True
    where the map circulates counterclockwise, the rows of fields are the
    slope, lower and upper, and v*, v- and v+ are float64; each holds NaN
    where there is no map or the class no value.
    A circulating map of slope 0 is constant, so finite-time.  v+ is
    evaluated as the image of v-, so the cycle closes bitwise under the
    map.  As in Python float arithmetic, a subnormal xi may overflow the
    counterclockwise slope to inf, and inf * 0 gives a NaN that the clamps
    then drop.
    """
    n = len(xi)
    c0, c1, c2, c3 = template.c0, template.c1, template.c2, template.c3
    beta = template.beta
    lo, hi = _thresholds(template)
    # The case split in order, each case with its regime, whether the map
    # circulates counterclockwise, and whether it circulates off the
    # clamps.  Past the two bottleneck cases, c3 <= c0 and c3 < c1 + c2;
    # with c3 == c0 there is no strict upstream surplus, and the open band
    # settles in finite time.
    bottleneck = [c0 < min(c1 + c2, c3), c1 + c2 <= min(c0, c3)]
    strict = c3 != c0
    cases, regimes, ccws, circulates = zip(
        (bottleneck[0], Regime.UPSTREAM_BOTTLENECK, False, False),
        (bottleneck[1], Regime.MIDDLE_BOTTLENECK, False, False),
        (xi >= hi, Regime.CCW_FINITE_TIME, True, False),
        (xi <= lo, Regime.CW_FINITE_TIME, False, False),
        (xi == beta, Regime.CCW_CW_OVERLAP, True, False),
        (xi > beta, Regime.SOC_SUC if strict else Regime.CCW_FINITE_TIME,
         True, strict),
        (True, Regime.SUC_SOC if strict else Regime.CW_FINITE_TIME,
         False, strict))
    case = np.select(cases, range(len(cases)))
    regime = np.array(regimes, dtype=object)[case]
    # The overlap may circulate either way.  It is the one counterclockwise
    # case that admits xi = 0, where that slope degenerates.
    ccw = np.array(ccws)[case] & (xi != 0.0)
    circulating = np.array(circulates)[case]
    fields = np.full((3, n), np.nan)
    stability = np.full(n, StabilityClass.FINITE_TIME, dtype=object)
    v_minus, v_plus = np.full((2, n), np.nan)
    if any(bottleneck):
        # Bottleneck regimes depend on the capacities alone and carry no
        # map, so no v* either.
        return regime, ccw, fields, np.full(n, np.nan), stability, \
            v_minus, v_plus
    v_star = np.where(xi >= hi, c1, np.where(xi <= lo, c3 - c2, xi * c3))
    for branch in (True, False):
        # Indexing the branch first keeps xi = 0 and xi = 1 out of the
        # divisions.
        idx = np.flatnonzero(ccw == branch)
        x = xi[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            if branch:
                slope = (1.0 - x) / x
                lower = _max(_max(c3 - (1.0 - x) * c0, c3 - c2), beta * c3)
                upper = c1
                vm = _max(lower, c3 - slope * upper)
                vp = _min(upper, _max(lower, c3 - slope * vm))
            else:
                slope = x / (1.0 - x)
                lower = c3 - c2
                upper = _min(_min(x * c0, c1), beta * c3)
                vm = _max(lower, slope * (c3 - upper))
                vp = _max(lower, _min(upper, slope * (c3 - vm)))
        fields[0, idx], fields[1, idx], fields[2, idx] = slope, lower, upper
        # A map of slope 0 is constant, so it stays finite-time.
        circ = circulating[idx] & (slope != 0.0)
        stability[idx[circ]] = np.where(
            slope[circ] < 1.0, StabilityClass.ASYMPTOTIC,
            np.where(slope[circ] == 1.0,
                     StabilityClass.NEUTRAL_TWO_CYCLE_CONTINUUM,
                     StabilityClass.UNSTABLE))
        # v- lies in the map's domain [0, C3] with no check.
        # Counterclockwise it lies in [beta*C3, C3] by construction.
        # Clockwise, circulation needs C0 > C3, xi < beta and xi < C1/C3,
        # so A2p > xi*C3 and v- < xi*C3.
        cycle = circ & (slope >= 1.0)
        v_minus[idx[cycle]] = vm[cycle]
        v_plus[idx[cycle]] = vp[cycle]
    return regime, ccw, fields, v_star, stability, v_minus, v_plus


def cobweb(orbit: list[float],
           ) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Cobweb segments of an orbit from `PoincareMap.iterate`, for
    plotting against the diagonal.

    Each iteration contributes the vertical segment (v_i, v_i)->(v_i,
    v_{i+1}) and the horizontal one (v_i, v_{i+1})->(v_{i+1}, v_{i+1}).
    """
    segments = []
    for a, b in zip(orbit, orbit[1:]):
        segments.append(((a, a), (a, b)))
        segments.append(((a, b), (b, b)))
    return segments
