"""Cross-validation of the simulator against the analytic return map.

A simulated flux series is classified by looking at a late window: a flat
window means convergence, a stationary oscillation means a persistent
periodic pattern, and a window whose extrema still drift means the run has
not settled.  Measured limits and oscillation extrema are then compared
with the map's fixed point and two-cycle.

Two independent period-root finders back the periodic-point formulas: an
exact enumerator built on the piecewise-linear representation of iterated
maps, and a plain dense-grid scan with bisection refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ctm import SimConfig, Simulation
from .errors import DomainError
from .network import DmSpec, Network, build_dm
from .piecewise import _MERGE_TOL
from .poincare import (PoincareMap, StabilityClass, StabilityReport,
                       classify_stability)

__all__ = [
    "Verdict",
    "OscillationReport",
    "detect_oscillation",
    "ValidationResult",
    "validate_spec",
    "brute_force_period_roots",
    "scan_period_roots",
    "measure_decay_ratio",
]

# Window extrema may drift by this fraction of the oscillation range
# before the series is declared non-stationary.
_HALF_DRIFT_FRAC = 0.05
# validate_spec skips the first half of the horizon and classifies its
# last quarter; a window range below _FLAT_TOL counts as converged.
_WARMUP_FRAC = 0.5
_WINDOW_FRAC = 0.25
_FLAT_TOL = 1e-3


class Verdict(Enum):
    CONVERGED = "converged"
    PERSISTENT_OSCILLATION = "persistent_oscillation"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class OscillationReport:
    verdict: Verdict
    value: float | None            # limit when converged
    low: float | None              # window extrema when oscillating
    high: float | None
    period_estimate: float | None  # spacing of successive maxima
    warmup_used: float
    window: float


def _period_from_maxima(times: np.ndarray, values: np.ndarray,
                        low: float, high: float) -> float | None:
    """Median spacing of maxima runs (plateau-tolerant peak picking)."""
    level = high - 0.25 * (high - low)
    idx = np.flatnonzero(values >= level)
    if len(idx) == 0:
        return None
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    centers = [0.5 * (times[r[0]] + times[r[-1]]) for r in runs]
    if len(centers) < 2:
        return None
    return float(np.median(np.diff(centers)))


def detect_oscillation(times: np.ndarray, values: np.ndarray,
                       warmup: float, window: float,
                       tol: float = _FLAT_TOL) -> OscillationReport:
    """Classify the tail of a flux series.

    The last `window` of time is examined (the series must extend past
    warmup + window).  Range below tol means converged; otherwise the
    window is split in half and the extrema of the halves must agree to
    within a small fraction of the range for the oscillation to count as
    stationary, which rules out trends and still-decaying transients.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) != len(values) or len(times) < 4:
        raise DomainError("need matching time/value series of length >= 4")
    span = times[-1] - times[0]
    if span < warmup + window:
        raise DomainError(
            f"series spans {span}, shorter than warmup+window "
            f"({warmup}+{window})")
    sel = times >= times[-1] - window
    t_w, v_w = times[sel], values[sel]
    lo, hi = float(v_w.min()), float(v_w.max())
    if hi - lo < tol:
        return OscillationReport(Verdict.CONVERGED, float(v_w.mean()),
                                 None, None, None, warmup, window)
    mid = len(v_w) // 2
    a, b = v_w[:mid], v_w[mid:]
    drift = max(abs(float(a.max()) - float(b.max())),
                abs(float(a.min()) - float(b.min())))
    if drift > _HALF_DRIFT_FRAC * (hi - lo) + tol:
        return OscillationReport(Verdict.UNDETERMINED, None, None, None,
                                 None, warmup, window)
    period = _period_from_maxima(t_w, v_w, lo, hi)
    return OscillationReport(Verdict.PERSISTENT_OSCILLATION, None, lo, hi,
                             period, warmup, window)


@dataclass(frozen=True)
class ValidationResult:
    """Comparison of one simulated run against the analytic prediction."""

    spec: DmSpec
    report: StabilityReport
    oscillation: OscillationReport
    agrees: bool                      # verdict matches the stability class
    v_star_rel_error: float | None
    extrema_rel_errors: tuple[float, float] | None


def _rel_err(measured: float, expected: float) -> float:
    if abs(expected) < 1e-9:
        return abs(measured - expected)
    return abs(measured - expected) / abs(expected)


def validate_spec(spec: DmSpec, config: SimConfig = SimConfig(),
                  network: Network | None = None) -> ValidationResult:
    """Run the network from empty and compare against the return map.

    `network` defaults to `build_dm(spec)`; a scenario passes its own, with
    its boundary data, and its simulation settings as `config`.  The
    monitored series is link 1's downstream boundary flux, which is
    the unified map variable whenever the merge is saturated.  Expected
    behaviour: converged near the fixed point for finite-time and
    asymptotic classes, a persistent oscillation with extrema near the
    two-cycle when unstable.
    """
    report = classify_stability(spec)
    sim = Simulation(build_dm(spec) if network is None else network, config)
    record = sim.run()
    times, series = record.series("link1")
    osc = detect_oscillation(times, series, _WARMUP_FRAC * config.horizon,
                             _WINDOW_FRAC * config.horizon)

    v_err = None
    ex_err = None
    if report.stability in (StabilityClass.FINITE_TIME,
                            StabilityClass.ASYMPTOTIC):
        agrees = osc.verdict is Verdict.CONVERGED
        if agrees and report.fixed_point is not None:
            v_err = _rel_err(osc.value, report.fixed_point)
    elif report.stability is StabilityClass.UNSTABLE:
        agrees = osc.verdict is Verdict.PERSISTENT_OSCILLATION
        if agrees and report.period2 is not None:
            ex_err = (_rel_err(osc.low, report.period2.v_minus),
                      _rel_err(osc.high, report.period2.v_plus))
    else:
        # Neutral continuum: any bounded tail is consistent.
        agrees = osc.verdict is not Verdict.UNDETERMINED
    return ValidationResult(spec, report, osc, agrees, v_err, ex_err)


def brute_force_period_roots(fmap: PoincareMap, order: int,
                             ) -> tuple[list[float], list[tuple[float, float]]]:
    """All solutions of F^order(v) = v on [0, C3], exactly per segment.

    Returns isolated roots plus identity intervals (the latter only occur
    at interior slope one, where a whole band is two-periodic).

    Raises DomainError when the steepest segment of F^order, which rises
    by |upper - lower| over that divided by slope**order, is no wider
    than the spacing below which `PiecewiseLinear.compose` merges
    breakpoints: that segment, and the roots it decides, would be lost.
    """
    if order < 1:
        raise DomainError("order must be a positive integer")
    rise = abs(fmap.upper - fmap.lower)
    if fmap.slope > 0.0 and rise > 0.0:
        width = rise
        for _ in range(order):      # slope**order can overflow a float
            width /= fmap.slope
        if width <= _MERGE_TOL * max(fmap.c3, 1.0):
            raise DomainError(
                f"slope {fmap.slope!r} is too steep for the piecewise "
                f"oracle: F^{order} has a segment {width!r} wide")
    return fmap.as_piecewise().iterate(order).fixed_points()


def scan_period_roots(fmap: PoincareMap, order: int, n_grid: int = 100_001,
                      refine_tol: float = 1e-10) -> list[float]:
    """Grid scan of F^order(v) - v with bisection refinement.

    Independent of the piecewise-linear enumeration; used as a second
    oracle.  Returns deduplicated roots (identity plateaus show up as
    their endpoints' grid neighborhoods and are not reported specially).
    """
    if order < 1:
        raise DomainError("order must be a positive integer")

    def g(v: float) -> float:
        x = v
        for _ in range(order):
            x = fmap(x)
        return x - v

    xs = np.linspace(0.0, fmap.c3, n_grid)
    vals = np.array([g(x) for x in xs])
    roots = [float(x) for x, y in zip(xs, vals) if y == 0.0]
    sign = np.sign(vals)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        a, b = float(xs[i]), float(xs[i + 1])
        fa = vals[i]
        while b - a > refine_tol:
            m = 0.5 * (a + b)
            fm = g(m)
            if fm == 0.0:
                a = b = m
            elif (fa > 0) != (fm > 0):
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > 1e-8 * max(fmap.c3, 1.0):
            out.append(r)
    return out


def measure_decay_ratio(times: np.ndarray, values: np.ndarray,
                        t_start: float, t_end: float,
                        interval: float) -> float:
    """Geometric decay factor per `interval` from a log-linear fit.

    Fits log(values) over [t_start, t_end] and returns exp(slope *
    interval); used to extract the per-ramp-pair flux ratio of a draining
    ring road, where `interval` is the wave travel time across one pair.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= t_start) & (times <= t_end) & (values > 0.0)
    if sel.sum() < 2:
        raise DomainError("not enough positive samples in the fit window")
    slope = np.polyfit(times[sel], np.log(values[sel]), 1)[0]
    return float(math.exp(slope * interval))
