"""Cross-validation of the simulator against the analytic return map.

A simulated flux series is classified by looking at a late window: a flat
window means convergence, a stationary oscillation means a persistent
periodic pattern, and a window whose extrema still drift means the run has
not settled.  Measured limits and oscillation extrema are then compared
with the map's fixed point and two-cycle.  A draining ring road's decay
ratio per ramp pair is fitted from its flux series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .ctm import SimConfig, Simulation
from .errors import DomainError
from .network import DmSpec, build_dm
from .poincare import (Circulation, StabilityClass, StabilityReport,
                       classify_stability)

__all__ = [
    "Verdict",
    "OscillationReport",
    "detect_oscillation",
    "ValidationResult",
    "validate_spec",
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


def _period_from_maxima(times: np.ndarray, values: np.ndarray,
                        low: float, high: float) -> float | None:
    """Median spacing of maxima runs (plateau-tolerant peak picking);
    high is the maximum of values, so at least one value makes a run."""
    level = high - 0.25 * (high - low)
    idx = np.flatnonzero(values >= level)
    runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    centers = [0.5 * (times[r[0]] + times[r[-1]]) for r in runs]
    if len(centers) < 2:
        return None
    return float(np.median(np.diff(centers)))


def detect_oscillation(times: np.ndarray, values: np.ndarray,
                       warmup: float, window: float) -> OscillationReport:
    """Classify the tail of a flux series.

    The last `window` of time is examined (the series must extend past
    warmup + window).  Range below _FLAT_TOL means converged; otherwise the
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
    if hi - lo < _FLAT_TOL:
        return OscillationReport(Verdict.CONVERGED, float(v_w.mean()),
                                 None, None, None)
    mid = len(v_w) // 2
    a, b = v_w[:mid], v_w[mid:]
    drift = max(abs(float(a.max()) - float(b.max())),
                abs(float(a.min()) - float(b.min())))
    if drift > _HALF_DRIFT_FRAC * (hi - lo) + _FLAT_TOL:
        return OscillationReport(Verdict.UNDETERMINED, None, None, None, None)
    period = _period_from_maxima(t_w, v_w, lo, hi)
    return OscillationReport(Verdict.PERSISTENT_OSCILLATION, None, lo, hi,
                             period)


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


def _through_capacities(spec: DmSpec) -> DmSpec:
    """`spec` with the capacities its boundary data let through: C3
    lowered to the destination supply, and C0 to the origin demand when
    that demand is at most the new C3.  A larger demand keeps C0, because
    link 0 then queues and sends at its capacity.  None keeps C0 or C3;
    a zero that lets no flow through leaves no map to predict from."""
    demand, supply = spec.origin_demand, spec.destination_supply
    c3 = spec.c3 if supply is None else min(spec.c3, supply)
    c0 = spec.c0 if demand is None or demand > c3 else min(spec.c0, demand)
    if not min(c0, c3) > 0.0:
        raise DomainError(f"origin_demand {demand} or destination_supply "
                          f"{supply} lets no flow through to validate")
    return replace(spec, c0=c0, c3=c3)


def validate_spec(spec: DmSpec,
                  config: SimConfig = SimConfig()) -> ValidationResult:
    """Run `build_dm(spec)` from empty and compare against the return map.

    The prediction is the map of `_through_capacities(spec)`, so it
    reads the boundary data that the run simulates.  The monitored series
    is the map's own variable v: link 1's downstream boundary flux, or
    the map's C3 minus link 2's when the map circulates clockwise (link 2
    congested).  A bottleneck regime has no map and monitors link 1.
    Expected behaviour: converged near the fixed point for finite-time
    and asymptotic classes; when unstable, a persistent oscillation with
    extrema near the two-cycle, or a converged tail near both of its
    points when the cycle is narrower than the detector's flat tolerance.
    """
    report = classify_stability(_through_capacities(spec))
    record = Simulation(build_dm(spec), config).run()
    times, series = record.series("link1")
    if report.map is not None and report.map.branch is Circulation.CLOCKWISE:
        series = report.map.c3 - record.series("link2")[1]
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
        cycle = report.period2
        narrow = cycle.v_plus - cycle.v_minus < _FLAT_TOL
        agrees = osc.verdict is (Verdict.CONVERGED if narrow
                                 else Verdict.PERSISTENT_OSCILLATION)
        if agrees:
            low, high = ((osc.value, osc.value) if narrow
                         else (osc.low, osc.high))
            ex_err = (_rel_err(low, cycle.v_minus),
                      _rel_err(high, cycle.v_plus))
    else:
        # Neutral continuum: any bounded tail is consistent.
        agrees = osc.verdict is not Verdict.UNDETERMINED
    return ValidationResult(spec, report, osc, agrees, v_err, ex_err)


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
