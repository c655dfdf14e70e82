"""Route-split sweeps: how stability changes with the choice proportion.

Varying xi moves the fixed point along a continuous piecewise-linear curve
while its character switches at four thresholds: 1 - C2/C3 and C1/C3 (ends
of the open band), beta (circulation direction flips) and 1/2 (interior
slope crosses one).  Sweeping a grid of xi values and recording the fixed
point, its class, and the two-cycle endpoints yields the data behind a
bifurcation diagram: a stable branch that loses stability on an interval
where a finite-amplitude two-cycle takes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError
from .network import DmSpec, _thresholds
from .poincare import (StabilityClass, _classify_grid, classify_regime,
                       classify_stability)

__all__ = ["SweepTable", "Transition", "sweep_xi", "regime_boundaries",
           "boundary_values"]

_DEDUPE_TOL = 1e-15


@dataclass(frozen=True)
class SweepTable:
    """A sweep by column: row i is the classification at xi[i].

    Columns are lists of Python floats, StabilityClass members and None
    (no fixed point in a bottleneck regime; no two-cycle when stable).
    """

    xi: list[float]
    v_star: list[float | None]
    stability: list[StabilityClass]
    v_minus: list[float | None]
    v_plus: list[float | None]

    def __len__(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class Transition:
    """Stability classes just below, at, and just above a boundary xi."""

    xi: float
    below: StabilityClass | None
    at: StabilityClass
    above: StabilityClass | None

    def describe(self) -> str:
        left = self.below.value if self.below else "-"
        right = self.above.value if self.above else "-"
        return f"{left} -> [{self.at.value}] -> {right}"


def _dedupe(xs: Iterable[float]) -> list[float]:
    """xs sorted, dropping each value within _DEDUPE_TOL of the last kept."""
    kept: list[float] = []
    for x in sorted(xs):
        if not kept or x - kept[-1] > _DEDUPE_TOL:
            kept.append(x)
    return kept


def boundary_values(template: DmSpec) -> list[float]:
    """Candidate transition points within [0, 1], sorted and deduplicated."""
    cands = [*_thresholds(template), template.beta, 0.5]
    return _dedupe(c for c in cands if 0.0 <= c <= 1.0)


def sweep_xi(template: DmSpec, grid: Iterable[float]) -> SweepTable:
    """Classify every xi on the grid, with boundary values always included.

    The grid is merged with the in-range boundary values, sorted ascending
    and deduplicated, so regime changes land on exact grid points.
    """
    xs = sorted(map(float, grid))
    if any(not 0.0 <= x <= 1.0 for x in xs):
        raise DomainError("grid values must lie in [0, 1]")
    if xs:
        lo, hi = xs[0], xs[-1]
        xs.extend(b for b in boundary_values(template) if lo <= b <= hi)
    merged = _dedupe(xs)
    *_, v_star, stability, v_minus, v_plus = _classify_grid(
        template, np.array(merged))
    return SweepTable(merged, v_star.tolist(), stability.tolist(),
                      v_minus.tolist(), v_plus.tolist())


def regime_boundaries(template: DmSpec) -> list[Transition]:
    """The exact boundary xi values with the class transition at each.

    Classes on either side are evaluated at the midpoints of the adjacent
    open intervals, which is exact because the class is constant between
    boundaries.  Bottleneck-regime templates have no transitions.
    """
    if not classify_regime(template.with_xi(0.5)).supports_map:
        return []
    bounds = boundary_values(template)
    edges = [0.0] + bounds + [1.0]
    transitions = []
    for i, b in enumerate(bounds):
        lo_mid = (edges[i] + b) / 2.0
        hi_mid = (b + edges[i + 2]) / 2.0
        below = (classify_stability(template.with_xi(lo_mid)).stability
                 if b > 0.0 else None)
        above = (classify_stability(template.with_xi(hi_mid)).stability
                 if b < 1.0 else None)
        at = classify_stability(template.with_xi(b)).stability
        transitions.append(Transition(b, below, at, above))
    return transitions
