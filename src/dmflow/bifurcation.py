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
from .poincare import StabilityClass, _classify_grid, classify_stability

__all__ = ["SweepTable", "Transition", "sweep_xi", "regime_boundaries"]

_DEDUPE_TOL = 1e-15


@dataclass(frozen=True, eq=False)
class SweepTable:
    """A sweep by column: row i is the classification at xi[i].

    Columns are numpy arrays of one length: xi, v_star, v_minus and v_plus
    are float64, with NaN where the row has no value (no fixed point in a
    bottleneck regime; no two-cycle when stable), and stability is an
    object array of StabilityClass members.
    """

    xi: np.ndarray
    v_star: np.ndarray
    stability: np.ndarray
    v_minus: np.ndarray
    v_plus: np.ndarray

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


def _dedupe(xs: np.ndarray) -> np.ndarray:
    """xs sorted stably, dropping each value within _DEDUPE_TOL of the
    last kept."""
    xs = np.sort(xs, kind="stable")
    keep = np.ones(len(xs), dtype=bool)
    keep[1:] = np.diff(xs) > _DEDUPE_TOL
    # A value more than the tolerance above its predecessor is more than
    # that above the last kept one too.  Within a run of closer steps the
    # distance to the last kept value decides, one value at a time.
    last = None
    for i in np.flatnonzero(~keep).tolist():
        if keep[i - 1]:
            last = xs[i - 1]
        keep[i] = xs[i] - last > _DEDUPE_TOL
    return xs[keep]


def _boundary_values(template: DmSpec) -> list[float]:
    """Candidate transition points within [0, 1], sorted and deduplicated."""
    cands = [*_thresholds(template), template.beta, 0.5]
    return _dedupe(np.array([c for c in cands if 0.0 <= c <= 1.0],
                            dtype=np.float64)).tolist()


def sweep_xi(template: DmSpec, grid: Iterable[float]) -> SweepTable:
    """Classify every xi on the grid, with boundary values always included.

    The grid, a 1-D array or any iterable of floats, is merged with the
    in-range boundary values, sorted ascending and deduplicated, so regime
    changes land on exact grid points.
    """
    xs = np.asarray(grid if isinstance(grid, np.ndarray) else list(grid),
                    dtype=np.float64)
    if xs.ndim != 1:
        raise DomainError(f"the grid must be one-dimensional, got shape "
                          f"{xs.shape}")
    if not ((0.0 <= xs) & (xs <= 1.0)).all():
        raise DomainError("grid values must lie in [0, 1]")
    if xs.size:
        lo, hi = xs.min(), xs.max()
        xs = np.concatenate(
            [xs, [b for b in _boundary_values(template) if lo <= b <= hi]])
    merged = _dedupe(xs)
    *_, v_star, stability, v_minus, v_plus = _classify_grid(template, merged)
    return SweepTable(merged, v_star, stability, v_minus, v_plus)


def regime_boundaries(template: DmSpec) -> list[Transition]:
    """The exact boundary xi values with the class transition at each.

    Classes on either side are evaluated at the midpoints of the adjacent
    open intervals, which is exact because the class is constant between
    boundaries; one grid pass classifies the midpoints and the boundaries.
    Bottleneck-regime templates have no transitions.
    """
    if not classify_stability(template.with_xi(0.5)).regime.supports_map:
        return []
    bounds = _boundary_values(template)
    edges = [0.0] + bounds + [1.0]
    mids = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    stability = _classify_grid(template, np.array(mids + bounds))[4]
    return [Transition(b, stability[i] if b > 0.0 else None,
                       stability[len(mids) + i],
                       stability[i + 1] if b < 1.0 else None)
            for i, b in enumerate(bounds)]
