"""Fundamental diagrams and their demand/supply decomposition.

A fundamental diagram is a unimodal flow-density relation Q(k) that reaches
its capacity C at the critical density k_c and vanishes at k = 0 and at the
jam density k_j.  Every flux computation in the network model is built from
its sending/receiving decomposition (Lighthill & Whitham 1955; Daganzo 1994;
Lebacque 1996):

    demand(k) = Q(min(k_c, k))     nondecreasing, saturates at C
    supply(k) = Q(max(k_c, k))     nonincreasing, starts at C

A flow q <= C is carried by one density on each branch of Q: the free-flow
branch k <= k_c, where q is the demand and the supply is C, and the
congested branch k >= k_c, where q is the supply and the demand is C.
`density(q, congested)` inverts the branch it is asked for.

Each shape has one constructor, from the capacity C of its link and its
wave speeds: `TriangularDiagram(C, v_f=1, w=1/2)` and
`GreenshieldsDiagram(C, v_f=1)`.  The critical and jam densities are
derived from them.  `_make_diagram` picks the shape by its scenario name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "FundamentalDiagram",
    "TriangularDiagram",
    "GreenshieldsDiagram",
]


class FundamentalDiagram:
    """Base class; concrete shapes implement flow(k) and the two inverses
    _invert_under_critical(q) and _invert_over_critical(q), the density
    k <= k_c and the density k >= k_c with Q(k) = q."""

    capacity: float
    critical_density: float
    jam_density: float
    free_flow_speed: float

    # Largest kinematic wave speed magnitude, used for CFL bounds.
    max_wave_speed: float

    def _check_density(self, k: float) -> None:
        if not 0.0 <= k <= self.jam_density:
            raise DomainError(
                f"density {k} outside [0, {self.jam_density}]")

    def demand(self, k: float) -> float:
        """Sending flow Q(min(k_c, k))."""
        self._check_density(k)
        return self.flow(min(self.critical_density, k))

    def supply(self, k: float) -> float:
        """Receiving flow Q(max(k_c, k))."""
        self._check_density(k)
        return self.flow(max(self.critical_density, k))

    def density(self, q: float, congested: bool) -> float:
        """The density that carries flow q on the congested branch
        (k >= k_c) or on the free-flow branch (k <= k_c).

        A flow at capacity, or above it by rounding only (rel 1e-9,
        abs 1e-12), is carried at the critical density on both branches.
        """
        if not q >= 0.0 or q > self.capacity and not math.isclose(
                q, self.capacity, rel_tol=1e-9, abs_tol=1e-12):
            raise DomainError(
                f"flow {q} outside [0, capacity {self.capacity}]")
        if q >= self.capacity:
            return self.critical_density
        if congested:
            return self._invert_over_critical(q)
        return self._invert_under_critical(q)


@dataclass(frozen=True)
class TriangularDiagram(FundamentalDiagram):
    """Triangular flow-density relation.

    Q(k) = min(v_f * k, w * (k_j - k)); the two branches meet at the
    critical density k_c = C / v_f, and k_j = k_c + C / w.  The capacity
    is C itself, so that flux plateaus of a simulated stationary state
    reproduce C without rounding detours through k_j.  The
    cell-transmission scheme is exact for piecewise-constant profiles on
    this shape, which is why it is the default for simulation.
    """

    capacity: float
    free_flow_speed: float = 1.0
    congested_wave_speed: float = 0.5

    def __post_init__(self):
        c, vf = self.capacity, self.free_flow_speed
        w = self.congested_wave_speed
        if not (c > 0 and vf > 0 and w > 0):
            raise DomainError(
                f"triangular diagram parameters must be positive, got {self}")
        kc = c / vf
        object.__setattr__(self, "critical_density", kc)
        object.__setattr__(self, "jam_density", kc + c / w)
        object.__setattr__(self, "max_wave_speed", max(vf, w))

    def flow(self, k: float) -> float:
        return min(self.free_flow_speed * k,
                   self.congested_wave_speed * (self.jam_density - k))

    def demand(self, k: float) -> float:
        self._check_density(k)
        return min(self.free_flow_speed * k, self.capacity)

    def supply(self, k: float) -> float:
        self._check_density(k)
        return min(self.capacity,
                   self.congested_wave_speed * (self.jam_density - k))

    def _invert_under_critical(self, q: float) -> float:
        return q / self.free_flow_speed

    def _invert_over_critical(self, q: float) -> float:
        return self.jam_density - q / self.congested_wave_speed


@dataclass(frozen=True)
class GreenshieldsDiagram(FundamentalDiagram):
    """Parabolic flow-density relation Q(k) = v_f * k * (1 - k/k_j), with
    k_j = 4C / v_f and k_c = k_j / 2; the capacity is v_f * k_j / 4."""

    capacity: float
    free_flow_speed: float = 1.0

    def __post_init__(self):
        c, vf = self.capacity, self.free_flow_speed
        if not (c > 0 and vf > 0):
            raise DomainError(
                f"greenshields parameters must be positive, got {self}")
        kj = 4.0 * c / vf
        object.__setattr__(self, "jam_density", kj)
        object.__setattr__(self, "critical_density", kj / 2.0)
        object.__setattr__(self, "capacity", vf * kj / 4.0)
        # |Q'(k)| is maximal at the jam end, where it equals v_f.
        object.__setattr__(self, "max_wave_speed", vf)

    def flow(self, k: float) -> float:
        return self.free_flow_speed * k * (1.0 - k / self.jam_density)

    def _invert_under_critical(self, q: float) -> float:
        return self.critical_density * (
            1.0 - math.sqrt(1.0 - q / self.capacity))

    def _invert_over_critical(self, q: float) -> float:
        return self.critical_density * (
            1.0 + math.sqrt(1.0 - q / self.capacity))


def _make_diagram(capacity: float, vf: float, w: float,
                  shape: str) -> FundamentalDiagram:
    """The diagram of `shape` for a link of the given capacity; `SimConfig`
    admits only "triangular" and "greenshields"."""
    if shape == "triangular":
        return TriangularDiagram(capacity, vf, w)
    return GreenshieldsDiagram(capacity, vf)
