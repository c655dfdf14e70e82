"""Return maps for ring-structured networks.

Two ring families support circulating disturbances.  In a ring of n
diverge-merge stages (symmetric setup: origin demands 3, destination
supplies 2, link capacities alternating 1 and 2, split xi onto the narrow
links) the out-fluxes v_1..v_n of the narrow links obey, per loop time T,

    v_i(t+T) = min(1, 2 - ((1-xi)/xi) * v_{i-1}(t))   (cyclic),

valid in the band 1/3 < xi < 1/2 where narrow links run congested and wide
links do not.  A perturbation of the symmetric state 2*xi returns after n
steps multiplied by (-(1-xi)/xi)^n: growing for xi < 1/2, sign-alternating
only for odd n.  Odd rings therefore sustain periodic oscillation, while
even rings break symmetry and settle into one of two mirrored stationary
states alternating saturated (1) and starved (2 - (1-xi)/xi) links.

On a fully congested ring road with n alternating off-ramp (turning
proportion xi) / on-ramp (merge share beta) pairs, the mainline flux
passing one pair is multiplied by (1-beta)/(1-xi); after a full lap by its
n-th power.  A ratio below one drives the ring to gridlock (the zero-flow
state is attracting), above one makes gridlock unstable, and at exactly
one a continuum of stationary states exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError

__all__ = [
    "DMN_XI_BAND",
    "DmnPattern",
    "DmnClassification",
    "dmn_step",
    "dmn_orbit",
    "dmn_perturbation_factor",
    "dmn_fixed_points",
    "dmn_classify",
    "BeltwaySpec",
    "BeltwayFactor",
    "GridlockClass",
    "beltway_factor",
    "beltway_classify",
    "beltway_half_life",
]

# Open xi band in which the ring map derivation holds (narrow links
# congested, wide links not, iterates remain in [0, 1]).
DMN_XI_BAND = (1.0 / 3.0, 0.5)


def _check_xi(xi: float) -> float:
    if not 0.0 < xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {xi}")
    return (1.0 - xi) / xi


def dmn_step(n: int, xi: float, state: tuple[float, ...],
             scale: float = 1.0) -> tuple[float, ...]:
    """One loop-time update of the narrow-link out-fluxes.

    Each component is driven by its cyclic predecessor; the saturation cap
    is the narrow-link capacity (1, times scale).  Inside the analysis
    band the image stays in (0, 1]; outside it a component can turn
    negative, which the derivation does not cover, so that raises
    DomainError.
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    lam = _check_xi(xi)
    if len(state) != n:
        raise DomainError(f"state must have {n} components, got {len(state)}")
    cap = 1.0 * scale
    out = tuple(min(cap, 2.0 * scale - lam * state[(i - 1) % n])
                for i in range(n))
    if any(v < 0.0 for v in out):
        raise DomainError(
            "ring map left [0, cap]; xi is outside the derivation band")
    return out


def dmn_orbit(n: int, xi: float, state: tuple[float, ...], steps: int,
              scale: float = 1.0) -> list[tuple[float, ...]]:
    if steps < 0:
        raise DomainError("steps must be nonnegative")
    orbit = [tuple(state)]
    for _ in range(steps):
        orbit.append(dmn_step(n, xi, orbit[-1], scale))
    return orbit


def dmn_perturbation_factor(n: int, xi: float) -> float:
    """Growth of a symmetric-state perturbation over one full loop.

    Returns (-(1-xi)/xi)^n: magnitude above one means instability, a
    negative sign means the perturbation alternates (odd n only).
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    lam = _check_xi(xi)
    return (-lam) ** n


class DmnPattern(Enum):
    PPO = "ppo"              # persistent periodic oscillation
    BISTABLE = "bistable"    # two mirrored attracting stationary states
    STABLE = "stable"        # symmetric state attracts


@dataclass(frozen=True)
class DmnClassification:
    pattern: DmnPattern
    analyzed: bool                       # xi inside the derivation band
    symmetric_point: tuple[float, ...]
    asymmetric_points: tuple[tuple[float, ...], ...]
    cycle: tuple[float, float] | None    # oscillation extrema when PPO
    growth_factor: float


def dmn_fixed_points(n: int, xi: float, scale: float = 1.0,
                     ) -> tuple[tuple[float, ...], ...]:
    """Stationary states of the ring map: symmetric, plus for even n the
    two saturated/starved alternations."""
    lam = _check_xi(xi)
    sym = tuple(2.0 * xi * scale for _ in range(n))
    if n % 2:
        return (sym,)
    # Starved value written exactly as dmn_step computes the image of a
    # saturated predecessor, so these are bitwise fixed points.
    cap = 1.0 * scale
    low = 2.0 * scale - lam * cap
    alt1 = tuple((cap if i % 2 == 0 else low) for i in range(n))
    alt2 = tuple((low if i % 2 == 0 else cap) for i in range(n))
    return (sym, alt1, alt2)


def dmn_classify(n: int, xi: float, scale: float = 1.0) -> DmnClassification:
    """Asymptotic pattern of the symmetric ring at the given split.

    Only 1/3 < xi < 1/2 is covered by the derivation; outside that band
    the same formulas are evaluated but flagged unanalyzed.  A growth
    magnitude of exactly one (xi = 1/2) is neutral and reported as stable
    only in the weak sense that perturbations do not grow.
    """
    factor = dmn_perturbation_factor(n, xi)
    lam = (1.0 - xi) / xi
    analyzed = DMN_XI_BAND[0] < xi < DMN_XI_BAND[1]
    fps = dmn_fixed_points(n, xi, scale)
    if abs(factor) <= 1.0:
        return DmnClassification(DmnPattern.STABLE, analyzed, fps[0], (),
                                 None, factor)
    if n % 2:
        cap = 1.0 * scale
        cycle = (2.0 * scale - lam * cap, cap)
        return DmnClassification(DmnPattern.PPO, analyzed, fps[0], (),
                                 cycle, factor)
    return DmnClassification(DmnPattern.BISTABLE, analyzed, fps[0],
                             fps[1:], None, factor)


@dataclass(frozen=True)
class BeltwaySpec:
    """Ring road with n_pairs alternating off-ramp / on-ramp pairs."""

    beta: float
    xi: float
    n_pairs: int

    def __post_init__(self):
        if not 0.0 <= self.beta < 1.0:
            raise DomainError(f"beta must lie in [0, 1), got {self.beta}")
        if not 0.0 <= self.xi < 1.0:
            raise DomainError(f"xi must lie in [0, 1), got {self.xi}")
        if self.n_pairs < 1:
            raise DomainError("n_pairs must be a positive integer")

    @property
    def alpha(self) -> float:
        """On-ramp odds form beta/(1-beta)."""
        return self.beta / (1.0 - self.beta)

    @property
    def mu(self) -> float:
        """Off-ramp odds form xi/(1-xi)."""
        return self.xi / (1.0 - self.xi)


@dataclass(frozen=True)
class BeltwayFactor:
    per_pair: float   # (1-beta)/(1-xi)
    per_lap: float    # per_pair ** n_pairs
    odds_form: float  # (1+mu)/(1+alpha), algebraically equal to per_pair


def beltway_factor(spec: BeltwaySpec) -> BeltwayFactor:
    """Mainline flux multiplier per ramp pair and per full lap."""
    per_pair = (1.0 - spec.beta) / (1.0 - spec.xi)
    odds = (1.0 + spec.mu) / (1.0 + spec.alpha)
    return BeltwayFactor(per_pair, per_pair ** spec.n_pairs, odds)


class GridlockClass(Enum):
    GRIDLOCK_STABLE = "gridlock_stable"      # flux decays; gridlock attracts
    GRIDLOCK_UNSTABLE = "gridlock_unstable"  # gridlock stationary, repelling
    NEUTRAL = "neutral"                      # continuum of stationary states


def beltway_classify(spec: BeltwaySpec) -> GridlockClass:
    ratio = beltway_factor(spec).per_pair
    if ratio < 1.0:
        return GridlockClass.GRIDLOCK_STABLE
    if ratio > 1.0:
        return GridlockClass.GRIDLOCK_UNSTABLE
    return GridlockClass.NEUTRAL


@dataclass(frozen=True)
class BeltwayHalfLife:
    pairs: float   # ramp pairs traversed until the flux halves
    laps: float


def beltway_half_life(spec: BeltwaySpec) -> BeltwayHalfLife:
    """Ramp pairs (and laps) until the circulating flux halves.

    Defined only in the decaying case; pure geometric decay gives
    log(1/2) / log(per-pair ratio).
    """
    ratio = beltway_factor(spec).per_pair
    if ratio >= 1.0:
        raise DomainError(
            f"half-life undefined: per-pair ratio {ratio} is not below one")
    pairs = math.log(0.5) / math.log(ratio)
    return BeltwayHalfLife(pairs, pairs / spec.n_pairs)
