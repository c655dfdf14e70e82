"""Return maps for ring-structured networks.

Two ring families support circulating disturbances.  In a ring of n
diverge-merge stages (symmetric setup: every stage is `DmnSpec.stage`,
origin demand C0 = 3, destination supply C3 = 2, narrow link C1 = 1 with
the split xi onto it, wide link C2 = 2, all times scale) the out-fluxes
v_1..v_n of the narrow links obey, per loop time T,

    v_i(t+T) = min(C1, C3 - ((1-xi)/xi) * v_{i-1}(t))   (cyclic),

the stage's own DM map at beta = 0, valid in the band 1/3 < xi < 1/2
where narrow links run congested and wide links do not.  The ring is
iterated with that map: one loop time applies `build_map(spec.stage)` to
each narrow link's cyclic predecessor.  This module gives the map's
stationary states (`dmn_fixed_points`) and the ring's pattern
(`dmn_classify`).  A perturbation
of the symmetric state xi * C3 returns after n steps multiplied by
(-(1-xi)/xi)^n: growing for xi < 1/2, sign-alternating only for odd n.
Odd rings therefore sustain periodic oscillation, while even rings break
symmetry and settle into one of two mirrored stationary states
alternating saturated (C1) and starved (C3 - ((1-xi)/xi) C1) links.

On a fully congested ring road with n alternating off-ramp (turning
proportion xi) / on-ramp (merge share beta) pairs, the mainline flux
passing one pair is multiplied by (1-beta)/(1-xi); after a full lap by its
n-th power.  A ratio below one drives the ring to gridlock (the zero-flow
state is attracting), above one makes gridlock unstable, and at exactly
one a continuum of stationary states exists.  `beltway_classify` reports
the class, both ratios and, while the flux decays, its half-life in ramp
pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .network import BeltwaySpec, DmnSpec

__all__ = [
    "DMN_XI_BAND",
    "DmnPattern",
    "DmnClassification",
    "dmn_fixed_points",
    "dmn_classify",
    "GridlockClass",
    "BeltwayClassification",
    "beltway_classify",
]

# Open xi band in which the ring map derivation holds (narrow links
# congested, wide links not, iterates remain in [0, C1]).
DMN_XI_BAND = (1.0 / 3.0, 0.5)


def _slope(spec: DmnSpec) -> float:
    """The ring map's slope magnitude (1-xi)/xi, for 0 < xi < 1."""
    if not 0.0 < spec.xi < 1.0:
        raise DomainError(f"xi must lie in (0, 1), got {spec.xi}")
    return (1.0 - spec.xi) / spec.xi


def _starved_and_saturated(spec: DmnSpec) -> tuple[float, float]:
    """The two values of the ring's alternation: a starved link behind a
    saturated one, and the saturated narrow-link capacity.  The starved
    value is written exactly as the stage map `build_map(spec.stage)`
    computes the image of a saturated predecessor, so the alternations
    are bitwise fixed points of the ring."""
    cap = spec.stage.c1
    return spec.stage.c3 - _slope(spec) * cap, cap


class DmnPattern(Enum):
    PPO = "ppo"              # persistent periodic oscillation
    BISTABLE = "bistable"    # two mirrored attracting stationary states
    STABLE = "stable"        # symmetric state attracts


@dataclass(frozen=True)
class DmnClassification:
    pattern: DmnPattern
    analyzed: bool                       # inside the derivation band
    symmetric_point: tuple[float, ...]
    asymmetric_points: tuple[tuple[float, ...], ...]
    cycle: tuple[float, float] | None    # oscillation extrema when PPO
    growth_factor: float


def dmn_fixed_points(spec: DmnSpec) -> tuple[tuple[float, ...], ...]:
    """Stationary states of the ring map: symmetric, plus for even n the
    two saturated/starved alternations."""
    low, cap = _starved_and_saturated(spec)     # also rejects xi 0 and 1
    n = spec.n
    sym = (spec.xi * spec.stage.c3,) * n
    if n % 2:
        return (sym,)
    alt1 = tuple((cap if i % 2 == 0 else low) for i in range(n))
    alt2 = tuple((low if i % 2 == 0 else cap) for i in range(n))
    return (sym, alt1, alt2)


def dmn_classify(spec: DmnSpec) -> DmnClassification:
    """Asymptotic pattern of the symmetric ring at the given split.

    The growth factor is (-(1-xi)/xi)^n, a perturbation's gain over one
    full loop: magnitude above one means instability, a negative sign
    that the perturbation alternates (odd n only).  Only 1/3 < xi < 1/2
    with merge priority 0 is covered by the derivation; outside that
    band, or for beta > 0, the same formulas are evaluated but flagged
    unanalyzed.  A growth magnitude of exactly one (xi = 1/2) is neutral
    and reported as stable only in the weak sense that perturbations do
    not grow.
    """
    factor = (-_slope(spec)) ** spec.n
    analyzed = DMN_XI_BAND[0] < spec.xi < DMN_XI_BAND[1] and spec.beta == 0.0
    fps = dmn_fixed_points(spec)
    if abs(factor) <= 1.0:
        return DmnClassification(DmnPattern.STABLE, analyzed, fps[0], (),
                                 None, factor)
    if spec.n % 2:
        return DmnClassification(DmnPattern.PPO, analyzed, fps[0], (),
                                 _starved_and_saturated(spec), factor)
    return DmnClassification(DmnPattern.BISTABLE, analyzed, fps[0],
                             fps[1:], None, factor)


class GridlockClass(Enum):
    GRIDLOCK_STABLE = "gridlock_stable"      # flux decays; gridlock attracts
    GRIDLOCK_UNSTABLE = "gridlock_unstable"  # gridlock stationary, repelling
    NEUTRAL = "neutral"                      # continuum of stationary states


@dataclass(frozen=True)
class BeltwayClassification:
    gridlock: GridlockClass
    per_pair: float    # (1-beta)/(1-xi)
    per_lap: float     # per_pair ** n_pairs
    half_life_pairs: float | None   # ramp pairs until the flux halves


def beltway_classify(spec: BeltwaySpec) -> BeltwayClassification:
    """Gridlock class and mainline flux multipliers of a beltway.

    The half-life is defined only in the decaying case, where pure
    geometric decay gives log(1/2) / log(per-pair ratio); it is None
    otherwise.
    """
    ratio = (1.0 - spec.beta) / (1.0 - spec.xi)
    half_life = None
    if ratio < 1.0:
        gridlock = GridlockClass.GRIDLOCK_STABLE
        half_life = math.log(0.5) / math.log(ratio)
    elif ratio > 1.0:
        gridlock = GridlockClass.GRIDLOCK_UNSTABLE
    else:
        gridlock = GridlockClass.NEUTRAL
    return BeltwayClassification(gridlock, ratio, ratio ** spec.n_pairs,
                                 half_life)
