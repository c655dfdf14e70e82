"""Diverge-merge network specifications and their stationary states.

The basic network has one origin feeding link 0, a FIFO diverge that splits
flow onto two parallel intermediate links (proportion xi onto link 1), a
priority merge (share beta guaranteed to link 1 when congested) feeding
link 3, and one destination.  With constant boundary data (origin demand
C0, destination supply C3, constant xi) the model always admits stationary
solutions; link 0 is then over-critical, link 3 under-critical, and each
intermediate link is in one of four patterns:

    C    critical, carrying its capacity
    SUC  strictly under-critical (uniform, l = 0)
    SOC  strictly over-critical (uniform, l = 1)
    ZS   a standing shock: under-critical upstream of (1-l)*X, over-critical
         downstream, same flow on both sides, any l in (0, 1)

The catalog below enumerates, for every ordering of (C0, C1+C2, C3) and
every position of xi relative to the thresholds 1 - C2/C*, C1/C*, and beta,
which pattern pairs are stationary and what the common through-flow q is.

Ring-shaped extensions reuse the same two junction models: a chain of n
diverge-merge stages closed into a loop (alternating small/large link
capacities), and a beltway: a congested ring road with n alternating
off-ramp / on-ramp pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ConfigurationError, DomainError
from .fundamental import (FundamentalDiagram, GreenshieldsDiagram,
                          TrafficState, TriangularDiagram)

__all__ = [
    "DmSpec",
    "LinkRegime",
    "StationaryState",
    "stationary_states",
    "LinkProfile",
    "stationary_profile",
    "Link",
    "Approach",
    "Branch",
    "Origin",
    "Destination",
    "Diverge",
    "Merge",
    "Network",
    "build_dm",
    "build_dmn",
    "build_beltway",
    "DMN_ORIGIN_DEMAND",
    "DMN_DEST_SUPPLY",
    "DMN_NARROW_CAPACITY",
    "DMN_WIDE_CAPACITY",
]


@dataclass(frozen=True)
class DmSpec:
    """Capacities, merge priority and route split of one diverge-merge unit.

    c0..c3 are the capacities of the origin link, the two intermediate
    links and the destination link; beta is the merge share guaranteed to
    link 1; xi the proportion of flow routed onto link 1 at the diverge.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    beta: float
    xi: float
    lengths: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "c3", "beta", "xi"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("c0", "c1", "c2", "c3"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"capacity {name} must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError(f"beta must lie in [0, 1], got {self.beta}")
        if not 0.0 <= self.xi <= 1.0:
            raise DomainError(f"xi must lie in [0, 1], got {self.xi}")
        object.__setattr__(self, "lengths",
                           tuple(float(x) for x in self.lengths))
        if len(self.lengths) != 4 or any(x <= 0 for x in self.lengths):
            raise DomainError("lengths must be four positive numbers")

    def with_xi(self, xi: float) -> "DmSpec":
        return replace(self, xi=xi)


class LinkRegime(Enum):
    """Stationary pattern of one intermediate link."""

    CRITICAL = "C"
    SUC = "SUC"
    SOC = "SOC"
    ZS = "ZS"


# Fraction of a link occupied by the over-critical part, when determined.
_FIXED_L = {LinkRegime.SUC: 0.0, LinkRegime.SOC: 1.0}


@dataclass(frozen=True)
class StationaryState:
    """One stationary pattern pair with its through-flow.

    l1/l2 give the congested fraction of each link: 0 for SUC, 1 for SOC,
    None when free (any value in (0,1) for ZS, irrelevant for C where both
    branch densities coincide).  Link flows are q1 = xi*q and q2 = (1-xi)*q.
    """

    link1: LinkRegime
    link2: LinkRegime
    q: float
    l1: float | None
    l2: float | None

    @staticmethod
    def of(link1: LinkRegime, link2: LinkRegime, q: float) -> "StationaryState":
        return StationaryState(link1, link2, q,
                               _FIXED_L.get(link1), _FIXED_L.get(link2))


def _expand(group1: list[LinkRegime], group2: list[LinkRegime],
            q: float) -> list[StationaryState]:
    """Cartesian expansion of a multivalued catalog row ("a slash means or")."""
    return [StationaryState.of(r1, r2, q)
            for r1, r2 in itertools.product(group1, group2)]


_ANY = [LinkRegime.SUC, LinkRegime.SOC, LinkRegime.ZS]
_SUC = [LinkRegime.SUC]
_SOC = [LinkRegime.SOC]
_ZS = [LinkRegime.ZS]
_C = [LinkRegime.CRITICAL]


def stationary_states(spec: DmSpec) -> list[StationaryState]:
    """All stationary pattern pairs admitted under the given network data.

    The catalog is total: every (capacities, xi, beta) combination matches
    exactly one row; rows at threshold values of xi are multivalued and are
    returned in full, with ZS entries carrying a free congested fraction.
    """
    c0, c1, c2, c3 = spec.c0, spec.c1, spec.c2, spec.c3
    xi, beta = spec.xi, spec.beta

    if c0 < min(c1 + c2, c3):
        # Upstream link is the bottleneck; both links end under-critical.
        if xi <= (c0 - c2) / c0:
            return _expand(_SUC, _C, c2 / (1.0 - xi))
        if xi >= c1 / c0:
            return _expand(_C, _SUC, c1 / xi)
        return _expand(_SUC, _SUC, c0)

    if c1 + c2 <= min(c0, c3):
        # The parallel pair is the bottleneck.
        split = c1 / (c1 + c2)
        if xi < split:
            return _expand(_SUC, _C, c2 / (1.0 - xi))
        if xi > split:
            return _expand(_C, _SUC, c1 / xi)
        return _expand(_C, _C, c1 / xi)

    # Downstream link binds: c3 <= c0 and c3 < c1 + c2.
    lo = (c3 - c2) / c3          # = 1 - c2/c3
    hi = c1 / c3
    equal_caps = c3 == c0        # no strict upstream surplus

    if xi < lo:
        return _expand(_SUC, _C, c2 / (1.0 - xi))
    if xi == lo:
        if xi < beta:
            return _expand(_SUC, _C, c3)
        return _expand(_ANY, _C, c3)
    if xi > hi:
        return _expand(_C, _SUC, c1 / xi)
    if xi == hi:
        if xi <= beta:
            return _expand(_C, _ANY, c3)
        return _expand(_C, _SUC, c3)

    # Interior band lo < xi < hi, q = c3.
    if equal_caps:
        if xi < beta:
            return _expand(_SUC, _ANY, c3)
        if xi > beta:
            return _expand(_ANY, _SUC, c3)
        return _expand(_ANY, _ANY, c3)
    if xi < beta:
        return _expand(_SUC, _SOC, c3)
    if xi > beta:
        return _expand(_SOC, _SUC, c3)
    return _expand(_SOC, _ANY, c3) + _expand(_SUC + _ZS, _SOC, c3)


def _make_diagram(capacity: float, vf: float, w: float,
                  shape: str) -> FundamentalDiagram:
    if shape == "triangular":
        return TriangularDiagram.from_capacity(capacity, vf, w)
    if shape == "greenshields":
        return GreenshieldsDiagram.from_capacity(capacity, vf)
    raise ConfigurationError(f"unknown diagram shape {shape!r}")


@dataclass(frozen=True)
class LinkProfile:
    """Piecewise-constant stationary density profile on one link.

    Under-critical density on [0, split), over-critical on [split, length];
    both carry the same flow q, so the dividing shock is standing still.
    """

    fd: FundamentalDiagram
    length: float
    q: float
    split: float            # boundary position (1-l) * length
    uc_density: float
    oc_density: float

    def density(self, x: float) -> float:
        if not 0.0 <= x <= self.length:
            raise DomainError(f"position {x} outside [0, {self.length}]")
        return self.uc_density if x < self.split else self.oc_density

    def cell_densities(self, n_cells: int) -> np.ndarray:
        """Exact cell averages of the profile on a uniform grid."""
        dx = self.length / n_cells
        edges = np.arange(n_cells + 1) * dx
        uc_len = np.clip(self.split, edges[:-1], edges[1:]) - edges[:-1]
        return (uc_len * self.uc_density
                + (dx - uc_len) * self.oc_density) / dx

    @staticmethod
    def uniform_under_critical(fd: FundamentalDiagram, length: float,
                               q: float) -> "LinkProfile":
        k = fd.state_to_density(TrafficState(q, fd.capacity))
        return LinkProfile(fd, length, q, length, k, k)

    @staticmethod
    def uniform_over_critical(fd: FundamentalDiagram, length: float,
                              q: float) -> "LinkProfile":
        k = fd.state_to_density(TrafficState(fd.capacity, q))
        return LinkProfile(fd, length, q, 0.0, k, k)


def _intermediate_profile(fd: FundamentalDiagram, length: float, q: float,
                          regime: LinkRegime, l: float | None) -> LinkProfile:
    if regime is LinkRegime.CRITICAL:
        k = fd.critical_density
        return LinkProfile(fd, length, q, length, k, k)
    fixed = _FIXED_L.get(regime)
    if fixed is not None:
        if l is not None and l != fixed:
            raise DomainError(f"{regime.value} requires l={fixed}, got {l}")
        l = fixed
    else:  # ZS, free parameter
        if l is None or not 0.0 < l < 1.0:
            raise DomainError(f"ZS requires an explicit l in (0, 1), got {l}")
    k_uc = fd.state_to_density(TrafficState(q, fd.capacity))
    k_oc = fd.state_to_density(TrafficState(fd.capacity, q))
    return LinkProfile(fd, length, q, (1.0 - l) * length, k_uc, k_oc)


def stationary_profile(spec: DmSpec, state: StationaryState,
                       l1: float | None = None, l2: float | None = None,
                       diagrams: tuple[FundamentalDiagram, ...] | None = None,
                       ) -> dict[str, LinkProfile]:
    """Density profiles of all four links for one stationary state.

    Link 0 is uniformly over-critical at (C0, q) and link 3 uniformly
    under-critical at (q, C3); the intermediate links follow their pattern,
    with explicit congested fractions where the pattern leaves them free.
    `diagrams` defaults to the triangular diagrams with unit free-flow
    speed and congested wave speed 1/2, scaled by each link's capacity.
    """
    fds = diagrams if diagrams is not None else tuple(
        _make_diagram(c, 1.0, 0.5, "triangular")
        for c in (spec.c0, spec.c1, spec.c2, spec.c3))
    q = state.q
    q1, q2 = spec.xi * q, (1.0 - spec.xi) * q
    return {
        "link0": LinkProfile.uniform_over_critical(fds[0], spec.lengths[0], q),
        "link1": _intermediate_profile(
            fds[1], spec.lengths[1], q1, state.link1,
            l1 if l1 is not None else state.l1),
        "link2": _intermediate_profile(
            fds[2], spec.lengths[2], q2, state.link2,
            l2 if l2 is not None else state.l2),
        "link3": LinkProfile.uniform_under_critical(fds[3], spec.lengths[3], q),
    }


# ---------------------------------------------------------------------------
# Declarative network descriptions for the simulator.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    name: str
    capacity: float
    length: float = 1.0


@dataclass(frozen=True)
class Approach:
    """Merge input: either a network link or a constant-demand source."""

    link: str | None = None
    demand: float | None = None

    def __post_init__(self):
        if (self.link is None) == (self.demand is None):
            raise ConfigurationError(
                "approach needs exactly one of link / demand")


@dataclass(frozen=True)
class Branch:
    """Diverge output: either a network link or a constant-supply sink."""

    link: str | None = None
    supply: float | None = None

    def __post_init__(self):
        if (self.link is None) == (self.supply is None):
            raise ConfigurationError(
                "branch needs exactly one of link / supply")


@dataclass(frozen=True)
class Origin:
    """Boundary demand feeding a link; fraction is the commodity-1 share."""

    link: str
    demand: float
    fraction: float = 0.0


@dataclass(frozen=True)
class Destination:
    """Boundary supply draining a link."""

    link: str
    supply: float


@dataclass(frozen=True)
class Diverge:
    """FIFO diverge.  branch1 receives proportion xi, branch2 the rest.

    With xi=None the split follows the commodity fraction arriving on the
    upstream link (branch1 takes commodity 1); a fixed xi models memoryless
    turning, as at a ring-road off-ramp.
    """

    upstream: str
    branch1: Branch
    branch2: Branch
    xi: float | None = None


@dataclass(frozen=True)
class Merge:
    """Priority merge; beta is the downstream-supply share guaranteed to
    approach1 when both approaches are saturated."""

    approach1: Approach
    approach2: Approach
    downstream: str
    beta: float


@dataclass(frozen=True)
class Network:
    """Flat list of links and typed junctions; topology-generic."""

    links: tuple[Link, ...]
    origins: tuple[Origin, ...] = ()
    destinations: tuple[Destination, ...] = ()
    diverges: tuple[Diverge, ...] = ()
    merges: tuple[Merge, ...] = ()
    kind: str = "custom"

    def validate(self) -> None:
        """Every link must be fed and drained by exactly one junction."""
        fed: dict[str, int] = {ln.name: 0 for ln in self.links}
        drained: dict[str, int] = {ln.name: 0 for ln in self.links}

        def _feed(name):
            if name not in fed:
                raise ConfigurationError(f"unknown link {name!r}")
            fed[name] += 1

        def _drain(name):
            if name not in drained:
                raise ConfigurationError(f"unknown link {name!r}")
            drained[name] += 1

        for o in self.origins:
            _feed(o.link)
        for d in self.destinations:
            _drain(d.link)
        for dv in self.diverges:
            _drain(dv.upstream)
            for b in (dv.branch1, dv.branch2):
                if b.link is not None:
                    _feed(b.link)
        for mg in self.merges:
            _feed(mg.downstream)
            for a in (mg.approach1, mg.approach2):
                if a.link is not None:
                    _drain(a.link)
        bad = [n for n in fed if fed[n] != 1 or drained[n] != 1]
        if bad:
            raise ConfigurationError(
                f"links must have exactly one feeder and one drainer: {bad}")


def build_dm(spec: DmSpec, origin_demand: float | None = None,
             destination_supply: float | None = None) -> Network:
    """The four-link diverge-merge network with one origin-destination pair.

    Boundary data default to the saturating values (demand C0, supply C3)
    under which the stationary catalog applies.
    """
    d_r = spec.c0 if origin_demand is None else origin_demand
    s_w = spec.c3 if destination_supply is None else destination_supply
    links = tuple(Link(f"link{i}", c, x) for i, (c, x) in enumerate(
        zip((spec.c0, spec.c1, spec.c2, spec.c3), spec.lengths)))
    net = Network(
        links=links,
        origins=(Origin("link0", d_r, spec.xi),),
        destinations=(Destination("link3", s_w),),
        diverges=(Diverge("link0", Branch(link="link1"),
                          Branch(link="link2")),),
        merges=(Merge(Approach(link="link1"), Approach(link="link2"),
                      "link3", spec.beta),),
        kind="dm",
    )
    net.validate()
    return net


# Symmetric ring-of-stages family: per stage, an origin link of capacity 3
# splits (proportion xi) onto a narrow link of capacity 1 whose companion
# wide link (capacity 2) crosses over to the next stage's merge; each merge
# drains into a destination link of capacity 2.  All in scaled flow units.
DMN_ORIGIN_DEMAND = 3.0
DMN_DEST_SUPPLY = 2.0
DMN_NARROW_CAPACITY = 1.0
DMN_WIDE_CAPACITY = 2.0


def build_dmn(n: int, xi: float, scale: float = 1.0, beta: float = 0.0,
              link_length: float = 1.0) -> Network:
    """Ring of n diverge-merge stages with alternating capacities 1 and 2.

    Stage k: origin -> o_k -> diverge -> {c_k (narrow, proportion xi),
    u_k (wide)}; merge k joins c_k with u_{k-1} and drains through e_k to a
    destination.  For n=1 this collapses to the single diverge-merge
    network.  The merge priority defaults to 0 so the narrow link's
    out-flux is governed purely by the wide link's arrivals, matching the
    ring return map min(1, 2 - ((1-xi)/xi) v).
    """
    if n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi must lie in [0, 1], got {xi}")
    if scale <= 0:
        raise DomainError("scale must be positive")
    links: list[Link] = []
    origins: list[Origin] = []
    destinations: list[Destination] = []
    diverges: list[Diverge] = []
    merges: list[Merge] = []
    for k in range(1, n + 1):
        links += [
            Link(f"o{k}", DMN_ORIGIN_DEMAND * scale, link_length),
            Link(f"c{k}", DMN_NARROW_CAPACITY * scale, link_length),
            Link(f"u{k}", DMN_WIDE_CAPACITY * scale, link_length),
            Link(f"e{k}", DMN_DEST_SUPPLY * scale, link_length),
        ]
        origins.append(Origin(f"o{k}", DMN_ORIGIN_DEMAND * scale, xi))
        destinations.append(Destination(f"e{k}", DMN_DEST_SUPPLY * scale))
        diverges.append(Diverge(f"o{k}", Branch(link=f"c{k}"),
                                Branch(link=f"u{k}")))
        prev = k - 1 if k > 1 else n
        merges.append(Merge(Approach(link=f"c{k}"),
                            Approach(link=f"u{prev}"), f"e{k}", beta))
    net = Network(tuple(links), tuple(origins), tuple(destinations),
                  tuple(diverges), tuple(merges), kind="dmn")
    net.validate()
    return net


def build_beltway(n_pairs: int, beta: float, xi: float,
                  ring_capacity: float = 1.0, segment_length: float = 1.0,
                  ramp_demand: float | None = None,
                  offramp_supply: float | None = None) -> Network:
    """Ring road with n alternating off-ramp / on-ramp pairs.

    Going with the traffic: merge k -> a_k -> off-ramp diverge (fixed
    turning proportion xi) -> b_k -> merge k+1.  On-ramps are constant
    demand sources with priority beta; off-ramps are sinks with ample
    supply so they never constrain the diverge.
    """
    if n_pairs < 1:
        raise DomainError(f"n_pairs must be a positive integer, got {n_pairs}")
    if not 0.0 <= beta < 1.0 or not 0.0 <= xi < 1.0:
        raise DomainError("beta and xi must lie in [0, 1)")
    d_on = 0.6 * ring_capacity if ramp_demand is None else ramp_demand
    s_off = 10.0 * ring_capacity if offramp_supply is None else offramp_supply
    links: list[Link] = []
    diverges: list[Diverge] = []
    merges: list[Merge] = []
    for k in range(1, n_pairs + 1):
        links += [Link(f"a{k}", ring_capacity, segment_length),
                  Link(f"b{k}", ring_capacity, segment_length)]
        diverges.append(Diverge(f"a{k}", Branch(supply=s_off),
                                Branch(link=f"b{k}"), xi=xi))
        prev = k - 1 if k > 1 else n_pairs
        merges.append(Merge(Approach(demand=d_on),
                            Approach(link=f"b{prev}"), f"a{k}", beta))
    net = Network(tuple(links), (), (), tuple(diverges), tuple(merges),
                  kind="beltway")
    net.validate()
    return net
