"""Diverge-merge network specifications, stationary states and starts.

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
Starts are stated in the same terms, per link a flow, a congested fraction
l and a commodity-1 fraction (`LinkStart`); the simulator turns them into
densities on its own diagrams.

Ring-shaped extensions reuse the same two junction models: a chain of n
diverge-merge stages closed into a loop, every stage the `DmSpec` that
`DmnSpec.stage` derives (capacities scale x (3, 1, 2, 2)), and a beltway:
a congested ring road with n alternating off-ramp / on-ramp pairs.  One
builder lays out the stages, each merge taking link 2 of the stage
before; the basic network is the ring of one stage.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Real

from .errors import ConfigurationError, DomainError

__all__ = [
    "DmSpec",
    "DmnSpec",
    "BeltwaySpec",
    "LinkRegime",
    "StationaryState",
    "stationary_states",
    "LinkStart",
    "stationary_start",
    "dmn_start",
    "beltway_start",
    "Link",
    "Origin",
    "Destination",
    "Diverge",
    "Merge",
    "Network",
    "build_dm",
    "build_dmn",
    "build_beltway",
]


def _cast(spec, cast, *names: str) -> None:
    for name in names:
        object.__setattr__(spec, name, cast(getattr(spec, name)))


def _count(spec, name: str) -> None:
    """Check that field `name` is a positive whole number; store it as int."""
    value = getattr(spec, name)
    if not (1 <= value < math.inf and float(value).is_integer()):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    object.__setattr__(spec, name, int(value))


def _boundary(spec, *names: str) -> None:
    """Cast the boundary data among fields `names` that are not None to
    float; each must be nonnegative, +inf allowed."""
    _cast(spec, lambda x: x if x is None else float(x), *names)
    for name in names:
        value = getattr(spec, name)
        if not (value is None or value >= 0.0):
            raise DomainError(f"{name} must be nonnegative, got {value}")


def _positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _share(name: str, value: float, top: str = "]") -> None:
    """Check value in [0, 1], or in [0, 1) when top is ")"."""
    if not (0.0 <= value <= 1.0 and (top == "]" or value < 1.0)):
        raise DomainError(f"{name} must lie in [0, 1{top}, got {value}")


@dataclass(frozen=True)
class DmSpec:
    """Capacities, merge priority and route split of one diverge-merge unit.

    c0..c3 are the capacities of the origin link, the two intermediate
    links and the destination link; beta is the merge share guaranteed to
    link 1; xi the proportion of flow routed onto link 1 at the diverge.
    origin_demand and destination_supply are the constant boundary data
    that `build_dm` simulates; None means the saturating values C0 and C3,
    which the stationary catalog and the return map assume whatever these
    fields hold.  `validate_spec` predicts from the capacities they let
    through: C3 lowered to the destination supply, and C0 to the origin
    demand when that is at most the new C3.
    """

    c0: float
    c1: float
    c2: float
    c3: float
    beta: float
    xi: float
    lengths: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    origin_demand: float | None = None
    destination_supply: float | None = None

    def __post_init__(self):
        _cast(self, float, "c0", "c1", "c2", "c3", "beta", "xi")
        for name in ("c0", "c1", "c2", "c3"):
            _positive(f"capacity {name}", getattr(self, name))
        _share("beta", self.beta)
        _share("xi", self.xi)
        _cast(self, lambda xs: tuple(float(x) for x in xs), "lengths")
        if len(self.lengths) != 4 or not all(0.0 < x < math.inf
                                             for x in self.lengths):
            raise DomainError(
                f"lengths must be four positive finite numbers, got "
                f"{self.lengths}")
        _boundary(self, "origin_demand", "destination_supply")

    def with_xi(self, xi: float) -> "DmSpec":
        return replace(self, xi=xi)


@dataclass(frozen=True)
class DmnSpec:
    """Ring of n diverge-merge stages (see `build_dmn`): the stage count,
    the split xi onto the narrow links, a factor on every capacity, and
    the merge priority of the narrow links, for which the ring map of
    `dmflow.extended` assumes 0.

    `stage` is the one diverge-merge unit every stage repeats, derived
    here and nowhere else: origin link 3, narrow link 1 (the split xi goes
    onto it), wide link 2 (it crosses to the next stage's merge) and
    destination link 2, each times scale; the origin demand and the
    destination supply equal the end links' capacities."""

    n: int
    xi: float
    scale: float = 1.0
    beta: float = 0.0
    stage: DmSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _count(self, "n")
        _cast(self, float, "xi", "scale", "beta")
        _share("xi", self.xi)
        _positive("scale", self.scale)
        _share("beta", self.beta)
        scale = self.scale
        object.__setattr__(self, "stage", DmSpec(
            3.0 * scale, 1.0 * scale, 2.0 * scale, 2.0 * scale, self.beta,
            self.xi))


@dataclass(frozen=True)
class BeltwaySpec:
    """Ring road with n_pairs alternating off-ramp / on-ramp pairs (see
    `build_beltway`): on-ramp priority beta, off-ramp turning proportion
    xi, the capacity and length of each ring segment, and the constant
    on-ramp demand and off-ramp supply, None meaning 0.6 and 10 times
    ring_capacity.  `beltway_classify` assumes saturating ramps, on-ramps
    that take their share beta of the ring's supply and off-ramps that
    never block, whatever these two fields hold."""

    beta: float
    xi: float
    n_pairs: int
    ring_capacity: float = 1.0
    segment_length: float = 1.0
    ramp_demand: float | None = None
    offramp_supply: float | None = None

    def __post_init__(self):
        _cast(self, float, "beta", "xi", "ring_capacity", "segment_length")
        _share("beta", self.beta, ")")
        _share("xi", self.xi, ")")
        _count(self, "n_pairs")
        _positive("ring_capacity", self.ring_capacity)
        _positive("segment_length", self.segment_length)
        _boundary(self, "ramp_demand", "offramp_supply")


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
    """One stationary pattern pair with its through-flow.  Link flows are
    q1 = xi*q and q2 = (1-xi)*q; each link's congested fraction follows
    from its pattern, except on a ZS link (see `stationary_start`)."""

    link1: LinkRegime
    link2: LinkRegime
    q: float


def _expand(group1: list[LinkRegime], group2: list[LinkRegime],
            q: float) -> list[StationaryState]:
    """Cartesian expansion of a multivalued catalog row ("a slash means or")."""
    return [StationaryState(r1, r2, q)
            for r1, r2 in itertools.product(group1, group2)]


_ANY = [LinkRegime.SUC, LinkRegime.SOC, LinkRegime.ZS]
_SUC = [LinkRegime.SUC]
_SOC = [LinkRegime.SOC]
_ZS = [LinkRegime.ZS]
_C = [LinkRegime.CRITICAL]


def _thresholds(spec: DmSpec) -> tuple[float, float]:
    """The ends (C3 - C2)/C3 and C1/C3 of the open band of xi in which a
    downstream bottleneck circulates."""
    return (spec.c3 - spec.c2) / spec.c3, spec.c1 / spec.c3


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
    lo, hi = _thresholds(spec)   # lo = 1 - c2/c3
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


@dataclass(frozen=True)
class LinkStart:
    """Stationary start of one link, in flows: the flow q, the congested
    fraction l (0 uniformly under-critical, 1 uniformly over-critical, in
    between a standing shock at (1 - l) * length with the same flow on
    both sides), and the commodity-1 fraction.  `Simulation.load` turns
    it into cell densities on the link's own diagram."""

    q: float
    l: float
    fraction: float

    def __post_init__(self):
        _share("l", self.l)
        _share("fraction", self.fraction)


def _intermediate_start(regime: LinkRegime, l: float | None, q: float,
                        capacity: float, fraction: float) -> LinkStart:
    if regime is LinkRegime.CRITICAL:
        return LinkStart(capacity, 0.0, fraction)
    fixed = _FIXED_L.get(regime)
    if fixed is not None:
        if l is not None and l != fixed:
            raise DomainError(f"{regime.value} requires l={fixed}, got {l}")
        l = fixed
    elif l is None or not 0.0 < l < 1.0:  # ZS, free parameter
        raise DomainError(f"ZS requires an explicit l in (0, 1), got {l}")
    return LinkStart(q, l, fraction)


# The links of one diverge-merge stage in order (origin, link 1, link 2,
# destination): their names in the four-link network, each with its
# prefix in the ring, whose stage k names them o_k, c_k, u_k and e_k.
_STAGE_LINKS = {"link0": "o", "link1": "c", "link2": "u", "link3": "e"}


def _ring_links(n: int) -> list[tuple[str, ...]]:
    return [tuple(prefix + str(k) for prefix in _STAGE_LINKS.values())
            for k in range(1, n + 1)]


def stationary_start(spec: DmSpec, state: StationaryState,
                     l1: float | None = None, l2: float | None = None,
                     ) -> dict[str, LinkStart]:
    """Starts of all four links for one stationary state.

    Link 0 is uniformly over-critical and link 3 uniformly under-critical
    at the through-flow q; the intermediate links carry xi*q and
    (1-xi)*q in their pattern, a critical one its capacity.  The pattern
    fixes the congested fraction of an SUC (0) or SOC (1) link; l1 and l2
    give it for a ZS link, in (0, 1).  Commodity 1 is the share xi of
    links 0 and 3 and all of link 1.
    """
    q = state.q
    return dict(zip(_STAGE_LINKS, (
        LinkStart(q, 1.0, spec.xi),
        _intermediate_start(state.link1, l1, spec.xi * q, spec.c1, 1.0),
        _intermediate_start(state.link2, l2, (1.0 - spec.xi) * q, spec.c2,
                            0.0),
        LinkStart(q, 0.0, spec.xi))))


# ---------------------------------------------------------------------------
# Declarative network descriptions for the simulator.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Link:
    name: str
    capacity: float
    length: float = 1.0


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
    Each branch is a link name, or a number: the constant supply of a
    sink.

    With xi=None the split follows the commodity fraction arriving on the
    upstream link (branch1 takes commodity 1); a fixed xi models memoryless
    turning, as at a ring-road off-ramp.
    """

    upstream: str
    branch1: str | float
    branch2: str | float
    xi: float | None = None


@dataclass(frozen=True)
class Merge:
    """Priority merge; beta is the downstream-supply share guaranteed to
    approach1 when both approaches are saturated.  Each approach is a
    link name, or a number: the constant demand of a source."""

    approach1: str | float
    approach2: str | float
    downstream: str
    beta: float


@dataclass(frozen=True)
class Network:
    """Flat list of links and typed junctions; topology-generic.  It
    checks itself when it is made (see __post_init__), so a Network that
    exists is valid."""

    links: tuple[Link, ...]
    origins: tuple[Origin, ...] = ()
    destinations: tuple[Destination, ...] = ()
    diverges: tuple[Diverge, ...] = ()
    merges: tuple[Merge, ...] = ()

    def __post_init__(self):
        """There is at least one link, no two share a name, and every link
        has a positive finite capacity and length and is fed and drained by
        exactly one junction.  Boundary demands and supplies, a junction
        end that is not a link name among them, are nonnegative real
        numbers (+inf allowed), origin fractions and the junction shares
        lie in [0, 1]."""
        if not self.links:
            raise ConfigurationError("a network needs at least one link")
        counts = Counter(ln.name for ln in self.links)
        twice = sorted(name for name, k in counts.items() if k > 1)
        if twice:
            raise ConfigurationError(f"duplicate link names: {twice}")
        for ln in self.links:
            if not (0.0 < ln.capacity < math.inf
                    and 0.0 < ln.length < math.inf):
                raise ConfigurationError(
                    f"link {ln.name!r} needs a positive finite capacity and "
                    f"length, got {ln.capacity} and {ln.length}")
        fed: dict[str, int] = {ln.name: 0 for ln in self.links}
        drained = dict(fed)

        def count(ends: dict[str, int], name: str) -> None:
            if name not in ends:
                raise ConfigurationError(f"unknown link {name!r}")
            ends[name] += 1

        def nonnegative(what: str, link: str, value: float) -> None:
            if not (isinstance(value, Real) and value >= 0.0):
                raise ConfigurationError(f"{what} at link {link!r} must be "
                                         f"nonnegative, got {value}")

        for o in self.origins:
            count(fed, o.link)
            nonnegative("origin demand", o.link, o.demand)
            _share("origin fraction", o.fraction)
        for d in self.destinations:
            count(drained, d.link)
            nonnegative("destination supply", d.link, d.supply)
        for dv in self.diverges:
            count(drained, dv.upstream)
            if dv.xi is not None:
                _share("xi", dv.xi)
            for b in (dv.branch1, dv.branch2):
                if isinstance(b, str):
                    count(fed, b)
                else:
                    nonnegative("branch supply", dv.upstream, b)
        for mg in self.merges:
            count(fed, mg.downstream)
            _share("beta", mg.beta)
            for a in (mg.approach1, mg.approach2):
                if isinstance(a, str):
                    count(drained, a)
                else:
                    nonnegative("approach demand", mg.downstream, a)
        bad = [n for n in fed if fed[n] != 1 or drained[n] != 1]
        if bad:
            raise ConfigurationError(
                f"links must have exactly one feeder and one drainer: {bad}")


def _build_stages(spec: DmSpec, stages: list[tuple[str, ...]]) -> Network:
    """Diverge-merge stages of `spec`, one per tuple of link names (origin,
    link 1, link 2, destination), each with the spec's boundary data.  The
    merge of stage k takes link 2 of stage k - 1, cyclically, so one stage
    is the four-link network."""
    caps = (spec.c0, spec.c1, spec.c2, spec.c3)
    demand = spec.c0 if spec.origin_demand is None else spec.origin_demand
    supply = (spec.c3 if spec.destination_supply is None
              else spec.destination_supply)
    links, origins, destinations, diverges, merges = [], [], [], [], []
    for k, names in enumerate(stages):
        origin, link1, link2, destination = names
        links += map(Link, names, caps, spec.lengths)
        origins.append(Origin(origin, demand, spec.xi))
        destinations.append(Destination(destination, supply))
        diverges.append(Diverge(origin, link1, link2))
        merges.append(Merge(link1, stages[k - 1][2], destination, spec.beta))
    return Network(tuple(links), tuple(origins), tuple(destinations),
                   tuple(diverges), tuple(merges))


def build_dm(spec: DmSpec) -> Network:
    """The four-link diverge-merge network with one origin-destination
    pair: the ring of one stage, with links `link0`..`link3` of lengths
    `spec.lengths` and the spec's boundary data.
    """
    return _build_stages(spec, [tuple(_STAGE_LINKS)])


def build_dmn(spec: DmnSpec) -> Network:
    """Ring of n copies of `spec.stage`, each wide link crossing over.

    Stage k: origin -> o_k -> diverge -> {c_k (narrow, proportion xi),
    u_k (wide)}; merge k joins c_k with u_{k-1} and drains through e_k to a
    destination.  For n=1 the ring is `build_dm(spec.stage)` with the
    links renamed.  The merge priority defaults to 0 so the narrow link's
    out-flux is governed purely by the wide link's arrivals, matching the
    ring return map min(C1, C3 - ((1-xi)/xi) v).
    """
    return _build_stages(spec.stage, _ring_links(spec.n))


def build_beltway(spec: BeltwaySpec) -> Network:
    """Ring road with n alternating off-ramp / on-ramp pairs.

    Going with the traffic: merge k -> a_k -> off-ramp diverge (fixed
    turning proportion xi) -> b_k -> merge k+1.  On-ramps are constant
    demand sources with priority beta; off-ramps are sinks with ample
    supply so they never constrain the diverge.  Boundary data default to
    0.6 and 10 times the ring capacity.
    """
    n, cap, length = spec.n_pairs, spec.ring_capacity, spec.segment_length
    d_on = 0.6 * cap if spec.ramp_demand is None else spec.ramp_demand
    s_off = 10.0 * cap if spec.offramp_supply is None else spec.offramp_supply
    links: list[Link] = []
    diverges: list[Diverge] = []
    merges: list[Merge] = []
    for k in range(1, n + 1):
        links += [Link(f"a{k}", cap, length), Link(f"b{k}", cap, length)]
        diverges.append(Diverge(f"a{k}", s_off, f"b{k}", xi=spec.xi))
        prev = k - 1 if k > 1 else n
        merges.append(Merge(d_on, f"b{prev}", f"a{k}", spec.beta))
    return Network(tuple(links), (), (), tuple(diverges), tuple(merges))


def dmn_start(spec: DmnSpec) -> dict[str, LinkStart]:
    """Symmetric stationary start of the ring of stages: every stage holds
    `spec.stage`'s (SOC, SUC) start at through-flow C3 on o_k, c_k, u_k
    and e_k.  It exists while the narrow link can carry its share,
    xi <= C1/C3 = 1/2."""
    stage = spec.stage
    bound = stage.c1 / stage.c3
    if not spec.xi <= bound:
        raise DomainError(
            f"the symmetric ring start needs xi <= {bound}, got "
            f"xi = {spec.xi}")
    start = stationary_start(stage, StationaryState(
        LinkRegime.SOC, LinkRegime.SUC, stage.c3)).values()
    return {name: link for names in _ring_links(spec.n)
            for name, link in zip(names, start)}


def beltway_start(spec: BeltwaySpec, flow: float) -> dict[str, LinkStart]:
    """Every ring segment uniformly over-critical, carrying `flow`."""
    if not flow < spec.ring_capacity:
        raise DomainError("initial ring flow must be below capacity")
    start = LinkStart(flow, 1.0, 0.0)
    return {f"{side}{k}": start
            for k in range(1, spec.n_pairs + 1) for side in "ab"}
