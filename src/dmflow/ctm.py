"""Cell-transmission (Godunov) simulation of the network kinematic-wave model.

Each link is split into uniform cells holding a total density and a
commodity-1 density.  All fluxes for a step are computed from the pre-step
state with the standard sending/receiving rule

    q = min(demand(upstream cell), supply(downstream cell)),

commodity flux upwinded as the upstream fraction times q.  Junctions use:

  * FIFO diverge:  q0 = min(d0, s1/xi, s2/(1-xi)), branch fluxes xi*q0 and
    (1-xi)*q0; a vanishing branch (xi in {0, 1}) drops its ratio
    constraint, matching the limit of the formula.
  * Priority merge: approach 1 gets min(d1, max(s3 - d2, beta*s3)),
    approach 2 the mirror image with share 1-beta; together they fill
    min(d1+d2, s3), so no downstream supply is wasted when saturated.

Origins are unqueued demand boundaries, destinations pure supply
boundaries.  Densities then advance by dt/dx times the flux imbalance.
The smallest cell traversal time over all links bounds dt (CFL); with the
default triangular diagram the scheme transports piecewise-constant
profiles exactly, so stationary states are discrete fixed points.

Layout.  Every link has the same number of cells, so the state of the
whole network is one array of shape (2, n_links, cells_per_link): total
density k and commodity-1 density k1, one row per link in the order of
`Network.links`.  A step evaluates demand, supply and fractions of all
cells at once, fills a face-flux array of shape (2, n_links, cells + 1)
(column 0 the flux entering a link, column -1 the flux leaving it) and
updates every cell through it.  Junctions are compiled once, at
construction, into index arrays over junction endpoints, one group per
type:

  * transfers: origins and destinations, one sender and one receiver;
  * diverges: fixed or commodity-driven xi, link or sink branches;
  * merges: link or constant-demand approaches.

Senders are the downstream link ends, then the origins and constant-demand
approaches; receivers are the upstream link ends, then the destinations
and sink branches.  Each group reads demands and supplies from and writes
its fluxes to these endpoints, so a step costs a fixed number of numpy
calls whatever the size of the network.  The scalar `diverge_flux` and
`merge_flux` are the reference the compiled groups reproduce bit for bit.

Empty cells carry commodity fraction 0.  No flux depends on that value: an
empty cell's demand is exactly 0 in both diagram shapes, so every flux it
sends, and every fraction times that flux, is +0.0, and a commodity-driven
diverge behind an empty cell sends q0 = 0 whatever split it reads.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .fundamental import FundamentalDiagram, TrafficState
from .network import (DMN_DEST_SUPPLY, DmSpec, Network, StationaryState,
                      _make_diagram, stationary_profile)

logger = logging.getLogger(__name__)

__all__ = [
    "SimConfig",
    "LinkState",
    "RunRecord",
    "Simulation",
    "diverge_flux",
    "merge_flux",
    "initialize_dm_stationary",
    "initialize_dmn_stationary",
    "initialize_beltway_congested",
]

CFL_SAFETY = 0.9


def _check_horizon(horizon: float) -> None:
    if not 0.0 <= horizon < math.inf:
        raise ConfigurationError(
            f"horizon must be finite and nonnegative, got {horizon}")


@dataclass(frozen=True)
class SimConfig:
    """Discretization settings; dt=None picks the CFL-safe default."""

    cells_per_link: int = 20
    dt: float | None = None
    horizon: float = 400.0
    free_flow_speed: float = 1.0
    congested_wave_speed: float = 0.5
    shape: str = "triangular"

    def __post_init__(self):
        if self.cells_per_link < 1:
            raise ConfigurationError("cells_per_link must be positive")
        _check_horizon(self.horizon)
        if self.dt is not None and not self.dt > 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")


def diverge_flux(d0: float, s1: float, s2: float, xi: float,
                 ) -> tuple[float, float, float]:
    """FIFO diverge fluxes (q0, q1, q2) with branch-1 proportion xi."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"xi must lie in [0, 1], got {xi}")
    q0 = d0
    if xi > 0.0:
        q0 = min(q0, s1 / xi)
    if xi < 1.0:
        q0 = min(q0, s2 / (1.0 - xi))
    return q0, xi * q0, (1.0 - xi) * q0


def merge_flux(d1: float, d2: float, s3: float, beta: float,
               ) -> tuple[float, float, float]:
    """Priority merge fluxes (q3, q1, q2); approach 1 holds share beta."""
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta must lie in [0, 1], got {beta}")
    q1 = min(d1, max(s3 - d2, beta * s3))
    q2 = min(d2, max(s3 - d1, (1.0 - beta) * s3))
    return min(d1 + d2, s3), q1, q2


class LinkState:
    """One link's row of the simulation's cell arrays; k and k1 are views."""

    def __init__(self, name: str, fd: FundamentalDiagram, dx: float,
                 k: np.ndarray, k1: np.ndarray):
        self.name = name
        self.fd = fd
        self.dx = dx
        self.k = k
        self.k1 = k1

    def set_uniform(self, density: float, fraction: float) -> None:
        self.k.fill(density)
        self.k1[:] = fraction * self.k

    def set_cells(self, densities: np.ndarray, fraction: float) -> None:
        if len(densities) != len(self.k):
            raise ConfigurationError(
                f"{self.name}: expected {len(self.k)} densities")
        self.k[:] = densities
        self.k1[:] = fraction * self.k


@dataclass
class RunRecord:
    """Time series of boundary fluxes and bookkeeping of one run."""

    dt: float
    times: np.ndarray                      # time after each step
    outflux: dict[str, np.ndarray]         # per link, downstream boundary
    vehicles: np.ndarray                   # network total after each step
    conservation_error: float              # max |dN - (in-out)*dt| over steps
    conservation_error_c1: float

    def series(self, link: str) -> tuple[np.ndarray, np.ndarray]:
        return self.times, self.outflux[link]


def _ints(values) -> np.ndarray:
    return np.array(list(values), dtype=np.intp)


class Simulation:
    """Steppable CTM instance for one network description."""

    def __init__(self, network: Network, config: SimConfig = SimConfig()):
        network.validate()
        self.network = network
        self.config = config
        cells = config.cells_per_link
        fds = [_make_diagram(ln.capacity, config.free_flow_speed,
                             config.congested_wave_speed, config.shape)
               for ln in network.links]
        dxs = [ln.length / cells for ln in network.links]
        n = self._n = len(fds)

        self._state = np.zeros((2, n, cells))
        self.k, self.k1 = self._state
        self._frac = np.empty((n, cells))
        # Face fluxes [q, phi] of the last step; `q` is public for recording.
        self._flux = np.zeros((2, n, cells + 1))
        self.q = self._flux[0]
        self.links: dict[str, LinkState] = {
            ln.name: LinkState(ln.name, fd, dx, self.k[i], self.k1[i])
            for i, (ln, fd, dx) in enumerate(zip(network.links, fds, dxs))}

        def column(attr: str) -> np.ndarray:
            return np.array([[getattr(fd, attr)] for fd in fds])

        self._triangular = config.shape == "triangular"
        self._vf = column("free_flow_speed")
        self._cap = column("capacity")
        self._kj = column("jam_density")
        self._kc = column("critical_density")
        if self._triangular:
            self._w = column("congested_wave_speed")

        self.t = 0.0
        limit = min(dx / fd.max_wave_speed for dx, fd in zip(dxs, fds))
        self.dt = self._resolve_dt(limit)
        self._dx = np.array(dxs)
        self._r = (self.dt / self._dx)[:, None]
        row = {ln.name: i for i, ln in enumerate(network.links)}
        self._compile_junctions(network, row)
        logger.debug("simulation ready: %d links, dt=%g",
                     len(self.links), self.dt)

    def _resolve_dt(self, limit: float) -> float:
        if self.config.dt is None:
            return CFL_SAFETY * limit
        if self.config.dt > limit:
            raise ConfigurationError(
                f"dt={self.config.dt} violates the CFL bound {limit}")
        return self.config.dt

    def _compile_junctions(self, network: Network,
                           row: dict[str, int]) -> None:
        """Index and constant arrays of every junction, grouped by type.

        Endpoint slots 0..n-1 are the links; slot n is a constant zero that
        starts the boundary totals; the slots after it are the boundary
        endpoints in the order the totals accumulate them (sources: origins,
        then constant-demand approaches; sinks: destinations, then sink
        branches).
        """
        demand = [0.0] * (self._n + 1)
        fraction = [0.0] * (self._n + 1)
        supply = [0.0] * (self._n + 1)

        def sender(d: float, frac: float) -> int:
            demand.append(d)
            fraction.append(frac)
            return len(demand) - 1

        def receiver(s: float) -> int:
            supply.append(s)
            return len(supply) - 1

        def approach(a) -> int:
            return row[a.link] if a.link is not None else sender(a.demand, 0.0)

        def branch(b) -> int:
            return row[b.link] if b.link is not None else receiver(b.supply)

        transfers = ([(sender(o.demand, o.fraction), row[o.link])
                      for o in network.origins]
                     + [(row[d.link], receiver(d.supply))
                        for d in network.destinations])
        self._tr_snd = _ints(t[0] for t in transfers)
        self._tr_rcv = _ints(t[1] for t in transfers)

        for dv in network.diverges:
            if dv.xi is not None and not 0.0 <= dv.xi <= 1.0:
                raise DomainError(f"xi must lie in [0, 1], got {dv.xi}")
        self._dv_up = _ints(row[dv.upstream] for dv in network.diverges)
        branches = _ints([branch(dv.branch1), branch(dv.branch2)]
                         for dv in network.diverges).reshape(-1, 2)
        self._dv_b1, self._dv_b2 = np.ascontiguousarray(branches.T)
        self._dv_driven = np.array([dv.xi is None
                                    for dv in network.diverges], dtype=bool)
        self._dv_xi = np.array([0.0 if dv.xi is None else dv.xi
                                for dv in network.diverges])

        for mg in network.merges:
            if not 0.0 <= mg.beta <= 1.0:
                raise DomainError(f"beta must lie in [0, 1], got {mg.beta}")
        approaches = _ints([approach(mg.approach1), approach(mg.approach2)]
                           for mg in network.merges).reshape(-1, 2)
        self._mg_a1, self._mg_a2 = np.ascontiguousarray(approaches.T)
        self._mg_down = _ints(row[mg.downstream] for mg in network.merges)
        self._mg_beta = np.array([mg.beta for mg in network.merges])
        self._mg_beta_c = np.array([1.0 - mg.beta for mg in network.merges])

        self._dem = np.array(demand)
        self._fr = np.array(fraction)
        self._sup = np.array(supply)
        self._out = np.zeros((2, len(demand)))
        self._in = np.zeros((2, len(supply)))

    def step(self) -> tuple[float, float, float, float]:
        """Advance one dt.

        Leaves the face fluxes in `q` (column 0 the flux entering each
        link, column -1 the flux leaving it) and returns the boundary
        totals (source q, source phi, sink q, sink phi) of the step.
        """
        k, k1, n = self.k, self.k1, self._n
        if self._triangular:
            d = np.minimum(self._vf * k, self._cap)
            s = np.minimum(self._cap, self._w * (self._kj - k))
        else:
            lo = np.minimum(k, self._kc)
            hi = np.maximum(k, self._kc)
            d = self._vf * lo * (1.0 - lo / self._kj)
            s = self._vf * hi * (1.0 - hi / self._kj)
        frac = self._frac
        frac.fill(0.0)
        np.divide(k1, k, out=frac, where=k > 0.0)

        dem, fr, sup = self._dem, self._fr, self._sup
        (out_q, out_phi), (in_q, in_phi) = self._out, self._in
        dem[:n] = d[:, -1]
        fr[:n] = frac[:, -1]
        sup[:n] = s[:, 0]

        snd, rcv = self._tr_snd, self._tr_rcv
        q = np.minimum(dem[snd], sup[rcv])
        out_q[snd] = in_q[rcv] = q
        out_phi[snd] = in_phi[rcv] = fr[snd] * q

        up, b1, b2, driven = (self._dv_up, self._dv_b1, self._dv_b2,
                              self._dv_driven)
        f0 = fr[up]
        xi = np.where(driven, f0, self._dv_xi)
        bad = ~((xi >= 0.0) & (xi <= 1.0))
        if bad.any():
            raise DomainError(f"xi must lie in [0, 1], got {xi[bad]}")
        xi_c = 1.0 - xi
        q0 = dem[up]
        open1 = xi > 0.0
        q0 = np.where(open1,
                      np.minimum(q0, sup[b1] / np.where(open1, xi, 1.0)), q0)
        open2 = xi < 1.0
        q0 = np.where(open2,
                      np.minimum(q0, sup[b2] / np.where(open2, xi_c, 1.0)),
                      q0)
        q1, q2 = xi * q0, xi_c * q0
        out_q[up] = q0
        out_phi[up] = f0 * q0
        # Commodity-driven: branch 1 carries all of commodity 1.
        in_q[b1] = q1
        in_phi[b1] = np.where(driven, q1, f0 * q1)
        in_q[b2] = q2
        in_phi[b2] = np.where(driven, 0.0, f0 * q2)

        a1, a2, down = self._mg_a1, self._mg_a2, self._mg_down
        d1, d2, s3 = dem[a1], dem[a2], sup[down]
        q1 = np.minimum(d1, np.maximum(s3 - d2, self._mg_beta * s3))
        q2 = np.minimum(d2, np.maximum(s3 - d1, self._mg_beta_c * s3))
        phi1, phi2 = fr[a1] * q1, fr[a2] * q2
        out_q[a1] = q1
        out_phi[a1] = phi1
        out_q[a2] = q2
        out_phi[a2] = phi2
        # q1 + q2 equals min(d1+d2, s3); summing keeps the node exactly
        # conservative in floating point.  Constant-demand approaches carry
        # no commodity 1; the leading 0.0 keeps the sum's sign of zero.
        in_q[down] = q1 + q2
        in_phi[down] = 0.0 + phi1 + phi2

        flux = self._flux
        np.minimum(d[:, :-1], s[:, 1:], out=flux[0, :, 1:-1])
        np.multiply(frac[:, :-1], flux[0, :, 1:-1], out=flux[1, :, 1:-1])
        flux[:, :, 0] = self._in[:, :n]
        flux[:, :, -1] = self._out[:, :n]
        self._state += self._r * (flux[:, :, :-1] - flux[:, :, 1:])
        self.t += self.dt
        src_q, src_phi = np.add.accumulate(self._out[:, n:],
                                           axis=1)[:, -1].tolist()
        snk_q, snk_phi = np.add.accumulate(self._in[:, n:],
                                           axis=1)[:, -1].tolist()
        return src_q, src_phi, snk_q, snk_phi

    def run(self, horizon: float | None = None) -> RunRecord:
        """Step until the horizon, recording boundary fluxes and totals."""
        horizon = self.config.horizon if horizon is None else horizon
        _check_horizon(horizon)
        n_steps = int(round(horizon / self.dt))
        try:
            times = np.empty(n_steps)
            outflux = np.empty((n_steps, self._n))
            vehicles = np.empty(n_steps)
            errors = np.empty((n_steps, 2))
        except MemoryError:
            raise ConfigurationError(
                f"horizon {horizon!r} needs {n_steps} steps of dt = "
                f"{self.dt!r}; their records do not fit in memory") from None
        prev_tot, prev_tot1 = self._totals()
        for i in range(n_steps):
            src, src1, snk, snk1 = self.step()
            times[i] = self.t
            outflux[i] = self.q[:, -1]
            tot, tot1 = self._totals()
            vehicles[i] = tot
            errors[i, 0] = abs(tot - prev_tot - self.dt * (src - snk))
            errors[i, 1] = abs(tot1 - prev_tot1 - self.dt * (src1 - snk1))
            prev_tot, prev_tot1 = tot, tot1
        # np.max keeps a NaN step error, where Python's max would drop it.
        cons, cons_c1 = np.max(errors, axis=0, initial=0.0).tolist()
        return RunRecord(self.dt, times,
                         {n: outflux[:, i] for i, n in enumerate(self.links)},
                         vehicles, cons, cons_c1)

    def _totals(self) -> tuple[float, float]:
        """Vehicles (all, commodity 1): per link, then summed in link order."""
        per_link = self._state.sum(axis=2) * self._dx
        tot, tot1 = np.add.accumulate(per_link, axis=1)[:, -1].tolist()
        return tot, tot1


# ---------------------------------------------------------------------------
# Canned initial conditions.
# ---------------------------------------------------------------------------

def initialize_dm_stationary(sim: Simulation, spec: DmSpec,
                             state: StationaryState,
                             l1: float | None = None,
                             l2: float | None = None) -> None:
    """Load a stationary profile of the four-link network into the cells."""
    diagrams = tuple(sim.links[f"link{i}"].fd for i in range(4))
    profiles = stationary_profile(spec, state, l1, l2, diagrams)
    fractions = {"link0": spec.xi, "link1": 1.0, "link2": 0.0,
                 "link3": spec.xi}
    sim.t = 0.0
    for name, profile in profiles.items():
        sim.links[name].set_cells(
            profile.cell_densities(sim.config.cells_per_link),
            fractions[name])


def initialize_dmn_stationary(sim: Simulation, xi: float, scale: float = 1.0,
                              perturb: dict[str, float] | None = None) -> None:
    """Symmetric stationary state of the ring of stages, optionally with
    per-link density offsets (e.g. {"c1": +0.01})."""
    q = DMN_DEST_SUPPLY * scale          # per-stage through-flow
    q_narrow = xi * q
    q_wide = (1.0 - xi) * q
    sim.t = 0.0
    for name, ls in sim.links.items():
        fd = ls.fd
        if name.startswith("o"):
            k = fd.state_to_density(TrafficState(fd.capacity, q))
            frac = xi
        elif name.startswith("c"):
            k = fd.state_to_density(TrafficState(fd.capacity, q_narrow))
            frac = 1.0
        elif name.startswith("u"):
            k = fd.state_to_density(TrafficState(q_wide, fd.capacity))
            frac = 0.0
        else:  # destination links run exactly at capacity
            k = fd.critical_density
            frac = xi
        if perturb and name in perturb:
            k += perturb[name]
        ls.set_uniform(k, frac)


def initialize_beltway_congested(sim: Simulation, flow: float) -> None:
    """Uniform over-critical ring carrying the given initial flow."""
    sim.t = 0.0
    for ls in sim.links.values():
        if flow >= ls.fd.capacity:
            raise DomainError("initial ring flow must be below capacity")
        k = ls.fd.state_to_density(TrafficState(ls.fd.capacity, flow))
        ls.set_uniform(k, 0.0)
