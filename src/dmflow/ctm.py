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
updates every cell through it.  The diagram constants are stored once per
cell, shape (n_links, cells), and dt/dx once per cell of both rows, shape
(2, n_links, cells), so no operand is broadcast.  Demand, supply, the
occupied-cell mask, the merge room and the state update write through
`out=` into buffers allocated at construction, with the operands in the
order of the scalar formulas.  Junctions are compiled once, at
construction, into the rows of two groups:

  * merges: link or constant-demand approaches.  Origins and destinations
    are merges whose second approach is an empty slot (demand 0,
    fraction 0), for which min(d, max(s - 0, s/2)) is min(d, s) bit for
    bit.
  * diverges: fixed or commodity-driven xi, link or sink branches.  The
    split and the commodity multipliers are gathered from constants kept
    after the cell fractions, and a branch with share 0 drops its ratio
    constraint.

Both read demands, fractions and supplies from one buffer that holds the
cells of every link followed by the boundary slots, and write [q, phi] of
every junction end into one result array; one gather copies its link ends
into the face fluxes.  The rows run on one of two evaluators, chosen at
construction by their number (origins, merges, destinations and
diverges):

  * up to `_SCALAR_ROWS` rows, a loop over Python floats: one `take` of
    every operand, the rows in turn, and one write of every [q, phi]
    into the result.  On arrays of one to three elements a numpy call
    costs about a microsecond whatever it computes, and the groups make
    about twenty.
  * above it, the groups in numpy, whatever their size: index arrays,
    `out=` buffers and a `where=` mask for the zero shares.

The crossover of the two lies near 20 rows: the DM network (4 rows) and
beltways of up to 8 ramp pairs take the loop, the 80-row ring of 20
stages the groups.  The loop mirrors numpy bit for bit.  np.minimum(a, b)
is a when a < b or a is NaN, else b, so a tie such as (0.0, -0.0) goes to
the second operand; Python's min would return the first, and would drop a
NaN second operand.  np.maximum likewise, and both sums start from 0.0.
Either way a step is one Python-level call, and the scalar `diverge_flux`
and `merge_flux` are the reference both evaluators reproduce.

Bookkeeping.  `run` records each step's per-link vehicle sums and the
fluxes of the boundary endpoints (origins, constant-demand approaches,
destinations and sink branches).  After every block of steps, outside
the step, it derives the network totals and both conservation errors from
them as arrays, in the order of float operations of a step-by-step
account: links summed left to right, boundary fluxes accumulated from 0.0
in endpoint order.

Settled runs.  The step is autonomous: it reads the state and constants
(boundary demands and supplies, junction indices and shares), never `t`.
So a state that one step leaves bit for bit unchanged, a discrete fixed
point such as a stationary profile, gives the same face fluxes, result
array and state at every later step; only `t` advances.  `run` keeps a
copy of the state before the last step of each block and compares the two
bitwise after the block.  Once they match it stops stepping: the rest of
the record repeats the last step's out-fluxes, link sums and boundary
ends, times go on by `t += dt`, and the block fold derives the same
totals and errors a stepped run would.  A run that never settles pays one
state copy and one comparison per block.

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
# Steps of `Simulation.run` whose per-link sums and boundary fluxes are
# kept before their totals are folded in; bounds that memory for any horizon.
_BLOCK = 256
# Networks with at most this many junction rows (origins, merges,
# destinations and diverges) evaluate their junctions on Python floats;
# larger ones run the numpy groups.  On `build_dmn(n, 0.4)` (4n rows), in
# 41 interleaved rounds of 200 steps, a step took a median (groups/floats)
# of 50/31 µs at 4 rows, 52/42 at 12, 51/44 at 16, 47/47 at 20 and 50/53
# at 24; floats were faster in 41, 40, 38, 22 and 9 rounds of 41.
_SCALAR_ROWS = 16


def _split_error(xi: np.ndarray) -> DomainError:
    """The error for diverge splits `xi` of which some lie outside [0, 1]."""
    bad = ~((xi >= 0.0) & (xi <= 1.0))
    return DomainError(f"xi must lie in [0, 1], got {xi[bad]}")


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


def _ints(values, width: int | None = None) -> np.ndarray:
    """Index array of `values`; with a width, rows of that many indices
    transposed into `width` contiguous columns."""
    ints = np.array(list(values), dtype=np.intp)
    if width is None:
        return ints
    return np.ascontiguousarray(ints.reshape(-1, width).T)


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
        # Face fluxes [q, phi] of the last step; `q` is public for recording.
        self._flux = np.zeros((2, n, cells + 1))
        self.q = self._flux[0]
        self.links: dict[str, LinkState] = {
            ln.name: LinkState(ln.name, fd, dx, self.k[i], self.k1[i])
            for i, (ln, fd, dx) in enumerate(zip(network.links, fds, dxs))}

        def per_cell(values, shape=(n, cells)) -> np.ndarray:
            """One value per link, stored in every cell of the link."""
            return np.broadcast_to(np.array(values)[:, None], shape).copy()

        def diagram(attr: str) -> np.ndarray:
            return per_cell([getattr(fd, attr) for fd in fds])

        self._triangular = config.shape == "triangular"
        self._vf = diagram("free_flow_speed")
        self._cap = diagram("capacity")
        self._kj = diagram("jam_density")
        if self._triangular:
            self._w = diagram("congested_wave_speed")
        else:
            self._kc = diagram("critical_density")
            # lo/hi = min/max(k, kc) and 1 - lo/kj (or hi/kj).
            self._side = np.empty((n, cells))
            self._fill = np.empty((n, cells))
        self._occupied = np.empty((n, cells), dtype=bool)
        self._delta = np.empty((2, n, cells))

        self.t = 0.0
        limit = min(dx / fd.max_wave_speed for dx, fd in zip(dxs, fds))
        self.dt = self._resolve_dt(limit)
        self._dx = np.array(dxs)
        self._r = per_cell(self.dt / self._dx, (2, n, cells))
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
        """Buffers, index and constant arrays of the two junction groups.

        Senders index the demand and fraction buffers, receivers the supply
        buffer.  Each buffer starts with the cells of every link, which the
        step fills in place: a link sends from its last cell and receives
        into its first.  Boundary slots follow: origins and constant-demand
        approaches, then EMPTY (demand 0, fraction 0); destinations and
        sink branches.  The fraction buffer goes on with the fixed diverge
        splits and a constant 1.0.

        The result array holds [q, phi] of every junction end, one column
        each: merge approaches 1, merge approaches 2, merge downstream ends,
        diverge upstream ends, diverge branches 1, diverge branches 2, and
        a zero column.  Origins and destinations are merges whose second
        approach is EMPTY.

        The same rows also compile into the scalar program: one index
        array into the buffer that holds demand, fraction and supply side
        by side, read five values per merge (d1, d2, s3, f1, f2) and seven
        per diverge (split, d0, s1, s2, f0, the two multipliers), and the
        merge shares as Python floats.
        """
        n, cells = self._n, self.config.cells_per_link
        size = n * cells
        demand: list[float] = []
        fraction: list[float] = []
        supply: list[float] = []

        def sender(d: float, frac: float) -> int:
            demand.append(d)
            fraction.append(frac)
            return size + len(demand) - 1

        def receiver(s: float) -> int:
            supply.append(s)
            return size + len(supply) - 1

        def last(link: str) -> int:
            return row[link] * cells + cells - 1

        def first(link: str) -> int:
            return row[link] * cells

        for dv in network.diverges:
            if dv.xi is not None and not 0.0 <= dv.xi <= 1.0:
                raise DomainError(f"xi must lie in [0, 1], got {dv.xi}")
        for mg in network.merges:
            if not 0.0 <= mg.beta <= 1.0:
                raise DomainError(f"beta must lie in [0, 1], got {mg.beta}")
        m = (len(network.origins) + len(network.merges)
             + len(network.destinations))
        nd = len(network.diverges)
        inflow, outflow = [0] * n, [0] * n      # result column per link end
        # Result columns of the boundary ends, in the order the totals
        # accumulate them.
        origin_ends: list[int] = []
        approach_ends: list[int] = []
        dest_ends: list[int] = []
        branch_ends: list[int] = []

        def approach(a, col: int) -> int:
            if a.link is None:
                approach_ends.append(col)
                return sender(a.demand, 0.0)
            outflow[row[a.link]] = col
            return last(a.link)

        # Merge group rows (approach 1, approach 2, downstream) and beta.
        # With the empty second approach, min(d, max(s - 0.0, 0.5*s)) is
        # min(d, s) bit for bit.  Shares of 1/2 also keep an infinite d or
        # s exact: beta = 1 would give the empty approach 0*inf = NaN.
        empty = sender(0.0, 0.0)
        merges: list[tuple[int, int, int]] = []
        betas: list[float] = []
        for o in network.origins:
            inflow[row[o.link]] = 2 * m + len(merges)
            origin_ends.append(len(merges))
            merges.append((sender(o.demand, o.fraction), empty,
                           first(o.link)))
            betas.append(0.5)
        for mg in network.merges:
            j = len(merges)
            inflow[row[mg.downstream]] = 2 * m + j
            merges.append((approach(mg.approach1, j),
                           approach(mg.approach2, m + j),
                           first(mg.downstream)))
            betas.append(mg.beta)
        for d in network.destinations:
            outflow[row[d.link]] = len(merges)
            dest_ends.append(2 * m + len(merges))
            merges.append((last(d.link), empty, receiver(d.supply)))
            betas.append(0.5)

        # Diverge group rows (upstream, split, branch 1, branch 2 and the
        # two commodity multipliers).  The split and the multipliers are
        # gathered from the fraction buffer; constants follow the senders.
        def constant(value: float) -> int:
            fraction.append(value)
            return size + len(fraction) - 1

        one = constant(1.0)
        diverges: list[tuple[int, ...]] = []
        for j, dv in enumerate(network.diverges):
            up = last(dv.upstream)
            outflow[row[dv.upstream]] = 3 * m + j
            branches = []
            for i, b in enumerate((dv.branch1, dv.branch2)):
                col = 3 * m + (1 + i) * nd + j
                if b.link is None:
                    branch_ends.append(col)
                    branches.append(receiver(b.supply))
                else:
                    inflow[row[b.link]] = col
                    branches.append(first(b.link))
            if dv.xi is None:
                # Commodity-driven: branch 1 carries all of commodity 1.
                diverges.append((up, up, *branches, one, empty))
            else:
                diverges.append((up, constant(dv.xi), *branches, up, up))

        mg_ix = _ints(merges, 3)
        self._mg_a, self._mg_down = mg_ix[:2], mg_ix[2]
        self._mg_beta = np.array([betas, [1.0 - b for b in betas]])
        self._room = np.empty((2,) + self._mg_beta.shape)
        dv_ix = _ints(diverges, 6)
        self._dv_up, self._dv_xi = dv_ix[0], dv_ix[1]
        self._dv_b, self._dv_m = dv_ix[2:4], dv_ix[4:]

        # Demand, fraction and supply side by side in one buffer, so that
        # the scalar program gathers all its operands in one `take`.
        f0 = size + len(demand)
        s0 = f0 + size + len(fraction)
        buf = self._buf = np.concatenate([np.zeros(size), demand,
                                          np.zeros(size), fraction,
                                          np.zeros(size), supply])
        self._dem, self._fr, self._sup = buf[:f0], buf[f0:s0], buf[s0:]
        self._d = self._dem[:size].reshape(n, cells)
        self._s = self._sup[:size].reshape(n, cells)
        self._frac = self._fr[:size].reshape(n, cells)
        self._program = _ints(
            [i for a1, a2, down in merges
             for i in (a1, a2, s0 + down, f0 + a1, f0 + a2)]
            + [i for up, xi, b1, b2, m1, m2 in diverges
               for i in (f0 + xi, up, s0 + b1, s0 + b2, f0 + up, f0 + m1,
                         f0 + m2)])
        self._shares = tuple(zip(betas, self._mg_beta[1].tolist()))
        self._splits_at = 5 * m
        self._scalar = m + nd <= _SCALAR_ROWS
        # One more column, never written, starts both boundary totals.
        res = self._res = np.zeros((2, 3 * m + 3 * nd + 1))
        zero = 3 * m + 3 * nd
        self._live = res[:, :zero]
        self._q_app = res[0, :2 * m].reshape(2, m)
        self._phi_app = res[1, :2 * m].reshape(2, m)
        self._q_down, self._phi_down = res[:, 2 * m:3 * m]
        self._q_up, self._phi_up = res[:, 3 * m:3 * m + nd]
        self._q_br = res[0, 3 * m + nd:zero].reshape(2, nd)
        self._phi_br = res[1, 3 * m + nd:zero].reshape(2, nd)
        self._split = np.empty((2, nd))         # (xi, 1 - xi)
        self._lim = np.empty((3, nd))           # d0, s1/xi, s2/(1 - xi)
        self._open = np.ones((3, nd), dtype=bool)
        self._ends = _ints(zip(inflow, outflow))
        # Fixed views the step reads and writes through.
        flux = self._flux
        self._d_out, self._s_in = self._d[:, :-1], self._s[:, 1:]
        self._frac_out = self._frac[:, :-1]
        self._q_inner, self._phi_inner = flux[:, :, 1:-1]
        self._flux_ends = flux[:, :, ::cells]
        self._flux_up, self._flux_down = flux[:, :, :-1], flux[:, :, 1:]
        self._bnd = _ints([zero, *origin_ends, *approach_ends,
                           zero, *dest_ends, *branch_ends])
        self._n_src = 1 + len(origin_ends) + len(approach_ends)

    def step(self) -> None:
        """Advance one dt.

        Leaves the face fluxes in `q` (column 0 the flux entering each
        link, column -1 the flux leaving it); `boundary_totals` reads the
        step's boundary fluxes.
        """
        k, d, s, frac = self.k, self._d, self._s, self._frac
        vf, cap, kj = self._vf, self._cap, self._kj
        if self._triangular:
            # min(vf*k, cap) and min(cap, w*(kj - k)).
            np.multiply(vf, k, out=d)
            np.minimum(d, cap, out=d)
            np.subtract(kj, k, out=s)
            np.multiply(self._w, s, out=s)
            np.minimum(cap, s, out=s)
        else:
            # (vf*lo)*(1 - lo/kj) with lo = min(k, kc); hi = max(k, kc)
            # likewise.
            side, fill = self._side, self._fill
            for extreme, out in ((np.minimum, d), (np.maximum, s)):
                extreme(k, self._kc, out=side)
                np.divide(side, kj, out=fill)
                np.subtract(1.0, fill, out=fill)
                np.multiply(vf, side, out=out)
                np.multiply(out, fill, out=out)
        frac.fill(0.0)
        occupied = np.greater(k, 0.0, out=self._occupied)
        np.divide(self.k1, k, out=frac, where=occupied)
        dem, fr, sup = self._dem, self._fr, self._sup

        if self._scalar:
            # The rows of both groups on Python floats, each operation with
            # the operands, in the order, of the groups below.  np.minimum
            # (a, b) is `a if a < b or a != a else b`, np.maximum likewise.
            v = self._buf.take(self._program).tolist()
            for xi in v[self._splits_at::7]:
                if not 0.0 <= xi <= 1.0:
                    raise _split_error(fr[self._dv_xi])
            # zip draws from its arguments left to right: the shares stop
            # the merge loop after the merge rows, and the diverge loop
            # reads the rest, seven values a row.
            g = iter(v)
            # [q, phi] of each row's three ends, row by row; the result
            # array takes them end by end.
            q_mg: list[float] = []
            phi_mg: list[float] = []
            q_dv: list[float] = []
            phi_dv: list[float] = []
            for (b1, b2), d1, d2, s3, f1, f2 in zip(self._shares,
                                                     g, g, g, g, g):
                r, t = s3 - d2, b1 * s3
                r = r if r > t or r != r else t
                q1 = d1 if d1 < r or d1 != d1 else r
                r, t = s3 - d1, b2 * s3
                r = r if r > t or r != r else t
                q2 = d2 if d2 < r or d2 != d2 else r
                p1, p2 = f1 * q1, f2 * q2
                # Both sums start from 0.0, as np.add.reduce does.
                q_mg += (q1, q2, (0.0 + q1) + q2)
                phi_mg += (p1, p2, (0.0 + p1) + p2)
            for xi, d0, s1, s2, f0, f1, f2 in zip(g, g, g, g, g, g, g):
                # The minimum folds from inf, and min(inf, d0) is d0.
                q0, xi2 = d0, 1.0 - xi
                if xi > 0.0:
                    t = s1 / xi
                    q0 = q0 if q0 < t or q0 != q0 else t
                if xi2 > 0.0:
                    t = s2 / xi2
                    q0 = q0 if q0 < t or q0 != q0 else t
                q1, q2 = xi * q0, xi2 * q0
                q_dv += (q0, q1, q2)
                phi_dv += (f0 * q0, f1 * q1, f2 * q2)
            self._live[...] = (
                q_mg[::3] + q_mg[1::3] + q_mg[2::3]
                + q_dv[::3] + q_dv[1::3] + q_dv[2::3],
                phi_mg[::3] + phi_mg[1::3] + phi_mg[2::3]
                + phi_dv[::3] + phi_dv[1::3] + phi_dv[2::3])
        else:
            # The reductions pass (axis, dtype, out, keepdims, initial,
            # where) by position: on arrays this small, parsing keywords
            # costs about as much as the reduction itself.
            split, lim, open_ = self._split, self._lim, self._open
            split[0] = fr[self._dv_xi]
            np.subtract(1.0, split[0], out=split[1])
            if not np.minimum.reduce(split, None, None, None, False,
                                     1.0) >= 0.0:
                raise _split_error(split[0])
            lim[0] = dem[self._dv_up]
            # A branch with share 0 drops its ratio constraint.
            np.greater(split, 0.0, out=open_[1:])
            np.divide(sup[self._dv_b], split, out=lim[1:], where=open_[1:])
            q0 = np.minimum.reduce(lim, 0, None, self._q_up, False, np.inf,
                                   open_)
            np.multiply(fr[self._dv_up], q0, out=self._phi_up)
            np.multiply(split, q0, out=self._q_br)
            np.multiply(fr[self._dv_m], self._q_br, out=self._phi_br)

            a = self._mg_a
            d12, s3 = dem[a], sup[self._mg_down]
            # room = max(s3 - (d2, d1), (beta, 1 - beta)*s3)
            room, share = self._room
            np.subtract(s3, d12[::-1], out=room)
            np.multiply(self._mg_beta, s3, out=share)
            np.maximum(room, share, out=room)
            q12 = np.minimum(d12, room, out=self._q_app)
            np.multiply(fr[a], q12, out=self._phi_app)
            # q1 + q2 equals min(d1+d2, s3); summing keeps the node
            # exactly conservative in floating point.  Both sums start
            # from 0.0, the first without `initial`, so -0.0 + -0.0 is
            # 0.0.
            np.add.reduce(q12, 0, None, self._q_down)
            np.add.reduce(self._phi_app, 0, None, self._phi_down, False,
                          0.0)

        q_in = self._q_inner
        np.minimum(self._d_out, self._s_in, out=q_in)
        np.multiply(self._frac_out, q_in, out=self._phi_inner)
        self._flux_ends[...] = self._res.take(self._ends, axis=1)
        delta = np.subtract(self._flux_up, self._flux_down, out=self._delta)
        np.multiply(self._r, delta, out=delta)
        np.add(self._state, delta, out=self._state)
        self.t += self.dt

    def boundary_totals(self) -> tuple[float, float, float, float]:
        """Boundary totals (source q, source phi, sink q, sink phi) of the
        last step."""
        src, snk = self._boundary_sums(self._res[:, self._bnd])
        return (*src.tolist(), *snk.tolist())

    def _boundary_sums(self, ends: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Source and sink totals of boundary-end fluxes `ends[..., bnd]`:
        each group, led by the zero column, accumulated in endpoint
        order."""
        n_src = self._n_src
        return (np.add.accumulate(ends[..., :n_src], axis=-1)[..., -1],
                np.add.accumulate(ends[..., n_src:], axis=-1)[..., -1])

    def _vehicles(self, sums: np.ndarray) -> np.ndarray:
        """Vehicles (all, commodity 1) from per-link cell sums
        `sums[..., 2, n_links]`: times dx, then summed in link order."""
        return np.add.accumulate(sums * self._dx, axis=-1)[..., -1]

    def run(self, horizon: float | None = None) -> RunRecord:
        """Step until the horizon, recording boundary fluxes and totals.

        The loop records the per-link vehicle sums and the boundary-end
        fluxes of each step.  Every `_BLOCK` steps, and at the end, the
        network totals and conservation errors of the block are derived
        from them as arrays, in the order of float operations of a
        step-by-step account.

        A step reads only the state and constants, never `t`.  So when
        the last step of a block leaves the state bit for bit unchanged,
        every later step would repeat it: the rest of the run is filled
        in without stepping, with that step's fluxes and sums, and times
        that go on adding dt one step at a time.
        """
        horizon = self.config.horizon if horizon is None else horizon
        _check_horizon(horizon)
        n_steps = int(round(horizon / self.dt))
        try:
            times = np.empty(n_steps)
            outflux = np.empty((n_steps, self._n))
            totals = np.empty((n_steps + 1, 2))
            errors = np.empty((n_steps, 2))
        except (MemoryError, ValueError):
            raise ConfigurationError(
                f"horizon {horizon!r} needs {n_steps} steps of dt = "
                f"{self.dt!r}; their records do not fit in memory") from None
        state, res, bnd, add = self._state, self._res, self._bnd, np.add
        block = min(n_steps, _BLOCK)
        sums = np.empty((block, 2, self._n))
        ends = np.empty((block, 2, len(bnd)))
        # The state before the last step of a block, compared bitwise
        # (-0.0 differs from 0.0, equal NaN payloads match).
        before = np.empty_like(state)
        bits, before_bits = state.view(np.int64), before.view(np.int64)
        q_out = self.q[:, -1]
        settled = False
        totals[0] = self._vehicles(add.reduce(state, 2))
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            for i in range(0 if settled else stop - start):
                if start + i == stop - 1:
                    before[...] = state
                self.step()
                times[start + i] = self.t
                outflux[start + i] = q_out
                add.reduce(state, 2, None, sums[i])
                res.take(bnd, 1, ends[i])
            now = totals[start + 1:stop + 1]
            now[...] = self._vehicles(sums[:stop - start])
            src, snk = self._boundary_sums(ends[:stop - start])
            np.abs(now - totals[start:stop] - self.dt * (src - snk),
                   out=errors[start:stop])
            logger.debug("run: %d of %d steps, t = %g", stop, n_steps,
                         times[stop - 1])
            if (not settled and stop < n_steps
                    and np.array_equal(bits, before_bits)):
                # Every later step would repeat the last one.  The block was
                # full, so its last rows are that step's; times go on by
                # t += dt, which accumulate reproduces: it adds in order.
                settled = True
                outflux[stop:] = q_out
                sums[:] = sums[-1]
                ends[:] = ends[-1]
                rest = times[stop - 1:]
                rest[1:] = self.dt
                np.add.accumulate(rest, out=rest)
                self.t = float(times[-1])
                logger.debug("run: state settled at step %d; %d steps "
                             "filled without stepping", stop, n_steps - stop)
        # np.max keeps a NaN step error, where Python's max would drop it.
        cons, cons_c1 = np.max(errors, axis=0, initial=0.0).tolist()
        return RunRecord(self.dt, times,
                         {name: outflux[:, i]
                          for i, name in enumerate(self.links)},
                         totals[1:, 0], cons, cons_c1)


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
