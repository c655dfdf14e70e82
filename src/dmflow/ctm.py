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

Layout.  Each link has its cells plus one ghost cell behind them, so the
state is one contiguous array of shape (2, n_links * (cells + 1)): k, then
k1, link after link in the order of `Network.links`.  Face c of the face
vector is the upstream face of flat cell c; a link's cells + 1 faces run
from the flux entering it to the flux leaving it, its ghost's upstream
face.  The ghost's dt/dx is 0, so it stays +0.0.  Every per-cell ufunc of
a step runs on one contiguous 1-D array: the interior faces are one
np.minimum(d[:-1], s[1:]), the commodity faces one multiply, the update
one subtract, one multiply and one add; junction ends overwrite the
garbage faces a ghost produces.  Strided views cost more than twice as
much per call: np.minimum over the 4-link network's interior faces took
1.95 µs on (4, 19) views against 0.86 µs flat (4.9 against 1.4 µs on the
80-link ring), np.subtract 1.90 against 1.44 µs (6.95 against 2.40).  The
triangular demand and supply take three calls: [kj - k | k] times [w | vf]
into the adjacent [s | d] sections of the junction buffer, then the
minimum with cap.  Diagram constants are stored per slot, the ghost's its
link's, so that no 0/0 warns.  `k`, `k1` and `q` are views.  Junctions
are compiled once, at construction, into the rows of two groups:

  * merges: link or constant-demand approaches.  Origins and destinations
    are merges whose second approach is an empty slot (demand 0,
    fraction 0), for which min(d, max(s - 0, s/2)) is min(d, s) bit for
    bit.
  * diverges: fixed or commodity-driven xi, link or sink branches.  The
    split and the commodity multipliers are gathered from constants kept
    after the cell fractions, and a branch with share 0 drops its ratio
    constraint.

The rows compile into one program, an index array into the buffer of
supplies, demands and fractions: five operands per merge (d1, d2, s3, f1,
f2) and seven per diverge (xi, d0, s1, s2, f0 and the two multipliers),
laid out operand by operand.  Each step gathers it with one `take` for
both evaluators, and every junction end's [q, phi] lands in the face
vector: on its face, or for a boundary-only end in a slot after the
faces.  The evaluator is chosen at construction by the number of rows
(origins, merges, destinations and diverges):

  * up to `_SCALAR_ROWS` rows, a loop over Python floats over the
    vector's rows (one `tolist` per group), then one fancy assignment of
    every [q, phi], in row order.  On arrays of one to three elements a
    numpy call costs about a microsecond whatever it computes, and the
    groups make about twenty.
  * above it, the groups in numpy, whatever their size: one contiguous
    view of the vector per operand, `out=` buffers, a `where=` mask for
    the zero shares, and one assignment that scatters their result.

The crossover of the two lies between 24 and 28 rows: the DM network (4
rows) and beltways of up to 12 ramp pairs take the loop, the 80-row ring
of 20 stages the groups.  The loop mirrors numpy bit for bit.
np.minimum(a, b) is a when a < b or a is NaN, else b, so a tie such as
(0.0, -0.0) goes to the second operand; Python's min would return the
first, and would drop a NaN second operand.  np.maximum likewise, and
both sums start from 0.0.  Either way a step is one Python-level call,
and the scalar `diverge_flux` and `merge_flux` are the reference both
evaluators reproduce.

Bookkeeping.  `run` records each step's per-link vehicle sums, and with
one `take` from the face vector its out-fluxes and the fluxes of the
boundary endpoints (origins, constant-demand approaches, destinations and
sink branches).  After every block of steps, outside the step, it derives
the network totals and both conservation errors from them as arrays, in
the order of float operations of a step-by-step account: links summed
left to right, boundary fluxes accumulated from 0.0 in endpoint order.

Settled runs.  The step is autonomous: it reads the state and constants
(boundary demands and supplies, junction indices and shares), never `t`.
So a state that one step leaves bit for bit unchanged, a discrete fixed
point such as a stationary profile, gives the same face vector and state
at every later step; only `t` advances.  `run` keeps a
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
from .fundamental import FundamentalDiagram, TrafficState, _make_diagram
from .network import (DMN_DEST_SUPPLY, DmSpec, Network, StationaryState,
                      stationary_profile)

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
# of 34/15 µs at 4 rows, 46/30 at 12, 46/35 at 16, 42/37 at 20, 48/44 at
# 24, 49/51 at 28 and 48/56 at 32; floats were faster in 41, 41, 41, 34,
# 33, 3 and 2 rounds of 41.
_SCALAR_ROWS = 24


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
        cells = self.cells_per_link
        if not (1 <= cells < math.inf and float(cells).is_integer()):
            raise ConfigurationError(
                f"cells_per_link must be a positive integer, got {cells!r}")
        object.__setattr__(self, "cells_per_link", int(cells))
        for name in ("free_flow_speed", "congested_wave_speed"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and "
                                         f"finite, got {getattr(self, name)}")
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
        size = n * (cells + 1)

        # [kj - k | k | k1]: the flat state, each link's cells and its
        # ghost, behind the triangular supply's gap kj - k.
        self._cells = np.zeros(3 * size)
        self._gap_k, self._flat = self._cells[:2 * size], self._cells[size:]
        self._gap, self._flat_k, self._flat_k1 = self._cells.reshape(3, size)
        self._state = self._flat.reshape(2, n, cells + 1)[..., :cells]
        self.k, self.k1 = self._state
        self.links: dict[str, LinkState] = {
            ln.name: LinkState(ln.name, fd, dx, self.k[i], self.k1[i])
            for i, (ln, fd, dx) in enumerate(zip(network.links, fds, dxs))}

        def diagram(attr: str) -> np.ndarray:
            """One value per link, in every cell of the link and its ghost."""
            return np.repeat([getattr(fd, attr) for fd in fds], cells + 1)

        self._triangular = config.shape == "triangular"
        self._kj = diagram("jam_density")
        if self._triangular:
            self._wvf = np.concatenate([diagram("congested_wave_speed"),
                                        diagram("free_flow_speed")])
            self._cap = np.tile(diagram("capacity"), 2)
        else:
            self._vf = diagram("free_flow_speed")
            self._kc = diagram("critical_density")
            # lo/hi = min/max(k, kc) and 1 - lo/kj (or hi/kj).
            self._side = np.empty(size)
            self._fill = np.empty(size)
        self._occupied = np.empty(size, dtype=bool)
        self._delta = np.empty(2 * size)

        self.t = 0.0
        limit = min(dx / fd.max_wave_speed for dx, fd in zip(dxs, fds))
        self.dt = self._resolve_dt(limit)
        self._dx = np.array(dxs)
        # dt/dx per cell of both rows; 0 in the ghosts keeps them +0.0.
        r = np.outer(self.dt / self._dx, [1.0] * cells + [0.0])
        self._r = np.tile(r.ravel(), 2)
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

        One buffer holds the supplies and the demands of every cell, ghosts
        included, then boundary demands: origins and constant-demand
        approaches, then EMPTY (demand 0, fraction 0).  The fractions of
        the cells and of those senders follow, then the fixed diverge
        splits and a constant 1.0, and last the boundary supplies of
        destinations and sink branches.  A link sends from its last cell
        and receives into its first.  The rows compile into the program of
        operands that a step gathers from that buffer: five per merge (d1,
        d2, s3, f1, f2) and seven per diverge (split, d0, s1, s2, f0, the
        two multipliers), operand by operand.  The merge shares are kept as
        an array for the groups and as Python floats for the loop.

        The groups' result array holds [q, phi] of every junction end, one
        column each: merge approaches 1, merge approaches 2, merge
        downstream ends, diverge upstream ends, diverge branches 1 and 2.
        Origins and destinations are merges whose second approach is EMPTY.
        Each end has a slot in the face vector: a link end its face, any
        other end one of the slots after the faces.
        """
        n, cells = self._n, self.config.cells_per_link
        size = n * (cells + 1)
        demand: list[float] = []
        fraction: list[float] = []
        supply: list[float] = []

        def sender(d: float, frac: float) -> int:
            demand.append(d)
            fraction.append(frac)
            return size + len(demand) - 1

        def receiver(s: float) -> int:
            # Boundary supplies end the buffer, in reverse.
            supply.append(s)
            return -len(supply)

        def last(link: str) -> int:
            return row[link] * (cells + 1) + cells - 1

        def first(link: str) -> int:
            return row[link] * (cells + 1)

        m = (len(network.origins) + len(network.merges)
             + len(network.destinations))
        nd = len(network.diverges)
        # The face of each result column; -1 for a boundary-only end.
        at = [-1] * (3 * m + 3 * nd)
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
            at[col] = last(a.link) + 1
            return last(a.link)

        # Merge group rows (approach 1, approach 2, downstream) and beta.
        # With the empty second approach, min(d, max(s - 0.0, 0.5*s)) is
        # min(d, s) bit for bit.  Shares of 1/2 also keep an infinite d or
        # s exact: beta = 1 would give the empty approach 0*inf = NaN.
        empty = sender(0.0, 0.0)
        merges: list[tuple[int, int, int]] = []
        betas: list[float] = []
        for o in network.origins:
            at[2 * m + len(merges)] = first(o.link)
            origin_ends.append(len(merges))
            merges.append((sender(o.demand, o.fraction), empty,
                           first(o.link)))
            betas.append(0.5)
        for mg in network.merges:
            j = len(merges)
            at[2 * m + j] = first(mg.downstream)
            merges.append((approach(mg.approach1, j),
                           approach(mg.approach2, m + j),
                           first(mg.downstream)))
            betas.append(mg.beta)
        for d in network.destinations:
            at[len(merges)] = last(d.link) + 1
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
            at[3 * m + j] = up + 1
            branches = []
            for i, b in enumerate((dv.branch1, dv.branch2)):
                col = 3 * m + (1 + i) * nd + j
                if b.link is None:
                    branch_ends.append(col)
                    branches.append(receiver(b.supply))
                else:
                    at[col] = first(b.link)
                    branches.append(first(b.link))
            if dv.xi is None:
                # Commodity-driven: branch 1 carries all of commodity 1.
                diverges.append((up, up, *branches, one, empty))
            else:
                diverges.append((up, constant(dv.xi), *branches, up, up))

        self._mg_beta = np.array([betas, [1.0 - b for b in betas]])
        self._room = np.empty((2,) + self._mg_beta.shape)

        # Supply, demand and fraction side by side in one buffer, so that
        # a step gathers the operands of every row in one `take`.
        f0 = 2 * size + len(demand)
        buf = self._buf = np.concatenate([np.zeros(2 * size), demand,
                                          np.zeros(size), fraction,
                                          supply[::-1]])
        self._sd = buf[:2 * size]
        self._s, self._d = self._sd.reshape(2, size)
        self._frac = buf[f0:f0 + size]
        # Demands follow the supplies of the cells.
        rows = ([(size + a1, size + a2, down, f0 + a1, f0 + a2)
                 for a1, a2, down in merges],
                [(f0 + xi, size + up, b1, b2, f0 + up, f0 + m1, f0 + m2)
                 for up, xi, b1, b2, m1, m2 in diverges])
        # Operand by operand: d1 of every merge row, then d2, and so on;
        # the negative index of a boundary supply wraps to the buffer's end.
        self._program = np.array([i for group in rows for column in zip(
            *group) for i in column], dtype=np.intp) % len(buf)
        ops = self._ops = np.empty(5 * m + 7 * nd)
        mg, dv = ops[:5 * m].reshape(5, m), ops[5 * m:].reshape(7, nd)
        self._mg_rows, self._dv_rows = mg.T, dv.T
        self._d12, self._s3, self._f12 = mg[:2], mg[2], mg[3:]
        self._xi, self._bound = dv[0], dv[1:4]      # xi; d0, s1, s2
        self._f0, self._m12 = dv[4], dv[5:]
        self._shares = tuple(zip(betas, self._mg_beta[1].tolist()))
        self._scalar = m + nd <= _SCALAR_ROWS
        live = 3 * m + 3 * nd
        res = self._res = np.zeros((2, live))
        self._q_app = res[0, :2 * m].reshape(2, m)
        self._phi_app = res[1, :2 * m].reshape(2, m)
        self._q_down, self._phi_down = res[:, 2 * m:3 * m]
        self._q_up, self._phi_up = res[:, 3 * m:3 * m + nd]
        self._q_br = res[0, 3 * m + nd:].reshape(2, nd)
        self._phi_br = res[1, 3 * m + nd:].reshape(2, nd)
        self._split = np.empty((2, nd))         # (xi, 1 - xi)
        self._open = np.ones((3, nd), dtype=bool)

        # The face vector: q then phi of every cell's upstream face, then a
        # zero and q of the boundary-only ends, a zero and their phi.
        zero = 2 * size
        q_at = np.array(at + [zero])
        bound = np.flatnonzero(q_at < 0)
        q_at[bound] = zero + 1 + np.arange(len(bound))
        ends = np.array([q_at, q_at + np.where(q_at < size, size,
                                               len(bound) + 1)])
        faces = self._faces = np.zeros(zero + 2 + 2 * len(bound))
        self._flux = faces[:zero].reshape(2, n, cells + 1)
        self.q = self._flux[0]
        # Where the groups' result columns and the loop's [q, phi] of each
        # row's three ends go.
        self._scatter = np.ascontiguousarray(ends[:, :live])
        self._targets = np.concatenate([
            ends[:, j:j + 3 * g].reshape(2, 3, g).transpose(2, 0, 1).ravel()
            for j, g in ((0, m), (3 * m, nd))])
        self._bnd = ends[:, [live, *origin_ends, *approach_ends,
                             live, *dest_ends, *branch_ends]]
        self._n_src = 1 + len(origin_ends) + len(approach_ends)
        out = np.arange(cells, size, cells + 1)
        # Per step of `run`: the out-fluxes and the boundary ends.
        self._record = np.concatenate([[out, out + size], self._bnd], 1)
        # Fixed views the step reads and writes through.
        self._d_out, self._s_in = self._d[:-1], self._s[1:]
        self._frac_out = self._frac[:-1]
        self._q_inner, self._phi_inner = faces[1:size], faces[size + 1:zero]
        self._faces_up, self._faces_down = faces[:zero], faces[1:zero + 1]

    def step(self) -> None:
        """Advance one dt.

        Leaves the face fluxes in `q` (column 0 the flux entering each
        link, column -1 the flux leaving it); `boundary_totals` reads the
        step's boundary fluxes.
        """
        k, kj, frac, faces = self._flat_k, self._kj, self._frac, self._faces
        if self._triangular:
            # [s | d] = min([w | vf] * [kj - k | k], cap): the supply
            # min(cap, w*(kj - k)) and the demand min(vf*k, cap), bit for
            # bit, since cap is positive.
            np.subtract(kj, k, out=self._gap)
            np.multiply(self._wvf, self._gap_k, out=self._sd)
            np.minimum(self._sd, self._cap, out=self._sd)
        else:
            # (vf*lo)*(1 - lo/kj) with lo = min(k, kc); hi = max(k, kc)
            # likewise.
            side, fill, vf = self._side, self._fill, self._vf
            for extreme, out in ((np.minimum, self._d),
                                 (np.maximum, self._s)):
                extreme(k, self._kc, out=side)
                np.divide(side, kj, out=fill)
                np.subtract(1.0, fill, out=fill)
                np.multiply(vf, side, out=out)
                np.multiply(out, fill, out=out)
        frac.fill(0.0)
        occupied = np.greater(k, 0.0, out=self._occupied)
        np.divide(self._flat_k1, k, out=frac, where=occupied)
        # Every index is in range; 'clip' writes into `out` directly, where
        # the default mode would buffer it.
        self._buf.take(self._program, None, self._ops, "clip")
        # Every face from its upstream cell's demand and fraction and its
        # downstream cell's supply; the junctions overwrite the link ends.
        np.minimum(self._d_out, self._s_in, out=self._q_inner)
        np.multiply(self._frac_out, self._q_inner, out=self._phi_inner)

        if self._scalar:
            # The rows of both groups on Python floats, each operation with
            # the operands, in the order, of the groups below.  np.minimum
            # (a, b) is `a if a < b or a != a else b`, np.maximum likewise.
            # Each row's three ends give q then phi, in row order.
            out: list[float] = []
            for (b1, b2), (d1, d2, s3, f1, f2) in zip(
                    self._shares, self._mg_rows.tolist()):
                r, t = s3 - d2, b1 * s3
                r = r if r > t or r != r else t
                q1 = d1 if d1 < r or d1 != d1 else r
                r, t = s3 - d1, b2 * s3
                r = r if r > t or r != r else t
                q2 = d2 if d2 < r or d2 != d2 else r
                p1, p2 = f1 * q1, f2 * q2
                # Both sums start from 0.0, as np.add.reduce does.
                out += (q1, q2, (0.0 + q1) + q2, p1, p2, (0.0 + p1) + p2)
            for xi, d0, s1, s2, f0, f1, f2 in self._dv_rows.tolist():
                if not 0.0 <= xi <= 1.0:
                    raise _split_error(self._xi)
                # The minimum folds from inf, and min(inf, d0) is d0.
                q0, xi2 = d0, 1.0 - xi
                if xi > 0.0:
                    t = s1 / xi
                    q0 = q0 if q0 < t or q0 != q0 else t
                if xi2 > 0.0:
                    t = s2 / xi2
                    q0 = q0 if q0 < t or q0 != q0 else t
                q1, q2 = xi * q0, xi2 * q0
                out += (q0, q1, q2, f0 * q0, f1 * q1, f2 * q2)
            faces[self._targets] = out
        else:
            # The reductions pass (axis, dtype, out, keepdims, initial,
            # where) by position: on arrays this small, parsing keywords
            # costs about as much as the reduction itself.
            split, bound, open_ = self._split, self._bound, self._open
            split[0] = self._xi
            np.subtract(1.0, split[0], out=split[1])
            if not np.minimum.reduce(split, None, None, None, False,
                                     1.0) >= 0.0:
                raise _split_error(split[0])
            # (d0, s1/xi, s2/(1 - xi)); a branch with share 0 drops its
            # ratio constraint.
            np.greater(split, 0.0, out=open_[1:])
            np.divide(bound[1:], split, out=bound[1:], where=open_[1:])
            q0 = np.minimum.reduce(bound, 0, None, self._q_up, False, np.inf,
                                   open_)
            np.multiply(self._f0, q0, out=self._phi_up)
            np.multiply(split, q0, out=self._q_br)
            np.multiply(self._m12, self._q_br, out=self._phi_br)

            d12, s3 = self._d12, self._s3
            # room = max(s3 - (d2, d1), (beta, 1 - beta)*s3)
            room, share = self._room
            np.subtract(s3, d12[::-1], out=room)
            np.multiply(self._mg_beta, s3, out=share)
            np.maximum(room, share, out=room)
            q12 = np.minimum(d12, room, out=self._q_app)
            np.multiply(self._f12, q12, out=self._phi_app)
            # q1 + q2 equals min(d1+d2, s3); summing keeps the node
            # exactly conservative in floating point.  Both sums start
            # from 0.0, the first without `initial`, so -0.0 + -0.0 is
            # 0.0.
            np.add.reduce(q12, 0, None, self._q_down)
            np.add.reduce(self._phi_app, 0, None, self._phi_down, False,
                          0.0)
            faces[self._scatter] = self._res

        delta = np.subtract(self._faces_up, self._faces_down, out=self._delta)
        np.multiply(self._r, delta, out=delta)
        np.add(self._flat, delta, out=self._flat)
        self.t += self.dt

    def boundary_totals(self) -> tuple[float, float, float, float]:
        """Boundary totals (source q, source phi, sink q, sink phi) of the
        last step."""
        src, snk = self._boundary_sums(self._faces[self._bnd])
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

        Every `_BLOCK` steps, and at the end, the block's totals and
        conservation errors are derived as arrays (Bookkeeping, above).
        Once the last step of a block leaves the state bit for bit
        unchanged, the rest is filled in without stepping (Settled runs).
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
        state, flat, faces, add = self._state, self._flat, self._faces, np.add
        record, n = self._record, self._n
        block = min(n_steps, _BLOCK)
        sums = np.empty((block, 2, n))
        # Each step's out-fluxes, then its boundary ends.
        ends = np.empty((block,) + record.shape)
        # The state before the last step of a block, compared bitwise
        # (-0.0 differs from 0.0, equal NaN payloads match).
        before = np.empty_like(flat)
        bits, before_bits = flat.view(np.int64), before.view(np.int64)
        settled = False
        totals[0] = self._vehicles(add.reduce(state, 2))
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            for i in range(0 if settled else stop - start):
                if start + i == stop - 1:
                    before[...] = flat
                self.step()
                times[start + i] = self.t
                add.reduce(state, 2, None, sums[i])
                faces.take(record, None, ends[i], "clip")
            rows = ends[:stop - start]
            outflux[start:stop] = rows[:, 0, :n]
            now = totals[start + 1:stop + 1]
            now[...] = self._vehicles(sums[:stop - start])
            src, snk = self._boundary_sums(rows[..., n:])
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
