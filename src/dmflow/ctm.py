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
    are merges whose second approach is EMPTY (demand 0, fraction 0), for
    which min(d, max(s - 0, s/2)) is min(d, s) bit for bit.
  * diverges: fixed or commodity-driven xi, link or sink branches.  A
    branch with share 0 drops its ratio constraint.

The junction buffer is [s | d | frac | constants]: the supply, demand and
fraction of every cell, ghosts included, then one list of constants
(boundary demands, supplies and fractions, fixed splits, merge shares,
0.0, 0.5 and 1.0).  A link's last cell gives its demand, fraction and
out-face, its first cell its supply and in-face, one index.  Each junction
compiles into one row of operand indices into that buffer, seven for a
merge (d1, d2, s3, beta, 1 - beta, f1, f2) and eight for a diverge (f0,
the two multipliers, xi, a slot for 1 - xi, d0, s1, s2), and the faces of
its three ends.  The rows form one program, laid out operand by operand,
so that the fractions of the merges' approaches and of the diverges' ends
lie side by side.  Each step gathers it with one `take` for both
evaluators, and every junction end's [q, phi] lands in the face vector:
on its face, or for a boundary-only end in a slot after the faces.  The
evaluator is chosen at construction by the number of rows (origins,
merges, destinations and diverges):

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
ends, and the block fold derives the same totals and errors a stepped run
would.  The time stamps do not depend on stepping: `run` sums them once,
in the order `t += dt` does.  A run that never settles pays one
state copy and one comparison per block.

Fractions.  A step gives only the cells with k > 0 a fresh commodity
fraction k1/k; every other cell keeps the one it last held, 0 after
construction or `load`.  No flux depends on that value: such a cell's
demand is exactly 0 (or NaN) in both diagram shapes, so every flux it
sends is 0 (or NaN), and so is every fraction times that flux, and a
commodity-driven diverge behind it sends q0 = 0 (or NaN) whatever split
in [0, 1] it reads.  `load` clears them, so that a split outside [0, 1]
left by a failed run does not outlive it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .fundamental import FundamentalDiagram, _make_diagram
from .network import LinkStart, Network

logger = logging.getLogger(__name__)

__all__ = [
    "SimConfig",
    "LinkState",
    "RunRecord",
    "Simulation",
    "diverge_flux",
    "merge_flux",
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
        for name in ("horizon", "free_flow_speed", "congested_wave_speed"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.dt is not None:
            object.__setattr__(self, "dt", float(self.dt))
        for name in ("free_flow_speed", "congested_wave_speed"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigurationError(f"{name} must be positive and "
                                         f"finite, got {getattr(self, name)}")
        _check_horizon(self.horizon)
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ConfigurationError(
                f"dt must be positive and finite, got {self.dt}")
        if self.shape not in ("triangular", "greenshields"):
            raise ConfigurationError(
                f"unknown diagram shape {self.shape!r}")


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

    def __init__(self, fd: FundamentalDiagram, dx: float, k: np.ndarray,
                 k1: np.ndarray):
        self.fd = fd
        self.dx = dx
        self.k = k
        self.k1 = k1


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
            ln.name: LinkState(fd, dx, self.k[i], self.k1[i])
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
        """Buffer, program and face slots of the junction rows.

        One buffer holds the supply, the demand and the fraction of every
        cell, ghosts included, [s | d | frac], then the constants: boundary
        demands, supplies and fractions, fixed splits, merge shares, 0.0,
        0.5 and 1.0.  A link sends from its last cell and receives into its
        first.  Each junction is one row of operand indices into that
        buffer: (d1, d2, s3, beta, 1 - beta, f1, f2) per merge and (f0, the
        two multipliers, split, a slot for 1 - split, d0, s1, s2) per
        diverge; the groups write 1 - split into its slot.  Origins and
        destinations are merges whose second approach is EMPTY, the
        constant 0.0 as demand and fraction, and whose two shares are one
        constant 0.5.  The program lays out the merge rows (origins,
        merges, destinations), then the diverge rows, operand by operand,
        so that the merges' fractions run on into the diverges'.

        Each row also lists the faces of its three ends (approaches 1 and
        2 and downstream, or upstream and branches 1 and 2), `None` for a
        boundary-only end, which gets one of the slots after the faces.
        The loop writes [q, phi] of every row's ends in row order; the
        groups' result array holds them end by end in the order of the
        fractions: merge approaches 1, approaches 2, diverge upstream
        ends, branches 1 and branches 2, then merge downstream ends.
        """
        n, cells = self._n, self.config.cells_per_link
        size = n * (cells + 1)
        consts: list[float] = []

        def const(value: float) -> int:
            consts.append(value)
            return 3 * size + len(consts) - 1

        def tail(link: str) -> tuple[int, int, int]:
            """Demand, fraction and out-face of the link's last cell."""
            c = row[link] * (cells + 1) + cells - 1
            return size + c, 2 * size + c, c + 1

        def head(link: str) -> int:
            """Supply and in-face of the link's first cell: one index."""
            return row[link] * (cells + 1)

        # EMPTY's demand and fraction, and the multipliers of a
        # commodity-driven diverge.
        zero, one = const(0.0), const(1.0)
        # The faces of each row's three ends, and the positions there of
        # the boundary ends, in the order the totals accumulate them.
        ends: list[int | None] = []
        sources: list[int] = []
        sinks: list[int] = []

        def boundary(ends_of: list[int]) -> None:
            ends_of.append(len(ends))
            ends.append(None)

        def sender(a: str | float) -> tuple[int, int]:
            """Demand and fraction of a merge approach."""
            if not isinstance(a, str):
                boundary(sources)
                return const(a), zero
            d, f, face = tail(a)
            ends.append(face)
            return d, f

        def receiver(b: str | float) -> int:
            """Supply of a diverge branch."""
            if not isinstance(b, str):
                boundary(sinks)
                return const(b)
            ends.append(head(b))
            return head(b)

        # With the empty second approach, min(d, max(s - 0.0, 0.5*s)) is
        # min(d, s) bit for bit.  Shares of 1/2 also keep an infinite d or
        # s exact: beta = 1 would give the empty approach 0*inf = NaN.
        half = const(0.5)
        merges: list[tuple[int, ...]] = []
        for o in network.origins:
            boundary(sources)
            ends += (None, head(o.link))    # EMPTY, downstream
            merges.append((const(o.demand), zero, head(o.link), half, half,
                           const(o.fraction), zero))
        for mg in network.merges:
            (d1, f1), (d2, f2) = sender(mg.approach1), sender(mg.approach2)
            ends.append(head(mg.downstream))
            merges.append((d1, d2, head(mg.downstream), const(mg.beta),
                           const(1.0 - mg.beta), f1, f2))
        for dst in network.destinations:
            d, f, face = tail(dst.link)
            ends += (face, None)            # approach, EMPTY
            boundary(sinks)
            merges.append((d, zero, const(dst.supply), half, half, f, zero))
        diverges: list[tuple[int, ...]] = []
        for dv in network.diverges:
            d0, f0, face = tail(dv.upstream)
            ends.append(face)
            s1, s2 = receiver(dv.branch1), receiver(dv.branch2)
            # The split's second operand is a slot for 1 - xi.
            if dv.xi is None:
                # Commodity-driven: branch 1 carries all of commodity 1.
                diverges.append((f0, one, zero, f0, zero, d0, s1, s2))
            else:
                diverges.append((f0, f0, f0, const(dv.xi), zero, d0, s1, s2))
        m, nd = len(merges), len(diverges)
        self._room = np.empty((2, 2, m))

        # Supply, demand and fraction side by side with the constants, so
        # that a step gathers the operands of every row in one `take`.
        buf = self._buf = np.concatenate([np.zeros(3 * size), consts])
        self._sd = buf[:2 * size]
        self._s, self._d, self._frac = buf[:3 * size].reshape(3, size)
        # Operand by operand: d1 of every merge row, then d2, and so on.
        self._program = np.array([i for group in (merges, diverges)
                                  for column in zip(*group) for i in column],
                                 dtype=np.intp)
        ops = self._ops = np.empty(7 * m + 8 * nd)
        mg, dv = ops[:7 * m].reshape(7, m), ops[7 * m:].reshape(8, nd)
        self._mg_rows, self._dv_rows = mg.T, dv.T
        self._d12, self._s3 = mg[:2], mg[2]
        self._b12 = mg[3:5]                         # beta, 1 - beta
        self._split, self._bound = dv[3:5], dv[5:]  # xi, 1 - xi; d0, s1, s2
        # The ends with a fraction: merge approaches 1 and 2, then diverge
        # upstream ends, branches 1 and branches 2, whose fractions
        # (f1, f2, f0 and the two multipliers) lie side by side.
        fed = 2 * m + 3 * nd
        self._fracs = ops[5 * m:5 * m + fed]
        self._scalar = m + nd <= _SCALAR_ROWS
        live = 3 * m + 3 * nd
        # [q, phi] of those ends, then of the merges' downstream ends.
        res = self._res = np.zeros((2, live))
        self._q_fed, self._phi_fed = res[:, :fed]
        self._q_app = res[0, :2 * m].reshape(2, m)
        self._app = res[:, :2 * m].reshape(2, 2, m)
        self._q_up = res[0, 2 * m:2 * m + nd]
        self._q_br = res[0, 2 * m + nd:fed].reshape(2, nd)
        self._down = res[:, fed:]
        self._open = np.ones((3, nd), dtype=bool)

        # The face vector: q then phi of every cell's upstream face, then a
        # zero and q of the boundary-only ends, a zero and their phi.  The
        # slot array holds [q, phi] of every end in row order, then the
        # zeros.
        nf = 2 * size
        bound = [i for i, face in enumerate(ends) if face is None]
        q_at = np.array([0 if face is None else face for face in ends]
                        + [nf])
        q_at[bound] = nf + 1 + np.arange(len(bound))
        slots = np.array([q_at, q_at + np.where(q_at < size, size,
                                                len(bound) + 1)])
        faces = self._faces = np.zeros(nf + 2 + 2 * len(bound))
        self._flux = faces[:nf].reshape(2, n, cells + 1)
        self.q = self._flux[0]
        # The loop's [q, phi] of each row's three ends, and the groups'
        # result columns, end by end: merge approaches, diverge ends, then
        # merge downstream ends.
        self._targets = slots[:, :live].reshape(2, m + nd, 3).transpose(
            1, 0, 2).ravel()
        mg_ends = slots[:, :3 * m].reshape(2, m, 3).transpose(0, 2, 1)
        dv_ends = slots[:, 3 * m:live].reshape(2, nd, 3).transpose(0, 2, 1)
        self._scatter = np.concatenate([
            mg_ends[:, :2].reshape(2, 2 * m), dv_ends.reshape(2, 3 * nd),
            mg_ends[:, 2]], 1)
        self._bnd = slots[:, [live, *sources, live, *sinks]]
        self._n_src = 1 + len(sources)
        out = np.arange(cells, size, cells + 1)
        # Per step of `run`: the out-fluxes and the boundary ends.
        self._record = np.concatenate([[out, out + size], self._bnd], 1)
        # Fixed views the step reads and writes through.
        self._d_out, self._s_in = self._d[:-1], self._s[1:]
        self._frac_out = self._frac[:-1]
        self._q_inner, self._phi_inner = faces[1:size], faces[size + 1:nf]
        self._faces_up, self._faces_down = faces[:nf], faces[1:nf + 1]

    def load(self, starts: dict[str, LinkStart]) -> None:
        """Load starts given in flows into the named links, each on its own
        diagram, and reset the clock and every cell's commodity fraction.

        Each link's densities are the inverses `FundamentalDiagram.density`
        of its flow on the free-flow and the congested branch.  A uniform
        link (l = 0 or 1) holds exactly the density of its branch; a
        standing shock holds the exact cell averages of its two-density
        profile.  Either way k is written once and k1 = fraction * k.
        """
        for name in starts:
            if name not in self.links:
                raise ConfigurationError(f"unknown link {name!r}")
        self.t = 0.0
        self._frac.fill(0.0)
        cells = self.config.cells_per_link
        lengths = {ln.name: ln.length for ln in self.network.links}
        for name, start in starts.items():
            ls, l = self.links[name], start.l
            under, over = (ls.fd.density(start.q, congested)
                           for congested in (False, True))
            if l in (0.0, 1.0):
                ls.k.fill(over if l else under)
            else:
                edges = np.arange(cells + 1) * ls.dx
                uc_len = (np.clip((1.0 - l) * lengths[name], edges[:-1],
                                  edges[1:]) - edges[:-1])
                ls.k[:] = (uc_len * under + (ls.dx - uc_len) * over) / ls.dx
            ls.k1[:] = start.fraction * ls.k

    def step(self) -> None:
        """Advance one dt.

        Leaves the face fluxes in `q` (column 0 the flux entering each
        link, column -1 the flux leaving it).
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
            for d1, d2, s3, b1, b2, f1, f2 in self._mg_rows.tolist():
                r, t = s3 - d2, b1 * s3
                r = r if r > t or r != r else t
                q1 = d1 if d1 < r or d1 != d1 else r
                r, t = s3 - d1, b2 * s3
                r = r if r > t or r != r else t
                q2 = d2 if d2 < r or d2 != d2 else r
                p1, p2 = f1 * q1, f2 * q2
                # Both sums start from 0.0, as np.add.reduce does.
                out += (q1, q2, (0.0 + q1) + q2, p1, p2, (0.0 + p1) + p2)
            for f0, f1, f2, xi, _, d0, s1, s2 in self._dv_rows.tolist():
                if not 0.0 <= xi <= 1.0:
                    raise _split_error(self._split[0])
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
            np.multiply(split, q0, out=self._q_br)

            d12, s3 = self._d12, self._s3
            # room = max(s3 - (d2, d1), (beta, 1 - beta)*s3)
            room, share = self._room
            np.subtract(s3, d12[::-1], out=room)
            np.multiply(self._b12, s3, out=share)
            np.maximum(room, share, out=room)
            np.minimum(d12, room, out=self._q_app)
            np.multiply(self._fracs, self._q_fed, out=self._phi_fed)
            # q1 + q2 equals min(d1+d2, s3); summing keeps the node
            # exactly conservative in floating point.  Both sums, of q and
            # of phi, start from 0.0, so -0.0 + -0.0 is 0.0.
            np.add.reduce(self._app, 1, None, self._down, False, 0.0)
            faces[self._scatter] = self._res

        delta = np.subtract(self._faces_up, self._faces_down, out=self._delta)
        np.multiply(self._r, delta, out=delta)
        np.add(self._flat, delta, out=self._flat)
        self.t += self.dt

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
        # Step i ends at t0 + dt + ... + dt, summed in the order in which
        # `step` adds t += dt; accumulate adds in order too.
        times.fill(self.dt)
        times[:1] += self.t
        add.accumulate(times, out=times)
        totals[0] = self._vehicles(add.reduce(state, 2))
        for start in range(0, n_steps, _BLOCK):
            stop = min(start + _BLOCK, n_steps)
            for i in range(0 if settled else stop - start):
                if start + i == stop - 1:
                    before[...] = flat
                self.step()
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
                # full, so its last rows are that step's.
                settled = True
                sums[:] = sums[-1]
                ends[:] = ends[-1]
                logger.debug("run: state settled at step %d; %d steps "
                             "filled without stepping", stop, n_steps - stop)
        if n_steps:
            self.t = float(times[-1])
        # np.max keeps a NaN step error, where Python's max would drop it.
        cons, cons_c1 = np.max(errors, axis=0, initial=0.0).tolist()
        return RunRecord(self.dt, times,
                         {name: outflux[:, i]
                          for i, name in enumerate(self.links)},
                         totals[1:, 0], cons, cons_c1)

