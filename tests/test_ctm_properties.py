"""Property tests of the CTM kernel over random valid networks and states.

Networks come from the three builders (single diverge-merge unit, ring of
up to five stages, beltway), with either diagram shape, random cells per
link, a random CFL-valid dt and random initial cell densities and
commodity fractions.  Each example is a short horizon; the search is
derandomized so the suite cannot flake.
"""

import logging
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import DmSpec, DomainError, SimConfig, Simulation, build_dm
from dmflow import ctm
from dmflow.ctm import _BLOCK, diverge_flux, merge_flux
from dmflow.network import build_beltway, build_dmn
from dmflow.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent

STEPS = 25

unit = st.floats(0.0, 1.0)


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(["dm", "dmn", "beltway"]))
    if kind == "dm":
        caps = draw(st.lists(st.floats(0.5, 3.0), min_size=4, max_size=4))
        lengths = draw(st.lists(st.floats(0.5, 2.0), min_size=4,
                                max_size=4))
        spec = DmSpec(*caps, beta=draw(unit), xi=draw(unit),
                      lengths=tuple(lengths))
        return build_dm(spec)
    if kind == "dmn":
        return build_dmn(draw(st.integers(1, 5)), xi=draw(unit),
                         scale=draw(st.floats(0.5, 2.0)), beta=draw(unit))
    return build_beltway(draw(st.integers(1, 4)),
                         beta=draw(st.floats(0.0, 0.95)),
                         xi=draw(st.floats(0.0, 0.95)),
                         segment_length=draw(st.floats(0.5, 2.0)))


@st.composite
def cases(draw):
    network = draw(networks())
    shape = draw(st.sampled_from(["triangular", "greenshields"]))
    cells = draw(st.integers(1, 8))
    probe = Simulation(network, SimConfig(cells_per_link=cells, shape=shape))
    cfl_limit = probe.dt / 0.9
    dt = draw(st.floats(0.05, 0.99)) * cfl_limit
    config = SimConfig(cells_per_link=cells, dt=dt, horizon=STEPS * dt,
                       shape=shape)
    seed = draw(st.integers(0, 2**32 - 1))
    return network, config, seed


def loaded(network, config, seed, scalar: bool | None = None) -> Simulation:
    """Simulation with random cell densities in [0, k_j] and fractions, on
    the junction evaluator `scalar` selects (see `evaluated`), by default
    the one its size selects."""
    sim = (Simulation(network, config) if scalar is None
           else evaluated(network, config, scalar))
    rng = np.random.default_rng(seed)
    for ls in sim.links.values():
        empty = rng.random(config.cells_per_link) < 0.3
        densities = np.where(empty, 0.0, rng.uniform(
            0.0, ls.fd.jam_density, config.cells_per_link))
        ls.set_cells(densities, float(rng.choice([0.0, 1.0, rng.random()])))
    return sim


def end_fraction(ls) -> float:
    return ls.k1[-1] / ls.k[-1] if ls.k[-1] > 0.0 else 0.0


def reference_fluxes(sim):
    """Boundary fluxes the scalar junction models give for the state now.

    Returns ({row: inflow}, {row: outflow}, (source total, its commodity-1
    part, sink total, its commodity-1 part)); each total accumulates from
    0.0 in endpoint order: origins, then constant-demand approaches;
    destinations, then sink branches.
    """
    net = sim.network
    row = {name: i for i, name in enumerate(sim.links)}
    demand = {n: ls.fd.demand(ls.k[-1]) for n, ls in sim.links.items()}
    supply = {n: ls.fd.supply(ls.k[0]) for n, ls in sim.links.items()}
    q_in, q_out = {}, {}
    src = src1 = snk = snk1 = 0.0
    for o in net.origins:
        q_in[row[o.link]] = q = min(o.demand, supply[o.link])
        src += q
        src1 += o.fraction * q
    for d in net.destinations:
        q_out[row[d.link]] = q = min(demand[d.link], d.supply)
        snk += q
        snk1 += end_fraction(sim.links[d.link]) * q
    for dv in net.diverges:
        f0 = end_fraction(sim.links[dv.upstream])
        xi = dv.xi if dv.xi is not None else f0
        s1, s2 = (supply[b.link] if b.link is not None else b.supply
                  for b in (dv.branch1, dv.branch2))
        q0, q1, q2 = diverge_flux(demand[dv.upstream], s1, s2, xi)
        q_out[row[dv.upstream]] = q0
        # A commodity-driven split sends all of commodity 1 to branch 1.
        phi1, phi2 = (q1, 0.0) if dv.xi is None else (f0 * q1, f0 * q2)
        for b, q, phi in ((dv.branch1, q1, phi1), (dv.branch2, q2, phi2)):
            if b.link is not None:
                q_in[row[b.link]] = q
            else:
                snk += q
                snk1 += phi
    for mg in net.merges:
        d1, d2 = (demand[a.link] if a.link is not None else a.demand
                  for a in (mg.approach1, mg.approach2))
        _, q1, q2 = merge_flux(d1, d2, supply[mg.downstream], mg.beta)
        for a, q in ((mg.approach1, q1), (mg.approach2, q2)):
            if a.link is not None:
                q_out[row[a.link]] = q
            else:
                src += q
                src1 += 0.0 * q
        q_in[row[mg.downstream]] = q1 + q2
    return q_in, q_out, (src, src1, snk, snk1)


def interior_fluxes(sim) -> list[np.ndarray]:
    """Each link's face fluxes between neighbouring cells for the state
    now, in scalar form: min(demand(upstream cell), supply(downstream))."""
    return [np.array([min(ls.fd.demand(up), ls.fd.supply(down))
                      for up, down in zip(ls.k[:-1].tolist(),
                                          ls.k[1:].tolist())])
            for ls in sim.links.values()]


def updated_state(sim, k: np.ndarray, k1: np.ndarray) -> np.ndarray:
    """The cells the step just taken should leave, in scalar form from the
    pre-step densities and the step's face fluxes: k + r*(q_up - q_down)
    with r = dt/dx, and likewise k1 with the commodity fluxes."""
    q, phi = sim._flux
    cells = []
    for i, ls in enumerate(sim.links.values()):
        r = sim.dt / ls.dx
        for density, flux in ((k[i], q[i]), (k1[i], phi[i])):
            up, down = flux[:-1].tolist(), flux[1:].tolist()
            cells.append([x + r * (u - d)
                          for x, u, d in zip(density.tolist(), up, down)])
    n = len(sim.links)
    return np.array(cells).reshape(n, 2, -1).transpose(1, 0, 2)


def link_totals(sim) -> tuple[float, float]:
    """Vehicles (all, commodity 1): each link's cells times dx, summed in
    link order."""
    per_link = [(ls.k.sum() * ls.dx, ls.k1.sum() * ls.dx)
                for ls in sim.links.values()]
    tot, tot1 = per_link[0]
    for k, k1 in per_link[1:]:
        tot, tot1 = tot + k, tot1 + k1
    return float(tot), float(tot1)


# A subnormal xi overflows s1/xi to inf in both the scalar reference and the
# kernel; the ratio constraint then drops out of the min, as it should.  The
# cases draw both diagram shapes and step on both junction evaluators;
# interior faces and the cell update are compared bit for bit.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_kernel_invariants_and_junction_reference(case):
    network, config, seed = case
    sims = [loaded(network, config, seed, scalar) for scalar in (True, False)]
    kj = np.array([[ls.fd.jam_density] for ls in sims[0].links.values()])
    for sim in sims:
        for _ in range(STEPS):
            q_in, q_out, (src, _, snk, _) = reference_fluxes(sim)
            inner = interior_fluxes(sim)
            k, k1 = sim.k.copy(), sim.k1.copy()
            sim.step()
            got_src, _, got_snk, _ = sim.boundary_totals()
            for i, q in q_in.items():
                assert sim.q[i, 0] == q
            for i, q in q_out.items():
                assert sim.q[i, -1] == q
            for i, q in enumerate(inner):
                assert sim.q[i, 1:-1].tobytes() == q.tobytes()
            assert (sim._state.tobytes()
                    == updated_state(sim, k, k1).tobytes())
            assert got_src == src and got_snk == snk
            assert np.all(sim.k >= 0.0) and np.all(sim.k <= kj)
            assert np.all(sim.k1 >= 0.0) and np.all(sim.k1 <= sim.k)

    first_sim = loaded(network, config, seed)
    again_sim = loaded(network, config, seed)
    first, again = first_sim.run(), again_sim.run()
    assert first.conservation_error < 1e-10
    assert first.conservation_error_c1 < 1e-10
    for name, ls in first_sim.links.items():
        for sim in sims:
            assert np.array_equal(ls.k, sim.links[name].k)
            assert np.array_equal(ls.k1, sim.links[name].k1)
        assert np.array_equal(again_sim.links[name].k, ls.k)
        assert np.array_equal(again_sim.links[name].k1, ls.k1)
        assert np.array_equal(first.outflux[name], again.outflux[name])
    assert np.array_equal(first.vehicles, again.vehicles)


def ghosts(sim) -> np.ndarray:
    """The ghost slot behind each link's cells, in both rows of the flat
    state."""
    return sim._flat.reshape(2, len(sim.links), -1)[..., -1]


# The overflow is the subnormal-xi case of the kernel test above.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(cases(), st.booleans())
def test_ghost_cells_stay_zero_and_the_views_reach_the_step(case, scalar):
    # The ghost's dt/dx is 0, so whatever faces it sits between it keeps
    # +0.0; the public views are windows on the arrays the step updates.
    network, config, seed = case
    sim = loaded(network, config, seed, scalar)
    assert sim._scalar is scalar
    cells = [sim.k, sim.k1, *(v for ls in sim.links.values()
                              for v in (ls.k, ls.k1))]
    assert all(np.shares_memory(view, sim._flat) for view in cells)
    assert np.shares_memory(sim.q, sim._faces)
    for _ in range(STEPS):
        sim.step()
        assert ghosts(sim).tobytes() == bytes(ghosts(sim).nbytes)


def reference_bookkeeping(sim, n_steps):
    """Vehicles after each step and the largest per-step conservation
    errors (all, commodity 1), accounted step by step in Python floats."""
    prev, prev1 = link_totals(sim)
    vehicles, errors, errors_c1 = [], [0.0], [0.0]
    for _ in range(n_steps):
        _, _, (src, src1, snk, snk1) = reference_fluxes(sim)
        sim.step()
        tot, tot1 = link_totals(sim)
        vehicles.append(tot)
        errors.append(abs(tot - prev - sim.dt * (src - snk)))
        errors_c1.append(abs(tot1 - prev1 - sim.dt * (src1 - snk1)))
        prev, prev1 = tot, tot1
    return np.array(vehicles), max(errors), max(errors_c1)


def assert_bookkeeping_matches(record, sim):
    vehicles, error, error_c1 = reference_bookkeeping(sim, len(record.times))
    assert record.vehicles.tobytes() == vehicles.tobytes()
    assert record.conservation_error == error
    assert record.conservation_error_c1 == error_c1


# The overflow is the subnormal-xi case of the test above.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_run_bookkeeping_matches_step_by_step_reference(case):
    network, config, seed = case
    record = loaded(network, config, seed).run()
    assert len(record.times) == STEPS
    assert_bookkeeping_matches(record, loaded(network, config, seed))


@pytest.mark.parametrize("network", [
    build_dm(DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)),
    build_beltway(3, beta=0.3, xi=0.2)], ids=["dm", "beltway"])
def test_run_bookkeeping_across_blocks(network):
    # Totals are folded in every _BLOCK steps; end in a partial block.
    config = SimConfig(cells_per_link=4)
    steps = 2 * _BLOCK + 7
    dt = Simulation(network, config).dt
    config = replace(config, horizon=steps * dt)
    record = loaded(network, config, 7).run()
    assert len(record.times) == steps
    assert_bookkeeping_matches(record, loaded(network, config, 7))


def stepped(sim, n_steps):
    """Times and out-fluxes of `n_steps` plain `step()` calls."""
    times = np.empty(n_steps)
    outflux = np.empty((n_steps, len(sim.links)))
    for i in range(n_steps):
        sim.step()
        times[i] = sim.t
        outflux[i] = sim.q[:, -1]
    return times, outflux


# The overflow is the subnormal-xi case of the kernel test above.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(cases(), st.booleans())
def test_run_matches_a_plain_step_loop(case, empty):
    # Long enough for most networks started empty to settle, so that run()
    # fills in later blocks without stepping; the records must not show it.
    network, config, seed = case
    steps = 2 * _BLOCK + 7
    config = replace(config, horizon=steps * config.dt)

    def start():
        if empty:
            return Simulation(network, config)
        return loaded(network, config, seed)

    sim, plain = start(), start()
    record = sim.run()
    times, outflux = stepped(plain, steps)
    assert record.times.tobytes() == times.tobytes()
    for i, name in enumerate(sim.links):
        assert record.outflux[name].tobytes() == outflux[:, i].tobytes()
    for got, want in ((sim.k, plain.k), (sim.k1, plain.k1),
                      (sim.q, plain.q)):
        assert got.tobytes() == want.tobytes()
    assert sim.t == plain.t
    assert_bookkeeping_matches(record, start())


# The overflow is the subnormal-xi case of the kernel test above.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases(), st.floats(0.0, 1e6))
def test_step_does_not_read_the_time(case, t):
    # run() fills in a settled run on the strength of this: a step is a
    # function of the state alone.
    network, config, seed = case
    sim, later = loaded(network, config, seed), loaded(network, config, seed)
    later.t = t
    sim.step()
    later.step()
    for got, want in ((later._state, sim._state), (later._flux, sim._flux),
                      (later._faces, sim._faces)):
        assert got.tobytes() == want.tobytes()


def evaluated(network, config, scalar: bool) -> Simulation:
    """A simulation forced onto the scalar (Python float) or the vector
    (numpy group) junction evaluator through the private row threshold."""
    threshold = ctm._SCALAR_ROWS
    ctm._SCALAR_ROWS = math.inf if scalar else -1
    try:
        return Simulation(network, config)
    finally:
        ctm._SCALAR_ROWS = threshold


def edged(network, draw):
    """`network` with some boundary demands and supplies made infinite and
    some merge shares and fixed splits made -0.0."""

    def maybe(x, edge=math.inf):
        return edge if draw(st.booleans()) else x

    def approach(a):
        return a if a.link is not None else replace(a, demand=maybe(a.demand))

    def branch(b):
        return b if b.link is not None else replace(b, supply=maybe(b.supply))

    def diverge(dv):
        xi = dv.xi if dv.xi is None else maybe(dv.xi, -0.0)
        return replace(dv, branch1=branch(dv.branch1),
                       branch2=branch(dv.branch2), xi=xi)

    return replace(
        network,
        origins=tuple(replace(o, demand=maybe(o.demand))
                      for o in network.origins),
        destinations=tuple(replace(d, supply=maybe(d.supply))
                           for d in network.destinations),
        diverges=tuple(diverge(dv) for dv in network.diverges),
        merges=tuple(replace(mg, approach1=approach(mg.approach1),
                             approach2=approach(mg.approach2),
                             beta=maybe(mg.beta, -0.0))
                     for mg in network.merges))


@st.composite
def evaluator_cases(draw):
    """A network on either side of the row threshold, with edge values
    (`edged`), a config, a seed for the cells and a fault to plant: none,
    a NaN density, or a commodity-driven split outside [0, 1] or NaN."""
    if draw(st.booleans()):
        network = draw(networks())
    else:
        network = build_dmn(draw(st.integers(1, ctm._SCALAR_ROWS // 4 + 2)),
                            xi=draw(unit), beta=draw(unit))
    network = edged(network, draw)
    shape = draw(st.sampled_from(["triangular", "greenshields"]))
    config = SimConfig(cells_per_link=draw(st.integers(1, 6)), shape=shape)
    fault = draw(st.sampled_from([None, None, "nan", 1.5, -0.5, math.nan]))
    return network, config, draw(st.integers(0, 2**32 - 1)), fault


def tied_cells(sim, seed, fault) -> None:
    """Cells empty (+0.0 or -0.0), jammed or in between, with fractions
    0.0, -0.0, 1.0 or random, so that junctions meet ties of signed zeros.
    Then the fault: a NaN in one cell, or the split planted behind each
    commodity-driven diverge with probability 1/2."""
    rng = np.random.default_rng(seed)
    for ls in sim.links.values():
        n = len(ls.k)
        kj = ls.fd.jam_density
        ls.k[:] = np.array([0.0, -0.0, kj])[rng.integers(0, 3, n)]
        mixed = rng.random(n) < 0.25
        ls.k[mixed] = rng.uniform(0.0, kj, mixed.sum())
        fraction = np.array([0.0, -0.0, 1.0, rng.random()])[
            rng.integers(0, 4, n)]
        ls.k1[:] = fraction * ls.k
    if fault == "nan":
        link = list(sim.links.values())[rng.integers(len(sim.links))]
        link.k[rng.integers(len(link.k))] = math.nan
    elif fault is not None:
        for dv in sim.network.diverges:
            if dv.xi is None and rng.random() < 0.5:
                end = sim.links[dv.upstream]
                end.k[-1] = 0.5 * end.fd.jam_density
                end.k1[-1] = fault * end.k[-1]


# Python float division does not warn where numpy's reports an overflow:
# the subnormal-xi case of the kernel test above.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None, derandomize=True)
@given(evaluator_cases())
def test_scalar_and_vector_junctions_agree_bit_for_bit(case):
    network, config, seed, fault = case
    sims = [evaluated(network, config, scalar) for scalar in (True, False)]
    assert [sim._scalar for sim in sims] == [True, False]
    for sim in sims:
        tied_cells(sim, seed, fault)
    for _ in range(STEPS):
        errors = []
        for sim in sims:
            try:
                sim.step()
                errors.append(None)
            except DomainError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        scalar, vector = sims
        for got, want in ((scalar._state, vector._state),
                          (scalar._flux, vector._flux),
                          (scalar._faces, vector._faces)):
            assert got.tobytes() == want.tobytes()
        if errors[0] is not None:
            assert fault not in (None, "nan")
            break


@pytest.fixture
def step_calls(monkeypatch):
    """Count `Simulation.step` calls, the way perfbench's probe wraps
    `Simulation.run`."""
    calls = []
    step = Simulation.step

    def counted(self):
        calls.append(None)
        step(self)

    monkeypatch.setattr(Simulation, "step", counted)
    return calls


@pytest.mark.parametrize("path,xi,steps,calls", [
    # Settled by step 165: the block that ends at step 256 sees it.
    ("scenarios/dm_bifurcation.yaml", 0.8, 8889, _BLOCK),
    # Oscillating runs step all the way.
    ("scenarios/dm_classic.yaml", 0.45, 8889, 8889),
    ("perfbench/scenarios/ring20.yaml", None, 1000, 1000),
], ids=["dm_bifurcation-0.8", "dm_classic-0.45", "ring20"])
def test_run_stops_stepping_once_settled(path, xi, steps, calls,
                                         step_calls):
    record = load_scenario(ROOT / path, xi).simulation().run()
    assert len(record.times) == steps
    assert len(step_calls) == calls


def test_run_logs_progress_and_settling_at_debug(caplog):
    sim = load_scenario(ROOT / "scenarios/dm_bifurcation.yaml",
                        0.8).simulation()
    with caplog.at_level(logging.DEBUG, logger="dmflow.ctm"):
        sim.run()
    lines = [r.getMessage() for r in caplog.records
             if r.name == "dmflow.ctm"]
    blocks = [f"run: {min(stop, 8889)} of 8889 steps"
              for stop in range(_BLOCK, 8889 + _BLOCK, _BLOCK)]
    progress = [line for line in lines if " of 8889 steps" in line]
    assert [line.split(",")[0] for line in progress] == blocks
    assert progress[0] == "run: 256 of 8889 steps, t = 11.52"
    assert progress[-1] == "run: 8889 of 8889 steps, t = 400.005"
    assert ("run: state settled at step 256; 8633 steps filled without "
            "stepping") in lines
