"""Property tests of the CTM kernel over random valid networks and states.

Networks come from the three builders (single diverge-merge unit, ring of
up to five stages, beltway), with either diagram shape, random cells per
link, a random CFL-valid dt and random initial cell densities and
commodity fractions.  Each example is a short horizon; the search is
derandomized so the suite cannot flake.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import (DmSpec, SimConfig, Simulation, build_beltway, build_dm,
                    build_dmn, diverge_flux, merge_flux)

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


def loaded(network, config, seed) -> Simulation:
    """Simulation with random cell densities in [0, k_j] and fractions."""
    sim = Simulation(network, config)
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

    Returns ({row: inflow}, {row: outflow}, source total, sink total).
    """
    net = sim.network
    row = {name: i for i, name in enumerate(sim.links)}
    demand = {n: ls.fd.demand(ls.k[-1]) for n, ls in sim.links.items()}
    supply = {n: ls.fd.supply(ls.k[0]) for n, ls in sim.links.items()}
    q_in, q_out = {}, {}
    src = snk = 0.0
    for o in net.origins:
        q_in[row[o.link]] = q = min(o.demand, supply[o.link])
        src += q
    for d in net.destinations:
        q_out[row[d.link]] = q = min(demand[d.link], d.supply)
        snk += q
    for dv in net.diverges:
        xi = (dv.xi if dv.xi is not None
              else end_fraction(sim.links[dv.upstream]))
        s1, s2 = (supply[b.link] if b.link is not None else b.supply
                  for b in (dv.branch1, dv.branch2))
        q0, q1, q2 = diverge_flux(demand[dv.upstream], s1, s2, xi)
        q_out[row[dv.upstream]] = q0
        for b, q in ((dv.branch1, q1), (dv.branch2, q2)):
            if b.link is not None:
                q_in[row[b.link]] = q
            else:
                snk += q
    for mg in net.merges:
        d1, d2 = (demand[a.link] if a.link is not None else a.demand
                  for a in (mg.approach1, mg.approach2))
        _, q1, q2 = merge_flux(d1, d2, supply[mg.downstream], mg.beta)
        for a, q in ((mg.approach1, q1), (mg.approach2, q2)):
            if a.link is not None:
                q_out[row[a.link]] = q
            else:
                src += q
        q_in[row[mg.downstream]] = q1 + q2
    return q_in, q_out, src, snk


# A subnormal xi overflows s1/xi to inf in both the scalar reference and the
# kernel; the ratio constraint then drops out of the min, as it should.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True)
@given(cases())
def test_kernel_invariants_and_junction_reference(case):
    network, config, seed = case
    sim = loaded(network, config, seed)
    kj = np.array([[ls.fd.jam_density] for ls in sim.links.values()])
    for _ in range(STEPS):
        q_in, q_out, src, snk = reference_fluxes(sim)
        got_src, _, got_snk, _ = sim.step()
        for i, q in q_in.items():
            assert sim.q[i, 0] == q
        for i, q in q_out.items():
            assert sim.q[i, -1] == q
        assert got_src == src and got_snk == snk
        assert np.all(sim.k >= 0.0) and np.all(sim.k <= kj)
        assert np.all(sim.k1 >= 0.0) and np.all(sim.k1 <= sim.k)

    first_sim = loaded(network, config, seed)
    again_sim = loaded(network, config, seed)
    first, again = first_sim.run(), again_sim.run()
    assert first.conservation_error < 1e-10
    assert first.conservation_error_c1 < 1e-10
    for name, ls in first_sim.links.items():
        assert np.array_equal(ls.k, sim.links[name].k)
        assert np.array_equal(ls.k1, sim.links[name].k1)
        assert np.array_equal(again_sim.links[name].k, ls.k)
        assert np.array_equal(first.outflux[name], again.outflux[name])
    assert np.array_equal(first.vehicles, again.vehicles)
    assert np.array_equal(first.vehicles_c1, again.vehicles_c1)
