"""Stationary starts: ring and beltway starts pinned by one sha256, DM
starts against the cell-average profile they were first written as, and
the catalog's threshold rows held by the simulator."""

import hashlib
import itertools
import random

import numpy as np
import pytest

from dmflow import DmSpec, DomainError, SimConfig, Simulation, build_dm
from dmflow.network import (BeltwaySpec, DmnSpec, LinkRegime, beltway_start,
                            build_beltway, build_dmn, dmn_start,
                            stationary_start, stationary_states)
from test_acceptance import _persistence_cases
from test_network import patterns

CONFIGS = (SimConfig(),
           SimConfig(cells_per_link=13, free_flow_speed=0.7,
                     congested_wave_speed=0.3),
           SimConfig(shape="greenshields", free_flow_speed=0.7))
RINGS = [DmnSpec(n, xi, scale) for n, xi, scale in itertools.product(
    (1, 2, 3), (0.34, 0.4, 0.45, 0.49), (0.5, 1.0, 3.0))]
BELTWAYS = [(BeltwaySpec(0.3, 0.2, 4), 0.8),
            (BeltwaySpec(0.3, 0.2, 4), 0.0),
            (BeltwaySpec(0.3, 0.2, 1), 0.5),
            (BeltwaySpec(0.5, 0.1, 2), 0.99),
            (BeltwaySpec(0.1, 0.6, 3), 0.25),
            (BeltwaySpec(0.3, 0.2, 2, ring_capacity=1.5), 1.2),
            (BeltwaySpec(0.3, 0.2, 2, ring_capacity=3.0), 2.9),
            (BeltwaySpec(0.3, 0.2, 2, segment_length=0.7), 0.6),
            (BeltwaySpec(0.0, 0.0, 1, 2.5, 1.3), 1.7),
            (BeltwaySpec(0.9, 0.9, 3, 0.4, 2.0), 0.1)]
DIGEST = "cb570210d9430f3cb6cc7fe1359b870c463c43441d9c43cf79a5759b1eb45229"


def ring_loaded(spec: DmnSpec, config: SimConfig) -> Simulation:
    sim = Simulation(build_dmn(spec), config)
    sim.load(dmn_start(spec))
    return sim


def test_ring_start_exists_up_to_half():
    ring_loaded(DmnSpec(1, 0.5), SimConfig())
    with pytest.raises(DomainError,
                       match=r"symmetric ring start needs xi <= 0\.5, "
                             r"got xi = 0\.6"):
        dmn_start(DmnSpec(1, 0.6))


def beltway_loaded(spec: BeltwaySpec, flow: float,
                   config: SimConfig) -> Simulation:
    sim = Simulation(build_beltway(spec), config)
    sim.load(beltway_start(spec, flow))
    return sim


def test_ring_and_beltway_starts_match_their_digest():
    digest = hashlib.sha256()
    for config in CONFIGS:
        sims = ([ring_loaded(spec, config) for spec in RINGS]
                + [beltway_loaded(spec, flow, config)
                   for spec, flow in BELTWAYS])
        for sim in sims:
            assert sim.t == 0.0
            digest.update(np.ascontiguousarray(sim._flat).tobytes())
    assert digest.hexdigest() == DIGEST


def dm_cases():
    """Criterion 07's catalog states, then every catalog state of random
    specs with random link lengths and ZS fractions."""
    cases = list(_persistence_cases())
    rng = random.Random(5)
    while len(cases) < 150:
        c3 = rng.uniform(0.5, 3.0)
        spec = DmSpec(c3 * rng.uniform(1.0, 2.0), rng.uniform(0.3, 2.0),
                      rng.uniform(0.3, 2.0), c3, beta=rng.random(),
                      xi=rng.random(),
                      lengths=tuple(rng.uniform(0.5, 2.0) for _ in range(4)))
        for state in stationary_states(spec):
            l1, l2 = (rng.uniform(0.01, 0.99) if r is LinkRegime.ZS else None
                      for r in (state.link1, state.link2))
            cases.append((spec, state, l1, l2))
    return cases


def profile_cells(fd, length: float, cells: int, q: float, l: float,
                  critical: bool) -> np.ndarray:
    """The cell averages of a link's two-density profile: under-critical
    on [0, (1 - l) * length), over-critical behind it, both at flow q, or
    the critical density throughout.  Uniform links were filled this way
    too, which leaves a sliver of the other density at rounded cell
    edges."""
    if critical:
        under = over = fd.critical_density
    else:
        under, over = fd.density(q, False), fd.density(q, True)
    dx = length / cells
    edges = np.arange(cells + 1) * dx
    uc_len = np.clip((1.0 - l) * length, edges[:-1], edges[1:]) - edges[:-1]
    return (uc_len * under + (dx - uc_len) * over) / dx


# Greenshields at unit free-flow speed: there the diagram's capacity is the
# declared one.  At other speeds it can lie an ulp above it, and a critical
# link, which starts at its declared capacity, then sits about 1e-8 below
# the critical density (CHANGES.md).
@pytest.mark.parametrize("config", CONFIGS[:2] + (
    SimConfig(cells_per_link=7, shape="greenshields"),),
    ids=["default", "coarse-slow", "greenshields"])
def test_dm_starts_agree_with_their_cell_average_profiles(config):
    cells = config.cells_per_link
    for spec, state, l1, l2 in dm_cases():
        sim = Simulation(build_dm(spec), config)
        starts = stationary_start(spec, state, l1, l2)
        sim.load(starts)
        critical = {"link1": state.link1 is LinkRegime.CRITICAL,
                    "link2": state.link2 is LinkRegime.CRITICAL}
        for name, start in starts.items():
            ls = sim.links[name]
            length = spec.lengths[int(name[-1])]
            want = profile_cells(ls.fd, length, cells, start.q, start.l,
                                 critical.get(name, False))
            assert np.max(np.abs(ls.k - want)) <= 1e-12 * ls.fd.jam_density, (
                spec, state, name)


@pytest.mark.parametrize("xi, beta, want", [
    (0.25, 0.5, {("SUC", "C")}),
    (0.25, 0.2, {("SUC", "C"), ("SOC", "C"), ("ZS", "C")}),
    (0.75, 0.8, {("C", "SUC"), ("C", "SOC"), ("C", "ZS")}),
    (0.75, 0.6, {("C", "SUC")}),
])
def test_threshold_rows_are_stationary(xi, beta, want):
    # (C3 - C2)/C3 = 0.25 and C1/C3 = 0.75, both exact.
    spec = DmSpec(3, 1.5, 1.5, 2, beta, xi)
    states = stationary_states(spec)
    assert patterns(states) == want
    for state in states:
        assert state.q == 2.0
        sim = Simulation(build_dm(spec))
        sim.load(stationary_start(spec, state, *(
            0.5 if regime is LinkRegime.ZS else None
            for regime in (state.link1, state.link2))))
        before = sim.k.copy()
        for _ in range(1000):
            sim.step()
        assert np.max(np.abs(sim.k - before)) < 1e-10, state
