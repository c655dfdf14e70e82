"""Stationary-state catalog, density profiles, and network builders."""

import itertools
import random

import numpy as np
import pytest

from dmflow import ConfigurationError, DmSpec, DomainError, build_dm
from dmflow.network import (LinkRegime, StationaryState, build_beltway,
                            build_dmn, stationary_profile, stationary_states)

CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)


def patterns(states):
    return {(s.link1.value, s.link2.value) for s in states}


class TestCatalogGoldens:
    def test_soc_suc_row(self):
        states = stationary_states(CLASSIC)
        assert patterns(states) == {("SOC", "SUC")}
        assert states[0].q == 2.0

    def test_link1_at_capacity_row(self):
        spec = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.7)
        states = stationary_states(spec)
        assert patterns(states) == {("C", "SUC")}
        assert states[0].q == pytest.approx(1.5 / 0.7, abs=1e-15)

    def test_middle_bottleneck_balanced_split(self):
        spec = DmSpec(4, 1, 2, 4, beta=0.4, xi=1 / 3)
        states = stationary_states(spec)
        assert patterns(states) == {("C", "C")}
        assert states[0].q == pytest.approx(3.0, abs=1e-12)

    def test_upstream_bottleneck_rows(self):
        spec = DmSpec(1, 1, 1, 3, beta=0.5, xi=0.5)
        states = stationary_states(spec)
        assert patterns(states) == {("SUC", "SUC")}
        assert states[0].q == 1.0

    def test_suc_soc_row(self):
        spec = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.25)
        states = stationary_states(spec)
        assert patterns(states) == {("SUC", "SOC")}
        assert states[0].q == 2.5

    def test_interior_boundary_xi_equals_beta_is_multivalued(self):
        spec = CLASSIC.with_xi(1 / 3)
        got = patterns(stationary_states(spec))
        assert got == {("SOC", "SUC"), ("SOC", "SOC"), ("SOC", "ZS"),
                       ("SUC", "SOC"), ("ZS", "SOC")}

    def test_equal_caps_interior_boundary_is_full_product(self):
        spec = DmSpec(2, 1, 2, 2, beta=0.4, xi=0.4)
        got = patterns(stationary_states(spec))
        assert got == set(itertools.product(("SUC", "SOC", "ZS"), repeat=2))

    def test_free_l_only_on_zs(self):
        for s in stationary_states(CLASSIC.with_xi(1 / 3)):
            for regime, l in ((s.link1, s.l1), (s.link2, s.l2)):
                if regime is LinkRegime.ZS:
                    assert l is None
                elif regime is LinkRegime.SUC:
                    assert l == 0.0
                elif regime is LinkRegime.SOC:
                    assert l == 1.0


def random_spec(rng):
    c3 = rng.uniform(0.5, 3.0)
    return DmSpec(c3 * rng.uniform(1.0, 2.0),
                  rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0),
                  c3, beta=rng.random(), xi=rng.random())


class TestCatalogProperties:
    def test_catalog_is_total(self):
        rng = random.Random(7)
        for _ in range(500):
            spec = random_spec(rng)
            states = stationary_states(spec)
            assert states, spec

    def test_flow_bounds(self):
        rng = random.Random(11)
        for _ in range(500):
            spec = random_spec(rng)
            for s in stationary_states(spec):
                assert s.q <= min(spec.c0, spec.c3) + 1e-12
                if spec.xi > 0:
                    assert spec.xi * s.q <= spec.c1 + 1e-12
                if spec.xi < 1:
                    assert (1 - spec.xi) * s.q <= spec.c2 + 1e-12

    def test_downstream_bottleneck_interior_flow_is_c3(self):
        rng = random.Random(13)
        found = 0
        for _ in range(2000):
            spec = random_spec(rng)
            if not (spec.c3 <= spec.c0 and spec.c3 < spec.c1 + spec.c2):
                continue
            lo, hi = 1 - spec.c2 / spec.c3, spec.c1 / spec.c3
            if not lo < spec.xi < hi:
                continue
            found += 1
            for s in stationary_states(spec):
                assert s.q == spec.c3
        assert found > 50


class TestProfiles:
    def test_suc_profile_is_uniform(self):
        state = StationaryState.of(LinkRegime.SOC, LinkRegime.SUC, 2.0)
        prof = stationary_profile(CLASSIC, state)["link2"]
        assert prof.split == prof.length
        assert np.allclose(prof.cell_densities(20), prof.uc_density)
        assert prof.uc_density == pytest.approx(1.1, abs=1e-12)

    def test_soc_profile_is_uniform_over_critical(self):
        state = StationaryState.of(LinkRegime.SOC, LinkRegime.SUC, 2.0)
        prof = stationary_profile(CLASSIC, state)["link1"]
        # capacity 1, flow 0.9: over-critical density 3 - 0.9/0.5
        assert prof.oc_density == pytest.approx(3.0 - 0.45 * 2 / 0.5 * 1,
                                                abs=1e-12)
        assert prof.split == 0.0

    def test_zs_profile_golden(self):
        # Narrow link alone: capacity 1 (vf=1, w=1/2, kj=3), flow 0.5,
        # standing shock at midlink: 0.5 upstream, 2.0 downstream.
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.25)
        state = StationaryState(LinkRegime.ZS, LinkRegime.SOC, 2.0,
                                None, 1.0)
        prof = stationary_profile(spec, state, l1=0.5)["link1"]
        assert prof.density(0.2) == pytest.approx(0.5, abs=1e-12)
        assert prof.density(0.8) == pytest.approx(2.0, abs=1e-12)
        cells = prof.cell_densities(20)
        assert np.allclose(cells[:10], 0.5) and np.allclose(cells[10:], 2.0)

    def test_zs_requires_interior_l(self):
        state = StationaryState(LinkRegime.ZS, LinkRegime.SOC, 2.0,
                                None, 1.0)
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.25)
        with pytest.raises(DomainError):
            stationary_profile(spec, state, l1=0.0)
        with pytest.raises(DomainError):
            stationary_profile(spec, state)

    def test_l_inconsistent_with_fixed_regime_rejected(self):
        state = StationaryState.of(LinkRegime.SUC, LinkRegime.SOC, 2.0)
        spec = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.25)
        with pytest.raises(DomainError):
            stationary_profile(spec, state, l1=0.7)

    def test_zs_mass_interpolates_between_suc_and_soc(self):
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
        state = StationaryState(LinkRegime.ZS, LinkRegime.SUC, 2.0,
                                None, 0.0)
        masses = []
        for l in np.linspace(0.05, 0.95, 10):
            prof = stationary_profile(spec, state, l1=float(l))["link1"]
            masses.append(prof.cell_densities(40).mean() * prof.length)
        assert all(b > a for a, b in zip(masses, masses[1:]))


class TestBuilders:
    def test_dm_topology(self):
        net = build_dm(CLASSIC)
        assert len(net.links) == 4
        assert len(net.diverges) == len(net.merges) == 1
        assert net.origins[0].demand == 3.0
        assert net.destinations[0].supply == 2.0

    def test_dmn_base_case_matches_dm_shape(self):
        net = build_dmn(1, xi=0.45)
        assert len(net.links) == 4
        assert len(net.diverges) == len(net.merges) == 1

    def test_dmn_two_stages(self):
        net = build_dmn(2, xi=0.4)
        intermediate = [l for l in net.links
                        if l.name[0] in "cu"]
        assert len(intermediate) == 4
        assert len(net.diverges) == 2 and len(net.merges) == 2

    def test_dmn_three_stages(self):
        net = build_dmn(3, xi=0.4)
        assert len([l for l in net.links if l.name[0] in "cu"]) == 6

    def test_dmn_rejects_bad_n(self):
        with pytest.raises(DomainError):
            build_dmn(0, xi=0.4)

    def test_beltway_topology(self):
        net = build_beltway(4, beta=0.3, xi=0.2)
        assert len(net.links) == 8
        assert len(net.diverges) == len(net.merges) == 4

    def test_beltway_single_pair(self):
        net = build_beltway(1, beta=0.3, xi=0.2)
        assert len(net.diverges) == len(net.merges) == 1

    def test_beltway_zero_turning_allowed(self):
        build_beltway(2, beta=0.3, xi=0.0)

    def test_validate_catches_dangling_link(self):
        from dmflow.network import Link, Network, Origin
        net = Network(links=(Link("a", 1.0),), origins=(Origin("a", 1.0),))
        with pytest.raises(ConfigurationError):
            net.validate()

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DmSpec(0, 1, 1, 1, beta=0.5, xi=0.5)
        with pytest.raises(DomainError):
            DmSpec(1, 1, 1, 1, beta=1.5, xi=0.5)
        with pytest.raises(DomainError):
            DmSpec(1, 1, 1, 1, beta=0.5, xi=-0.1)
