"""Stationary-state catalog, stationary starts, and network builders."""

import itertools
import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import (ConfigurationError, DmSpec, DomainError, SimConfig,
                    Simulation, build_dm)
from dmflow.network import (BeltwaySpec, Destination, DmnSpec, Link,
                            LinkRegime, Network, Origin, StationaryState,
                            build_beltway, build_dmn, dmn_start,
                            stationary_start, stationary_states)

CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
# Each boundary-data field with a spec that has it.
BOUNDARY_SPECS = {"origin_demand": CLASSIC, "destination_supply": CLASSIC,
                  "ramp_demand": BeltwaySpec(0.3, 0.2, 2),
                  "offramp_supply": BeltwaySpec(0.3, 0.2, 2)}

# Each numeric field of a Network's parts: (part, field, error, message).
NUMERIC_FIELDS = [
    ("links", "capacity", ConfigurationError,
     "link 'link0' needs a positive finite capacity"),
    ("links", "length", ConfigurationError,
     "link 'link0' needs a positive finite length"),
    ("origins", "demand", ConfigurationError,
     "origin demand at link 'link0' must be nonnegative"),
    ("origins", "fraction", DomainError, "origin fraction must lie in [0, 1]"),
    ("destinations", "supply", ConfigurationError,
     "destination supply at link 'link3' must be nonnegative"),
    ("diverges", "xi", DomainError, "xi must lie in [0, 1]"),
    ("merges", "beta", DomainError, "beta must lie in [0, 1]")]


def stage_names(k: int) -> dict[str, str]:
    """The ring's names for the four-link network's links in stage k."""
    return {"link0": f"o{k}", "link1": f"c{k}", "link2": f"u{k}",
            "link3": f"e{k}"}


def renamed(net: Network, k: int) -> Network:
    """The four-link network `net` with its links named as ring stage k."""
    names = stage_names(k)

    def end(e):     # a link name or a constant
        return names[e] if isinstance(e, str) else e

    return Network(
        tuple(replace(ln, name=names[ln.name]) for ln in net.links),
        tuple(replace(o, link=names[o.link]) for o in net.origins),
        tuple(replace(d, link=names[d.link]) for d in net.destinations),
        tuple(replace(dv, upstream=names[dv.upstream],
                      branch1=end(dv.branch1), branch2=end(dv.branch2))
              for dv in net.diverges),
        tuple(replace(mg, approach1=end(mg.approach1),
                      approach2=end(mg.approach2),
                      downstream=names[mg.downstream])
              for mg in net.merges))


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


def loaded(spec, state, l1=None, cells=20):
    """The network of `spec` holding the start of `state`."""
    sim = Simulation(build_dm(spec), SimConfig(cells_per_link=cells))
    sim.load(stationary_start(spec, state, l1))
    return sim


class TestProfiles:
    """The density profiles that stationary starts load."""

    def test_suc_profile_is_uniform(self):
        state = StationaryState(LinkRegime.SOC, LinkRegime.SUC, 2.0)
        assert stationary_start(CLASSIC, state)["link2"].l == 0.0
        k = loaded(CLASSIC, state).links["link2"].k
        assert np.all(k == k[0])
        assert k[0] == pytest.approx(1.1, abs=1e-12)

    def test_soc_profile_is_uniform_over_critical(self):
        state = StationaryState(LinkRegime.SOC, LinkRegime.SUC, 2.0)
        assert stationary_start(CLASSIC, state)["link1"].l == 1.0
        k = loaded(CLASSIC, state).links["link1"].k
        # capacity 1, flow 0.9: over-critical density 3 - 0.9/0.5
        assert np.all(k == k[0])
        assert k[0] == pytest.approx(3.0 - 0.45 * 2 / 0.5 * 1, abs=1e-12)

    def test_zs_profile_golden(self):
        # Narrow link alone: capacity 1 (vf=1, w=1/2, kj=3), flow 0.5,
        # standing shock at midlink: 0.5 upstream, 2.0 downstream.
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.25)
        state = StationaryState(LinkRegime.ZS, LinkRegime.SOC, 2.0)
        start = stationary_start(spec, state, l1=0.5)["link1"]
        assert (start.q, start.l, start.fraction) == (0.5, 0.5, 1.0)
        cells = loaded(spec, state, l1=0.5).links["link1"].k
        assert np.allclose(cells[:10], 0.5) and np.allclose(cells[10:], 2.0)

    def test_zs_requires_interior_l(self):
        state = StationaryState(LinkRegime.ZS, LinkRegime.SOC, 2.0)
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.25)
        with pytest.raises(DomainError):
            stationary_start(spec, state, l1=0.0)
        with pytest.raises(DomainError):
            stationary_start(spec, state)

    def test_l_inconsistent_with_fixed_regime_rejected(self):
        state = StationaryState(LinkRegime.SUC, LinkRegime.SOC, 2.0)
        spec = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.25)
        with pytest.raises(DomainError):
            stationary_start(spec, state, l1=0.7)

    def test_zs_mass_interpolates_between_suc_and_soc(self):
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
        state = StationaryState(LinkRegime.ZS, LinkRegime.SUC, 2.0)
        masses = []
        for l in np.linspace(0.05, 0.95, 10):
            sim = loaded(spec, state, l1=float(l), cells=40)
            masses.append(sim.links["link1"].k.mean() * spec.lengths[1])
        assert all(b > a for a, b in zip(masses, masses[1:]))


class TestBuilders:
    def test_dm_topology(self):
        net = build_dm(CLASSIC)
        assert len(net.links) == 4
        assert len(net.diverges) == len(net.merges) == 1
        assert net.origins[0].demand == 3.0
        assert net.destinations[0].supply == 2.0

    @given(xi=st.floats(0.0, 1.0), scale=st.floats(1e-3, 1e3),
           beta=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_dmn_base_case_matches_dm_shape(self, xi, scale, beta):
        # The DM network is the ring of one stage, links renamed.
        spec = DmnSpec(1, xi, scale, beta)
        assert build_dmn(spec) == renamed(build_dm(spec.stage), 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("xi, scale", [(0.0, 1.0), (0.4, 0.5),
                                           (0.5, 3.0)])
    def test_ring_start_is_the_stage_start_of_every_stage(self, n, xi,
                                                          scale):
        spec = DmnSpec(n, xi, scale, beta=0.3)
        start = stationary_start(spec.stage, StationaryState(
            LinkRegime.SOC, LinkRegime.SUC, spec.stage.c3))
        want = [(name, start[link]) for k in range(1, n + 1)
                for link, name in stage_names(k).items()]
        assert list(dmn_start(spec).items()) == want

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ring_merge_takes_the_previous_wide_link(self, n):
        net = build_dmn(DmnSpec(n, xi=0.4))
        assert [(m.approach1, m.approach2, m.downstream)
                for m in net.merges] == [
            (f"c{k}", f"u{k - 1 if k > 1 else n}", f"e{k}")
            for k in range(1, n + 1)]

    def test_dmn_two_stages(self):
        net = build_dmn(DmnSpec(2, xi=0.4))
        intermediate = [l for l in net.links
                        if l.name[0] in "cu"]
        assert len(intermediate) == 4
        assert len(net.diverges) == 2 and len(net.merges) == 2

    def test_dmn_three_stages(self):
        net = build_dmn(DmnSpec(3, xi=0.4))
        assert len([l for l in net.links if l.name[0] in "cu"]) == 6

    def test_dmn_rejects_bad_n(self):
        with pytest.raises(DomainError):
            build_dmn(DmnSpec(0, xi=0.4))

    def test_beltway_topology(self):
        net = build_beltway(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=4))
        assert len(net.links) == 8
        assert len(net.diverges) == len(net.merges) == 4

    def test_beltway_single_pair(self):
        net = build_beltway(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=1))
        assert len(net.diverges) == len(net.merges) == 1

    def test_beltway_zero_turning_allowed(self):
        build_beltway(BeltwaySpec(beta=0.3, xi=0.0, n_pairs=2))

    def test_validate_catches_dangling_link(self):
        with pytest.raises(ConfigurationError):
            Network(links=(Link("a", 1.0),), origins=(Origin("a", 1.0),))

    def test_validate_rejects_an_unknown_link(self):
        with pytest.raises(ConfigurationError, match="^unknown link 'b'$"):
            Network(links=(Link("a", 1.0),), origins=(Origin("a", 1.0),),
                    destinations=(Destination("b", 1.0),))

    def test_validate_rejects_duplicate_link_names(self):
        # Two rows of state under one name: the record would report only
        # the first, which nothing feeds.
        with pytest.raises(ConfigurationError,
                           match=r"^duplicate link names: \['a', 'b'\]$"):
            Network((Link("a", 1.0), Link("b", 1.0), Link("a", 1.0),
                     Link("b", 2.0)),
                    origins=(Origin("a", 0.5),),
                    destinations=(Destination("a", 1.0),))

    def test_validate_rejects_a_network_without_links(self):
        with pytest.raises(ConfigurationError,
                           match="^a network needs at least one link$"):
            Network(())

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_spec_rejects_non_finite_capacity(self, capacity):
        with pytest.raises(DomainError, match="c3 must be positive and fin"):
            DmSpec(3, 1, 2, capacity, beta=0.5, xi=0.5)

    @pytest.mark.parametrize("length", [float("nan"), float("inf"), 0.0])
    def test_spec_rejects_length_not_positive_and_finite(self, length):
        with pytest.raises(DomainError, match="four positive finite"):
            DmSpec(3, 1, 2, 2, beta=0.5, xi=0.5, lengths=(1, length, 1, 1))

    @pytest.mark.parametrize("fields, match", [
        ({"n": 2.5}, "n must be a positive integer"),
        ({"n": math.nan}, "n must be a positive integer"),
        ({"xi": 1.5}, "xi must lie in"),
        ({"scale": 0.0}, "scale must be positive"),
        ({"scale": math.nan}, "scale must be positive"),
        ({"beta": -0.1}, "beta must lie in"),
        # Finite, but the stage's origin capacity 3 * scale overflows.
        ({"scale": 1e308}, "c0 must be positive and finite, got inf")])
    def test_ring_spec_rejects_values_outside_its_domain(self, fields, match):
        with pytest.raises(DomainError, match=match):
            DmnSpec(**{"n": 2, "xi": 0.4, **fields})

    @pytest.mark.parametrize("fields, match", [
        ({"beta": 1.0}, "beta must lie in \\[0, 1\\)"),
        ({"xi": math.nan}, "xi must lie in \\[0, 1\\)"),
        ({"n_pairs": 0}, "n_pairs must be a positive integer"),
        ({"ring_capacity": math.inf}, "ring_capacity must be positive"),
        ({"segment_length": 0.0}, "segment_length must be positive")])
    def test_beltway_spec_rejects_values_outside_its_domain(self, fields,
                                                            match):
        with pytest.raises(DomainError, match=match):
            BeltwaySpec(**{"beta": 0.3, "xi": 0.2, "n_pairs": 2, **fields})

    def test_specs_cast_their_fields(self):
        # A scenario's 20.0 is an integer to the schema, its 1 a number.
        ring = DmnSpec(20.0, 1, scale=2)
        assert (ring, type(ring.n), type(ring.xi)) == (
            DmnSpec(20, 1.0, 2.0), int, float)
        belt = BeltwaySpec(0, 0, 3.0, ring_capacity=2, segment_length=1)
        assert type(belt.n_pairs) is int
        assert all(type(getattr(belt, name)) is float for name in (
            "beta", "xi", "ring_capacity", "segment_length"))

    def test_beltway_links_take_the_spec_capacity_and_length(self):
        net = build_beltway(BeltwaySpec(0.3, 0.2, 2, ring_capacity=2.0,
                                        segment_length=0.5))
        assert {(ln.capacity, ln.length) for ln in net.links} == {(2.0, 0.5)}
        assert net.merges[0].approach1 == 0.6 * 2.0

    def test_builders_take_the_boundary_data_of_the_spec(self):
        dm = build_dm(replace(CLASSIC, origin_demand=1.0,
                              destination_supply=1.8))
        assert (dm.origins[0].demand, dm.destinations[0].supply) == (1.0, 1.8)
        belt = build_beltway(BeltwaySpec(0.3, 0.2, 2, ramp_demand=0.4,
                                         offramp_supply=3.0))
        assert {mg.approach1 for mg in belt.merges} == {0.4}
        assert {dv.branch1 for dv in belt.diverges} == {3.0}

    @pytest.mark.parametrize("field", BOUNDARY_SPECS)
    @pytest.mark.parametrize("value", [-1.0, -math.inf, math.nan, "-1"])
    def test_specs_reject_negative_or_nan_boundary_data(self, field, value):
        with pytest.raises(DomainError, match=f"^{field} must be nonneg"):
            replace(BOUNDARY_SPECS[field], **{field: value})

    @pytest.mark.parametrize("group, field, error, message, value", [
        pytest.param(*row, value, id=f"{row[1]}-{type(value).__name__}")
        for row in NUMERIC_FIELDS for value in (None, "0.5")
        # A diverge's xi of None is the commodity-driven split.
        if (row[1], value) != ("xi", None)])
    def test_network_rejects_a_non_number_naming_the_field(
            self, group, field, error, message, value):
        # Not a raw TypeError from comparing the value with a float.
        net = build_dm(CLASSIC)
        first, *rest = getattr(net, group)
        with pytest.raises(error, match=re.escape(
                f"{message}, got {value!r}") + "$"):
            replace(net, **{group: (replace(first, **{field: value}),
                                    *rest)})

    @pytest.mark.parametrize("field", BOUNDARY_SPECS)
    @pytest.mark.parametrize("value, cast", [
        ("2", 2.0), (1, 1.0), (0, 0.0), (math.inf, math.inf), (None, None)])
    def test_specs_cast_their_boundary_data(self, field, value, cast):
        got = getattr(replace(BOUNDARY_SPECS[field], **{field: value}), field)
        assert (got, type(got)) == (cast, type(cast))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            DmSpec(0, 1, 1, 1, beta=0.5, xi=0.5)
        with pytest.raises(DomainError):
            DmSpec(1, 1, 1, 1, beta=1.5, xi=0.5)
        with pytest.raises(DomainError):
            DmSpec(1, 1, 1, 1, beta=0.5, xi=-0.1)
