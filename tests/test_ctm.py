"""Cell-transmission simulator: junction fluxes, conservation, stationarity."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from dmflow import (ConfigurationError, DmSpec, DomainError, SimConfig,
                    Simulation, build_dm)
from dmflow.ctm import diverge_flux, merge_flux
from dmflow.network import (Destination, Link, LinkRegime, LinkStart,
                            Network, Origin, BeltwaySpec, DmnSpec,
                            StationaryState, beltway_start, build_beltway,
                            build_dmn, stationary_start, stationary_states)

CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
BELTWAY4 = BeltwaySpec(beta=0.3, xi=0.2, n_pairs=4)


def interior_face_flux(k, k1):
    """Total and commodity-1 flux of one step across the interior face of a
    two-cell link with no inflow; the latter read from the k1 update of the
    upstream cell."""
    sim = Simulation(single_link_network(demand=0.0),
                     SimConfig(cells_per_link=2))
    sim.k[0], sim.k1[0] = k, k1
    before = sim.k1[0, 0]
    sim.step()
    return sim.q[0, 1], (before - sim.k1[0, 0]) / (sim.dt / sim.links["a"].dx)


class TestJunctionFluxes:
    def test_link_flux_empty_upstream(self):
        q, phi = interior_face_flux([0.0, 0.5], [0.0, 0.0])
        assert q == 0.0 and phi == 0.0

    def test_link_flux_upwinds_fraction(self):
        q, phi = interior_face_flux([0.8, 0.5], [0.8 * 0.45, 0.5 * 0.9])
        assert q == pytest.approx(0.8, abs=1e-15)
        assert phi == pytest.approx(0.36, abs=1e-15)

    def test_link_flux_jammed_downstream(self):
        jam = Simulation(single_link_network()).links["a"].fd.jam_density
        q, _ = interior_face_flux([0.8, jam], [0.4, 0.0])
        assert q == 0.0

    def test_diverge_golden(self):
        q0, q1, q2 = diverge_flux(3.0, 1.0, 2.0, 0.45)
        assert q0 == pytest.approx(1.0 / 0.45, abs=1e-12)
        assert q1 == pytest.approx(1.0, abs=1e-12)
        assert q2 == pytest.approx(q0 - 1.0, abs=1e-12)

    def test_diverge_degenerate_branch(self):
        q0, q1, q2 = diverge_flux(3.0, 0.0, 2.0, 0.0)
        assert (q0, q1, q2) == (2.0, 0.0, 2.0)

    def test_diverge_blocked_branch_stalls_all(self):
        q0, q1, q2 = diverge_flux(3.0, 0.0, 2.0, 0.45)
        assert q0 == 0.0 and q1 == 0.0 and q2 == 0.0

    @pytest.mark.parametrize("share", [-0.1, 1.1, math.nan])
    def test_fluxes_reject_a_share_outside_the_unit_interval(self, share):
        with pytest.raises(DomainError, match="xi must lie in"):
            diverge_flux(3.0, 1.0, 2.0, share)
        with pytest.raises(DomainError, match="beta must lie in"):
            merge_flux(1.0, 2.0, 2.0, share)

    def test_merge_golden(self):
        q3, q1, q2 = merge_flux(1.0, 2.0, 2.0, 1 / 3)
        assert q3 == 2.0
        assert q1 == pytest.approx(2 / 3, abs=1e-12)
        assert q2 == pytest.approx(4 / 3, abs=1e-12)

    def test_merge_free_flow(self):
        q3, q1, q2 = merge_flux(0.4, 0.5, 2.0, 0.3)
        assert (q3, q1, q2) == (pytest.approx(0.9), 0.4, 0.5)

    def test_merge_single_approach(self):
        q3, q1, q2 = merge_flux(0.0, 1.5, 1.0, 0.3)
        assert q1 == 0.0 and q2 == 1.0 and q3 == 1.0

    def test_merge_never_wastes_supply(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            d1, d2, s3 = rng.uniform(0, 3, 3)
            beta = rng.uniform(0, 1)
            q3, q1, q2 = merge_flux(d1, d2, s3, beta)
            assert q1 + q2 == pytest.approx(q3, abs=1e-12)
            assert q1 <= d1 + 1e-12 and q2 <= d2 + 1e-12
            if d1 + d2 >= s3:
                assert q3 == pytest.approx(s3, abs=1e-12)

    def test_diverge_fifo_ratio(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            d0, s1, s2 = rng.uniform(0.1, 3, 3)
            xi = rng.uniform(0.05, 0.95)
            q0, q1, q2 = diverge_flux(d0, s1, s2, xi)
            if q1 > 0 and q2 > 0:
                assert q1 / q2 == pytest.approx(xi / (1 - xi), rel=1e-12)
            assert q1 + q2 == pytest.approx(q0, abs=1e-12)


def single_link_network(capacity=1.0, demand=0.5, supply=10.0):
    return Network(links=(Link("a", capacity),),
                   origins=(Origin("a", demand, 0.0),),
                   destinations=(Destination("a", supply),))


class TestStep:
    def test_zero_demand_empty_network_unchanged(self):
        sim = Simulation(single_link_network(demand=0.0))
        before = sim.links["a"].k.copy()
        for _ in range(10):
            sim.step()
        assert np.array_equal(sim.links["a"].k, before)

    def test_uniform_under_critical_plateau_invariant(self):
        sim = Simulation(single_link_network(demand=0.6))
        sim.links["a"].k[:] = 0.6
        before = sim.links["a"].k.copy()
        for _ in range(50):
            sim.step()
        assert np.array_equal(sim.links["a"].k, before)

    def test_horizon_zero_echoes_initial_state(self):
        sim = Simulation(single_link_network())
        sim.links["a"].k[:] = 0.25
        record = sim.run(horizon=0.0)
        assert len(record.times) == 0
        assert np.array_equal(sim.links["a"].k, np.full(20, 0.25))

    @pytest.mark.parametrize("horizon", [-5.0, float("nan"), float("inf")])
    def test_horizon_override_outside_range_rejected(self, horizon):
        sim = Simulation(single_link_network())
        with pytest.raises(ConfigurationError, match="horizon"):
            sim.run(horizon)
        with pytest.raises(ConfigurationError, match="horizon"):
            SimConfig(horizon=horizon)

    @pytest.mark.parametrize("horizon", [1e12, 1e17, 1e300])
    def test_horizon_too_long_to_record_rejected(self, horizon):
        # 1e12 needs more memory than the address space holds; 1e17 and
        # 1e300 exceed numpy's largest array.
        sim = Simulation(single_link_network())
        with pytest.raises(ConfigurationError, match="do not fit in memory"):
            sim.run(horizon)

    def test_cfl_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            Simulation(single_link_network(), SimConfig(dt=0.2))

    @pytest.mark.parametrize("dt", [0.0, -0.01, float("nan")])
    def test_dt_not_positive_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            SimConfig(dt=dt)

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_link_length_not_positive_and_finite_rejected(self, length):
        with pytest.raises(ConfigurationError, match="positive finite"):
            Network(links=(Link("a", 1.0, length),),
                    origins=(Origin("a", 0.5),),
                    destinations=(Destination("a", 10.0),))

    def test_link_capacity_nan_rejected(self):
        with pytest.raises(ConfigurationError, match="positive finite"):
            single_link_network(capacity=math.nan)

    @pytest.mark.parametrize("origin, destination, error, match", [
        (Origin("a", -0.5), Destination("a", 10.0), ConfigurationError,
         "origin demand"),
        (Origin("a", math.nan), Destination("a", 10.0), ConfigurationError,
         "origin demand"),
        (Origin("a", 0.5, fraction=2.0), Destination("a", 10.0),
         DomainError, "origin fraction"),
        (Origin("a", 0.5, fraction=-0.1), Destination("a", 10.0),
         DomainError, "origin fraction"),
        (Origin("a", 0.5, fraction=math.nan), Destination("a", 10.0),
         DomainError, "origin fraction"),
        (Origin("a", 0.5), Destination("a", -1.0), ConfigurationError,
         "destination supply"),
        (Origin("a", 0.5), Destination("a", math.nan), ConfigurationError,
         "destination supply")],
        ids=["demand-negative", "demand-nan", "fraction-2",
             "fraction-negative", "fraction-nan", "supply-negative",
             "supply-nan"])
    def test_bad_origin_or_destination_rejected(self, origin, destination,
                                                error, match):
        with pytest.raises(error, match=match):
            Network(links=(Link("a", 1.0),), origins=(origin,),
                    destinations=(destination,))

    @pytest.mark.parametrize("value", [-0.5, math.nan, None,
                                       pytest.param([1.0], id="list")])
    def test_bad_approach_demand_or_branch_supply_rejected(self, value):
        # An end that is neither a link name nor a number gets the same
        # message.
        net = build_beltway(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=2))
        mg, dv = net.merges[1], net.diverges[0]
        with pytest.raises(ConfigurationError,
                           match="approach demand at link 'a2'"):
            replace(net, merges=(net.merges[0],
                                 replace(mg, approach1=value)))
        with pytest.raises(ConfigurationError,
                           match="branch supply at link 'a1'"):
            replace(net, diverges=(replace(dv, branch1=value),
                                   net.diverges[1]))

    @pytest.mark.parametrize("share", [-0.5, 1.5, math.nan])
    def test_share_outside_unit_interval_rejected(self, share):
        net = build_beltway(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=1))
        with pytest.raises(DomainError, match="xi must lie in"):
            replace(net, diverges=(replace(net.diverges[0], xi=share),))
        with pytest.raises(DomainError, match="beta must lie in"):
            replace(net, merges=(replace(net.merges[0], beta=share),))

    @pytest.mark.parametrize("field, value", [
        ("free_flow_speed", math.nan), ("free_flow_speed", 0.0),
        ("congested_wave_speed", 0.0), ("congested_wave_speed", -0.5),
        ("congested_wave_speed", math.inf)])
    def test_wave_speed_not_positive_and_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("cells", [2.5, 0, math.nan, math.inf])
    def test_cells_per_link_not_a_positive_integer_rejected(self, cells):
        with pytest.raises(ConfigurationError, match="positive integer"):
            SimConfig(cells_per_link=cells)

    @pytest.mark.parametrize("shape", ["parabolic", "Triangular", ""])
    def test_unknown_diagram_shape_rejected_at_construction(self, shape):
        with pytest.raises(ConfigurationError,
                           match=f"^unknown diagram shape {shape!r}$"):
            SimConfig(shape=shape)

    def test_load_of_an_unknown_link_rejected_before_any_write(self):
        sim = Simulation(single_link_network())
        sim.t = 3.0
        start = LinkStart(0.1, 0.0, 0.0)
        with pytest.raises(ConfigurationError,
                           match="^unknown link 'nope'$"):
            sim.load({"a": start, "nope": start})
        assert sim.t == 3.0
        assert not sim.links["a"].k.any()

    @pytest.mark.parametrize("failed", [False, True])
    def test_a_reloaded_simulation_records_what_a_fresh_one_records(
            self, failed):
        # The first run leaves commodity fractions in every cell, and a
        # failed step a split of 1.5 behind the commodity-driven diverge,
        # whose upstream cell the empty start then leaves at k = 0.
        config = SimConfig(cells_per_link=5, horizon=30.0)
        used, fresh = (Simulation(build_dm(CLASSIC), config)
                       for _ in range(2))
        used.load(stationary_start(CLASSIC, stationary_states(CLASSIC)[0]))
        used.run()
        if failed:
            link0 = used.links["link0"]
            link0.k1[-1] = 1.5 * link0.k[-1]
            with pytest.raises(DomainError, match="xi"):
                used.step()
        empty = {name: LinkStart(0.0, 0.0, 0.0) for name in used.links}
        records = []
        for sim in (used, fresh):
            sim.load(empty)
            record = sim.run()
            records.append([record.times, record.vehicles,
                            *record.outflux.values(), sim._state,
                            sim._faces, np.array(
                                [record.conservation_error,
                                 record.conservation_error_c1, sim.t])])
        for got, want in zip(*records):
            assert got.tobytes() == want.tobytes()

    def test_integral_float_cells_per_link_accepted(self):
        # A scenario's 20.0 is an integer to the schema.
        config = SimConfig(cells_per_link=20.0)
        assert config.cells_per_link == 20
        assert isinstance(config.cells_per_link, int)
        Simulation(single_link_network(), config)

    def test_times_and_speeds_are_cast_to_float(self):
        config = SimConfig(dt=1, horizon=30, free_flow_speed=2,
                           congested_wave_speed=1)
        assert config == SimConfig(dt=1.0, horizon=30.0, free_flow_speed=2.0,
                                   congested_wave_speed=1.0)
        assert all(type(getattr(config, name)) is float for name in (
            "dt", "horizon", "free_flow_speed", "congested_wave_speed"))

    def test_explicit_dt_below_limit_accepted(self):
        sim = Simulation(single_link_network(), SimConfig(dt=0.04))
        assert sim.dt == 0.04

    def test_bounds_hold_during_transient(self):
        sim = Simulation(build_dm(CLASSIC), SimConfig(horizon=30.0))
        for _ in range(600):
            sim.step()
            for ls in sim.links.values():
                assert np.all(ls.k >= -1e-12)
                assert np.all(ls.k <= ls.fd.jam_density + 1e-12)
                assert np.all(ls.k1 <= ls.k + 1e-12)
                assert np.all(ls.k1 >= -1e-12)


class TestConservation:
    def test_per_step_balance_from_empty(self):
        sim = Simulation(build_dm(CLASSIC), SimConfig(horizon=60.0))
        record = sim.run()
        assert record.conservation_error < 1e-10
        assert record.conservation_error_c1 < 1e-10

    @pytest.mark.parametrize("steps", [0.0, 0.49])
    def test_run_shorter_than_half_a_step_records_nothing(self, steps):
        sim = Simulation(build_dm(CLASSIC))
        record = sim.run(steps * sim.dt)
        assert len(record.times) == len(record.vehicles) == 0
        assert all(len(series) == 0 for series in record.outflux.values())
        assert record.conservation_error == 0.0
        assert record.conservation_error_c1 == 0.0

    def test_infinite_boundary_demand_and_supply(self):
        # Origins and destinations run as merges with an empty second
        # approach; an infinite demand or supply must not turn its
        # flux, or the boundary totals, into NaN.
        net = Network(links=(Link("a", 1.0),),
                      origins=(Origin("a", math.inf, 0.5),),
                      destinations=(Destination("a", math.inf),))
        sim = Simulation(net, SimConfig(horizon=30.0))
        record = sim.run()
        assert record.conservation_error < 1e-12
        assert record.conservation_error_c1 < 1e-12
        assert np.all(np.isfinite(sim.q))
        assert record.outflux["a"][-1] == 1.0

    def test_nan_step_error_is_not_reported_as_zero(self):
        sim = Simulation(build_dm(CLASSIC), SimConfig(horizon=1.0))
        link1 = sim.links["link1"]
        link1.k[:] = link1.k1[:] = float("nan")
        record = sim.run()
        assert np.isnan(record.conservation_error)
        assert np.isnan(record.conservation_error_c1)

    def test_commodity_split_matches_route_choice(self):
        # All of commodity 1 rides link 1: its share of the network load
        # settles near xi once the network fills.
        sim = Simulation(build_dm(CLASSIC), SimConfig(horizon=120.0))
        sim.run()
        frac = sim.k1.sum() / sim.k.sum()
        assert 0.3 < frac < 0.6


class TestStationaryPersistence:
    @pytest.mark.parametrize("xi,pattern", [
        (0.45, ("SOC", "SUC")), (0.25, ("SUC", "SOC"))])
    def test_marginal_states_are_discrete_fixed_points(self, xi, pattern):
        spec = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=xi)
        states = stationary_states(spec)
        state = next(s for s in states
                     if (s.link1.value, s.link2.value) == pattern)
        sim = Simulation(build_dm(spec))
        sim.load(stationary_start(spec, state))
        before = {n: ls.k.copy() for n, ls in sim.links.items()}
        for _ in range(200):
            sim.step()
        for n, ls in sim.links.items():
            assert np.max(np.abs(ls.k - before[n])) < 1e-10

    def test_standing_shock_profile_persists(self):
        # ZS states live on the catalog's boundary rows; at xi = beta the
        # (ZS, SOC) pattern is admitted and its junction fluxes balance.
        spec = CLASSIC.with_xi(1 / 3)
        state = StationaryState(LinkRegime.ZS, LinkRegime.SOC, 2.0)
        assert (state.link1.value, state.link2.value) in {
            (s.link1.value, s.link2.value) for s in stationary_states(spec)}
        sim = Simulation(build_dm(spec))
        sim.load(stationary_start(spec, state, l1=0.5))
        before = sim.links["link1"].k.copy()
        assert before[9] != before[10]  # shock sits at midlink
        for _ in range(500):
            sim.step()
        assert np.max(np.abs(sim.links["link1"].k - before)) < 1e-10


class TestRecord:
    def test_outflux_series_shapes(self):
        sim = Simulation(build_dm(CLASSIC), SimConfig(horizon=5.0))
        record = sim.run()
        times, series = record.series("link1")
        assert len(times) == len(series) == len(record.times)
        assert set(record.outflux) == {"link0", "link1", "link2", "link3"}

    def test_deterministic_rerun(self):
        def run_once():
            sim = Simulation(build_dm(CLASSIC), SimConfig(horizon=40.0))
            return sim.run()
        a, b = run_once(), run_once()
        assert np.array_equal(a.outflux["link1"], b.outflux["link1"])
        assert np.array_equal(a.vehicles, b.vehicles)


class TestGreenshields:
    def test_simulation_runs_and_conserves(self):
        sim = Simulation(build_dm(CLASSIC),
                         SimConfig(horizon=40.0, shape="greenshields"))
        record = sim.run()
        assert record.conservation_error < 1e-10
        for ls in sim.links.values():
            assert np.all(ls.k >= -1e-12)
            assert np.all(ls.k <= ls.fd.jam_density + 1e-12)


class TestRingNetworkBookkeeping:
    def test_beltway_conservation_includes_ramps(self):
        sim = Simulation(build_beltway(BELTWAY4), SimConfig(horizon=100.0))
        sim.load(beltway_start(BELTWAY4, 0.8))
        record = sim.run()
        assert record.conservation_error < 1e-10

    def test_ring_of_stages_conservation(self):
        sim = Simulation(build_dmn(DmnSpec(3, xi=0.4)),
                         SimConfig(horizon=60.0))
        record = sim.run()
        assert record.conservation_error < 1e-10
        assert record.conservation_error_c1 < 1e-10


def python_calls_per_step(sim, steps=50):
    """Python-level calls per `sim.step()`, counted with a profile hook
    after a few warm-up steps."""
    for _ in range(5):
        sim.step()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        for _ in range(steps):
            sim.step()
    finally:
        sys.setprofile(None)
    return calls / steps


class TestKernelCost:
    def test_python_calls_per_step_do_not_grow_with_links(self):
        one, twenty = (Simulation(build_dmn(DmnSpec(n, xi=0.4)))
                       for n in (1, 20))
        assert python_calls_per_step(one) == python_calls_per_step(twenty)

    def test_small_networks_take_the_float_evaluator(self):
        # 4 and 8 junction rows step on Python floats, 80 on numpy groups.
        assert Simulation(build_dm(CLASSIC))._scalar
        assert Simulation(build_beltway(BELTWAY4))._scalar
        assert not Simulation(build_dmn(DmnSpec(20, xi=0.4)))._scalar

    @pytest.mark.parametrize("network", [
        build_dm(CLASSIC), build_dmn(DmnSpec(3, xi=0.4)),
        build_beltway(BELTWAY4)], ids=["dm", "dmn3", "beltway"])
    def test_python_call_budget_per_step(self, network):
        # The step is whole-array numpy work or one inline loop over
        # Python floats: a Python-level helper called per step (or per
        # junction) would show here.
        assert python_calls_per_step(Simulation(network)) == 1


class TestNumpyMinMaxRule:
    """The scalar junction evaluator in `Simulation.step` mirrors these
    rules of numpy's float minimum, maximum and sum reduction.  Should a
    numpy release change one, this fails, instead of one evaluator
    silently flipping a signed zero."""

    @staticmethod
    def operands(a, b):
        # Python floats and arrays of the sizes the junction groups see.
        yield a, b
        for n in (1, 2, 3):
            yield np.full(n, a), np.full(n, b)

    @pytest.mark.parametrize("fn", [np.minimum, np.maximum])
    @pytest.mark.parametrize("a,b", [(0.0, -0.0), (-0.0, 0.0)])
    def test_a_tie_returns_the_second_operand(self, fn, a, b):
        for x, y in self.operands(a, b):
            got = np.atleast_1d(fn(x, y))
            assert got.tobytes() == np.atleast_1d(y).tobytes()

    @pytest.mark.parametrize("fn", [np.minimum, np.maximum])
    @pytest.mark.parametrize("a,b", [(math.nan, 1.0), (1.0, math.nan),
                                     (math.nan, -math.inf),
                                     (math.inf, math.nan)])
    def test_a_nan_propagates_from_either_side(self, fn, a, b):
        for x, y in self.operands(a, b):
            assert np.all(np.isnan(fn(x, y)))

    def test_a_sum_reduction_starts_from_positive_zero(self):
        zeros = np.full((2, 3), -0.0)
        assert np.add.reduce(zeros, 0).tobytes() == np.zeros(3).tobytes()


class TestCompiledJunctions:
    def test_merge_priority_outside_unit_interval_rejected(self):
        net = build_beltway(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=2))
        with pytest.raises(DomainError, match="beta"):
            replace(net, merges=(replace(net.merges[0], beta=1.5),)
                    + net.merges[1:])

    def test_fixed_split_outside_unit_interval_rejected(self):
        net = build_beltway(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=2))
        with pytest.raises(DomainError, match="xi"):
            replace(net, diverges=(replace(net.diverges[0], xi=-0.1),)
                    + net.diverges[1:])

    def test_commodity_split_outside_unit_interval_rejected(self):
        sim = Simulation(build_dm(CLASSIC))
        sim.links["link0"].k[:] = 1.0
        sim.links["link0"].k1[-1] = 1.5
        with pytest.raises(DomainError, match="xi"):
            sim.step()

    @pytest.mark.parametrize("k1", [-0.5, float("nan")])
    def test_negative_or_nan_commodity_split_rejected(self, k1):
        sim = Simulation(build_dm(CLASSIC))
        sim.links["link0"].k[:] = 1.0
        sim.links["link0"].k1[-1] = k1
        with pytest.raises(DomainError, match="xi"):
            sim.step()
