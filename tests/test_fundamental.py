"""Fundamental diagram contracts: demand/supply decomposition and inverses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import DomainError
from dmflow.fundamental import (GreenshieldsDiagram, TrafficState,
                                TriangularDiagram)

TRI = TriangularDiagram(free_flow_speed=1.0, congested_wave_speed=0.5,
                        jam_density=3.0)
GREEN = GreenshieldsDiagram(free_flow_speed=1.0, jam_density=4.0)


class TestDemandSupply:
    def test_triangular_derived_quantities(self):
        assert TRI.capacity == 1.0
        assert TRI.critical_density == 1.0

    def test_empty_road_has_no_demand(self):
        assert TRI.demand(0.0) == 0.0

    def test_over_critical_demand_saturates_at_capacity(self):
        assert TRI.demand(TRI.jam_density) == 1.0

    def test_under_critical_supply_is_capacity(self):
        assert TRI.supply(0.0) == 1.0

    def test_jammed_road_accepts_nothing(self):
        assert TRI.supply(TRI.jam_density) == 0.0

    def test_greenshields_demand_at_critical(self):
        assert GREEN.capacity == 1.0
        assert GREEN.demand(2.0) == pytest.approx(1.0, abs=1e-15)

    def test_greenshields_supply_over_critical(self):
        assert GREEN.supply(3.0) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("fd", [TRI, GREEN], ids=["tri", "green"])
    def test_out_of_range_density_rejected(self, fd):
        with pytest.raises(DomainError):
            fd.demand(-0.1)
        with pytest.raises(DomainError):
            fd.supply(fd.jam_density + 0.1)

    def test_flow_vanishes_at_both_ends(self):
        for fd in (TRI, GREEN):
            assert fd.flow(0.0) == 0.0
            assert abs(fd.flow(fd.jam_density)) < 1e-15


class TestStateToDensity:
    def test_critical_state(self):
        assert TRI.state_to_density(TrafficState(1.0, 1.0)) == 1.0

    def test_under_critical_branch(self):
        assert TRI.state_to_density(TrafficState(0.5, 1.0)) == 0.5

    def test_over_critical_branch(self):
        assert TRI.state_to_density(TrafficState(1.0, 0.5)) == 2.0

    def test_inconsistent_state_rejected(self):
        with pytest.raises(DomainError):
            TRI.state_to_density(TrafficState(0.5, 0.7))

    def test_negative_state_rejected(self):
        with pytest.raises(DomainError):
            TrafficState(-0.1, 1.0)


@pytest.mark.parametrize("fd", [TRI, GREEN], ids=["tri", "green"])
class TestInvariants:
    def test_round_trip_on_grid(self, fd):
        for k in np.linspace(0.0, fd.jam_density, 1000):
            back = fd.state_to_density(fd.state(float(k)))
            assert back == pytest.approx(float(k), abs=1e-12)

    def test_flow_recovery(self, fd):
        for k in np.linspace(0.0, fd.jam_density, 1000):
            k = float(k)
            assert min(fd.demand(k), fd.supply(k)) == pytest.approx(
                fd.flow(k), abs=1e-12)

    def test_max_of_demand_supply_is_capacity(self, fd):
        for k in np.linspace(0.0, fd.jam_density, 1000):
            k = float(k)
            assert max(fd.demand(k), fd.supply(k)) == pytest.approx(
                fd.capacity, abs=1e-12)

    def test_monotonicity(self, fd):
        ks = np.linspace(0.0, fd.jam_density, 1000)
        d = [fd.demand(float(k)) for k in ks]
        s = [fd.supply(float(k)) for k in ks]
        assert all(b >= a - 1e-12 for a, b in zip(d, d[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(s, s[1:]))

    def test_unimodal_peak_at_critical(self, fd):
        assert fd.flow(fd.critical_density) == pytest.approx(
            fd.capacity, abs=1e-12)


@given(capacity=st.floats(0.1, 10.0), k_frac=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_round_trip_random_triangular(capacity, k_frac):
    fd = TriangularDiagram.from_capacity(capacity)
    k = k_frac * fd.jam_density
    assert fd.state_to_density(fd.state(k)) == pytest.approx(k, abs=1e-12)


def test_from_capacity_sets_capacity_exactly():
    for c in (1.0, 1.5, 2.0, 2.5, 3.0, 0.7):
        assert TriangularDiagram.from_capacity(c).capacity == c
        assert GreenshieldsDiagram.from_capacity(c).capacity == c
