"""Fundamental diagram contracts: demand/supply decomposition and inverses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import DomainError
from dmflow.fundamental import GreenshieldsDiagram, TriangularDiagram

TRI = TriangularDiagram(capacity=1.0, free_flow_speed=1.0,
                        congested_wave_speed=0.5)
GREEN = GreenshieldsDiagram(capacity=1.0, free_flow_speed=1.0)


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
    """A flow on one branch of the diagram to its density."""

    def test_critical_state(self):
        assert TRI.density(1.0, False) == TRI.density(1.0, True) == 1.0

    def test_under_critical_branch(self):
        assert TRI.density(0.5, False) == 0.5

    def test_over_critical_branch(self):
        assert TRI.density(0.5, True) == 2.0

    @staticmethod
    def assert_rejected(q: float) -> None:
        for congested in (False, True):
            with pytest.raises(DomainError, match="outside"):
                TRI.density(q, congested)

    def test_inconsistent_state_rejected(self):
        self.assert_rejected(1.5)

    def test_negative_state_rejected(self):
        self.assert_rejected(-0.1)

    def test_nan_flow_rejected(self):
        self.assert_rejected(float("nan"))


@pytest.mark.parametrize("fd", [TRI, GREEN], ids=["tri", "green"])
class TestInvariants:
    def test_round_trip_on_grid(self, fd):
        for k in np.linspace(0.0, fd.jam_density, 1000):
            k = float(k)
            back = (fd.density(fd.supply(k), True)
                    if k >= fd.critical_density
                    else fd.density(fd.demand(k), False))
            assert back == pytest.approx(k, abs=1e-12)

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


SPEEDS = st.floats(0.2, 5.0)
DIAGRAMS = st.one_of(
    st.builds(TriangularDiagram, st.floats(0.1, 10.0), SPEEDS, SPEEDS),
    st.builds(GreenshieldsDiagram, st.floats(0.1, 10.0), SPEEDS))


def branch_formula(fd, q: float, congested: bool) -> float:
    """The density of flow q < C on one branch, from the diagram's
    closed form."""
    if isinstance(fd, TriangularDiagram):
        if congested:
            return fd.jam_density - q / fd.congested_wave_speed
        return q / fd.free_flow_speed
    root = math.sqrt(1.0 - q / fd.capacity)
    return fd.critical_density * (1.0 + root if congested else 1.0 - root)


@given(fd=DIAGRAMS, k_frac=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_density_inverts_demand_and_supply(fd, k_frac):
    # The free-flow branch inverts demand(k) for k <= k_c, the congested
    # branch supply(k) for k >= k_c.  On the parabola the inverse loses
    # half the digits next to k_c, so the flow is compared, not k.
    k = k_frac * fd.jam_density
    congested = k >= fd.critical_density
    sending = fd.supply if congested else fd.demand
    q = sending(k)
    back = fd.density(q, congested)
    tol = 1e-12 * fd.jam_density
    side = back - fd.critical_density
    assert side >= -tol if congested else side <= tol
    assert sending(back) == pytest.approx(q, abs=1e-12 * fd.capacity)


@given(fd=DIAGRAMS, q_frac=st.floats(0.0, 1.0, exclude_max=True),
       congested=st.booleans())
@settings(max_examples=300, deadline=None)
def test_density_below_capacity_is_the_branch_formula(fd, q_frac,
                                                      congested):
    q = q_frac * fd.capacity
    assert fd.density(q, congested) == branch_formula(fd, q, congested)


@given(fd=DIAGRAMS, congested=st.booleans())
@settings(max_examples=100, deadline=None)
def test_density_at_and_within_rounding_above_capacity_is_critical(
        fd, congested):
    c = fd.capacity
    for q in (c, math.nextafter(c, math.inf), c * (1.0 + 5e-10)):
        assert fd.density(q, congested) == fd.critical_density
    for q in (c * (1.0 + 2e-9), math.inf, -1e-300, -c, math.nan):
        with pytest.raises(DomainError, match="outside"):
            fd.density(q, congested)


@given(capacity=st.floats(0.1, 10.0), k_frac=st.floats(0.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_round_trip_random_triangular(capacity, k_frac):
    fd = TriangularDiagram(capacity)
    k = k_frac * fd.jam_density
    congested = k >= fd.critical_density
    q = fd.supply(k) if congested else fd.demand(k)
    assert fd.density(q, congested) == pytest.approx(k, abs=1e-12)


def test_constructor_sets_capacity_exactly():
    for c in (1.0, 1.5, 2.0, 2.5, 3.0, 0.7):
        assert TriangularDiagram(c).capacity == c
        assert GreenshieldsDiagram(c).capacity == c


@pytest.mark.parametrize("args", [
    (0.0,), (-1.0,), (float("nan"),), (1.0, 0.0), (1.0, float("nan")),
    (1.0, 1.0, 0.0), (1.0, 1.0, -0.5)])
def test_constructor_rejects_parameters_not_positive(args):
    with pytest.raises(DomainError, match="must be positive"):
        TriangularDiagram(*args)
    if len(args) < 3:
        with pytest.raises(DomainError, match="must be positive"):
            GreenshieldsDiagram(*args)
