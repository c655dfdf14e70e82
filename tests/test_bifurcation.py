"""Route-split sweeps: interval classes, boundary injection, continuity."""

import pytest

from dmflow import DmSpec, sweep_xi
from dmflow.bifurcation import boundary_values, regime_boundaries
from dmflow.poincare import StabilityClass

WIDE = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)
CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
SYMMETRIC = DmSpec(3, 2, 2, 2, beta=0.5, xi=0.6)

FT = StabilityClass.FINITE_TIME
ASY = StabilityClass.ASYMPTOTIC
UNS = StabilityClass.UNSTABLE
NEU = StabilityClass.NEUTRAL_TWO_CYCLE_CONTINUUM


def expected_wide_class(xi):
    if xi <= 0.2 or xi >= 0.6 or xi == 0.3:
        return FT
    if 0.2 < xi < 0.3 or 0.5 < xi < 0.6:
        return ASY
    if xi == 0.5:
        return NEU
    return UNS


class TestSweep:
    def test_wide_network_interval_classes(self):
        points = sweep_xi(WIDE, [i / 1000 for i in range(1001)])
        for p in points:
            assert p.stability is expected_wide_class(p.xi), p.xi

    def test_boundaries_are_injected(self):
        points = sweep_xi(WIDE, [0.05, 0.95])
        xs = [p.xi for p in points]
        for b in (0.2, 0.3, 0.5, 0.6):
            assert b in xs

    def test_branch_endpoints(self):
        points = {p.xi: p for p in sweep_xi(WIDE, [0.0, 1.0])}
        assert points[0.0].v_star == pytest.approx(0.5, abs=1e-12)
        assert points[1.0].v_star == pytest.approx(1.5, abs=1e-12)

    def test_v_star_continuous_in_xi(self):
        points = sweep_xi(WIDE, [i / 500 for i in range(501)])
        vs = [p.v_star for p in points]
        xs = [p.xi for p in points]
        for (x0, v0), (x1, v1) in zip(zip(xs, vs), zip(xs[1:], vs[1:])):
            assert abs(v1 - v0) <= 3.0 * (x1 - x0) + 1e-12

    def test_cycle_width_positive_throughout_unstable_interval(self):
        points = sweep_xi(WIDE, [i / 1000 for i in range(1001)])
        for p in points:
            if p.stability is UNS:
                assert p.v_plus - p.v_minus > 0.0
                assert p.v_minus < p.v_star < p.v_plus

    def test_grid_values_validated(self):
        with pytest.raises(Exception):
            sweep_xi(WIDE, [-0.1])

    def test_duplicates_removed(self):
        points = sweep_xi(WIDE, [0.2, 0.2, 0.5])
        xs = [p.xi for p in points]
        assert len(xs) == len(set(xs))


class TestBoundaries:
    def test_wide_network_boundaries(self):
        got = [t.xi for t in regime_boundaries(WIDE)]
        assert got == [pytest.approx(b, abs=1e-15)
                       for b in (0.2, 0.3, 0.5, 0.6)]

    def test_classic_network_boundaries(self):
        got = [t.xi for t in regime_boundaries(CLASSIC)]
        assert got == [pytest.approx(b, abs=1e-15) for b in (0.0, 1 / 3, 0.5)]

    def test_symmetric_network_has_no_unstable_interval(self):
        for t in regime_boundaries(SYMMETRIC):
            assert t.below is not UNS and t.above is not UNS
        points = sweep_xi(SYMMETRIC, [i / 200 for i in range(201)])
        assert all(p.stability is not UNS for p in points)

    def test_wide_transition_classes(self):
        by_xi = {round(t.xi, 6): t for t in regime_boundaries(WIDE)}
        assert by_xi[0.2].below is FT and by_xi[0.2].above is ASY
        assert by_xi[0.3].at is FT
        assert by_xi[0.3].below is ASY and by_xi[0.3].above is UNS
        assert by_xi[0.5].at is NEU
        assert by_xi[0.6].below is ASY and by_xi[0.6].above is FT

    def test_bottleneck_template_has_no_boundaries(self):
        assert regime_boundaries(DmSpec(1, 1, 1, 3, beta=0.5, xi=0.5)) == []

    def test_boundary_values_sorted_in_unit_interval(self):
        vals = boundary_values(WIDE)
        assert vals == sorted(vals)
        assert all(0.0 <= v <= 1.0 for v in vals)
