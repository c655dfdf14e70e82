"""Route-split sweeps: interval classes, boundary injection, continuity."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import DmSpec, classify_stability, sweep_xi
from dmflow.bifurcation import boundary_values, regime_boundaries
from dmflow.errors import DomainError
from dmflow.piecewise import _MERGE_TOL
from dmflow.poincare import (Regime, StabilityClass, _classify_grid,
                             build_map, classify_regime)
from dmflow.validation import brute_force_period_roots

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
        table = sweep_xi(WIDE, [i / 1000 for i in range(1001)])
        for xi, stability in zip(table.xi, table.stability):
            assert stability is expected_wide_class(xi), xi

    def test_boundaries_are_injected(self):
        xs = sweep_xi(WIDE, [0.05, 0.95]).xi
        for b in (0.2, 0.3, 0.5, 0.6):
            assert b in xs

    def test_branch_endpoints(self):
        table = sweep_xi(WIDE, [0.0, 1.0])
        v_star = dict(zip(table.xi, table.v_star))
        assert v_star[0.0] == pytest.approx(0.5, abs=1e-12)
        assert v_star[1.0] == pytest.approx(1.5, abs=1e-12)

    def test_v_star_continuous_in_xi(self):
        table = sweep_xi(WIDE, [i / 500 for i in range(501)])
        xs, vs = table.xi, table.v_star
        for (x0, v0), (x1, v1) in zip(zip(xs, vs), zip(xs[1:], vs[1:])):
            assert abs(v1 - v0) <= 3.0 * (x1 - x0) + 1e-12

    def test_cycle_width_positive_throughout_unstable_interval(self):
        table = sweep_xi(WIDE, [i / 1000 for i in range(1001)])
        for stability, v_minus, v_star, v_plus in zip(
                table.stability, table.v_minus, table.v_star, table.v_plus):
            if stability is UNS:
                assert v_plus - v_minus > 0.0
                assert v_minus < v_star < v_plus

    def test_grid_values_validated(self):
        with pytest.raises(Exception):
            sweep_xi(WIDE, [-0.1])

    def test_duplicates_removed(self):
        xs = sweep_xi(WIDE, [0.2, 0.2, 0.5]).xi
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
        table = sweep_xi(SYMMETRIC, [i / 200 for i in range(201)])
        assert all(s is not UNS for s in table.stability)

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


capacity = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.1, 4.0)
share = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def templates(draw):
    """Every structural case: both bottlenecks, and downstream bottlenecks
    with C3 == C0, with C2 > C3 or with unconstrained C3 < C1 + C2."""
    kind = draw(st.sampled_from(["upstream", "middle", "downstream",
                                 "c3_is_c0", "c2_above_c3"]))
    c1, c2 = draw(capacity), draw(capacity)
    if kind == "upstream":
        c3 = draw(capacity)
        c0 = min(c1 + c2, c3) * draw(st.floats(0.1, 0.99))
    elif kind == "middle":
        c0 = (c1 + c2) * draw(st.floats(1.0, 3.0))
        c3 = (c1 + c2) * draw(st.floats(1.0, 3.0))
    else:
        c3 = (c2 if kind == "c2_above_c3" else c1 + c2) \
            * draw(st.floats(0.1, 0.99))
        c0 = c3 if kind == "c3_is_c0" else c3 * draw(st.floats(1.0, 3.0))
    return DmSpec(c0, c1, c2, c3, beta=draw(share), xi=0.5)


def fixed_grid(template) -> list[float]:
    """0, 1 and every boundary value with its two float neighbours."""
    xs = [0.0, 1.0]
    for b in boundary_values(template):
        xs += [b, math.nextafter(b, 0.0), math.nextafter(b, 1.0)]
    return [x for x in xs if 0.0 <= x <= 1.0]


@st.composite
def grids(draw, template):
    """`fixed_grid` and random interior points."""
    return fixed_grid(template) + draw(st.lists(st.floats(0.0, 1.0),
                                                max_size=40))


def assert_matches_the_map_oracles(template, grid) -> None:
    """`_classify_grid` on `grid` agrees with `classify_stability` point by
    point, and each point's class, v* and two-cycle with the map itself
    and the piecewise root oracle."""
    columns = _classify_grid(template, np.array(grid))
    # A few roundings of values of the capacities' size, and the
    # resolution at which the piecewise oracle dedupes its roots.
    residual = 16 * math.ulp(max(template.c0, template.c1, template.c2,
                                 template.c3))
    root_tol = 1e-9 * max(template.c3, 1.0)
    for xi, *row in zip(grid, *columns):
        spec = template.with_xi(xi)
        report = classify_stability(spec)
        cycle = report.period2
        assert list(map(repr, row)) == list(map(repr, [
            report.fixed_point, report.stability,
            cycle and cycle.v_minus, cycle and cycle.v_plus])), xi
        regime = classify_regime(spec)
        if not regime.supports_map:
            assert report.stability is FT, xi
            assert report.fixed_point is None and cycle is None, xi
            continue
        fmap = build_map(spec)
        if regime in (Regime.CCW_FINITE_TIME, Regime.CW_FINITE_TIME,
                      Regime.CCW_CW_OVERLAP):
            expected = FT
        else:
            expected = (ASY if fmap.slope < 1.0 else
                        NEU if fmap.slope == 1.0 else UNS)
        assert report.stability is expected, xi
        v_star = report.fixed_point
        # F amplifies a rounding of its argument by its slope.
        tol = residual * (1.0 + fmap.slope)
        assert abs(fmap(v_star) - v_star) <= tol, xi
        # Outside the open band the flow is capped, and v* is the clamp
        # level of F itself.
        if xi >= spec.c1 / spec.c3:
            assert v_star == fmap.upper, xi
        elif xi <= (spec.c3 - spec.c2) / spec.c3:
            assert v_star == fmap.lower, xi
        assert (cycle is None) == (expected in (FT, ASY)), xi
        if cycle is None:
            continue
        v_minus, v_plus = cycle.v_minus, cycle.v_plus
        assert fmap(v_minus) == v_plus, xi
        assert abs(fmap(v_plus) - v_minus) <= tol, xi
        assert v_minus - tol <= v_star <= v_plus + tol, xi
        # F o F rises by |upper - lower| over a segment slope**2 times
        # narrower.  The piecewise oracle merges breakpoints closer than
        # its resolution, so it must refuse so steep a segment.
        rise = abs(fmap.upper - fmap.lower)
        if 0.0 < rise and (rise / fmap.slope / fmap.slope
                           <= _MERGE_TOL * max(fmap.c3, 1.0)):
            with pytest.raises(DomainError, match="too steep"):
                brute_force_period_roots(fmap, 2)
            continue
        roots, intervals = brute_force_period_roots(fmap, 2)
        if intervals or (expected is NEU and v_plus - v_minus > root_tol):
            # A band of two-cycles: slope one, or a slope within the
            # oracle's identity tolerance of one.
            assert intervals == [pytest.approx((v_minus, v_plus),
                                               abs=root_tol)], xi
        else:
            want = (v_minus, v_star, v_plus)
            assert all(min(abs(r - w) for w in want) <= root_tol
                       for r in roots), xi
            assert all(min(abs(r - w) for r in roots) <= root_tol
                       for w in want), xi


class TestGridClassifier:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_classification_matches_the_map_oracles(self, data):
        template = data.draw(templates())
        assert_matches_the_map_oracles(template, data.draw(grids(template)))

    def test_steep_template_matches_the_map_oracles(self):
        # Slope 1e8 at the unstable points: the steepness guard's case,
        # which the derandomized search above draws only in some sessions.
        template = DmSpec(1.0, 0.5, 0.5, 0.5, beta=1e-08, xi=0.5)
        assert_matches_the_map_oracles(template, fixed_grid(template))

    def test_scalar_calls_do_not_grow_with_the_grid(self):
        def classify_calls(n_points):
            calls = 0

            def profile(frame, event, arg):
                nonlocal calls
                if event == "call" and \
                        frame.f_code is classify_stability.__code__:
                    calls += 1

            grid = [i / (n_points - 1) for i in range(n_points)]
            sys.setprofile(profile)
            try:
                sweep_xi(WIDE, grid)
            finally:
                sys.setprofile(None)
            return calls

        assert classify_calls(10) == classify_calls(10_000)
