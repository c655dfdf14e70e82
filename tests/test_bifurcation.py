"""Route-split sweeps: interval classes, boundary injection, continuity."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import DmSpec, classify_stability, sweep_xi
from dmflow import io
from dmflow.bifurcation import (_DEDUPE_TOL, Transition, _boundary_values,
                                _dedupe, regime_boundaries)
from dmflow.errors import DomainError
from dmflow.network import LinkRegime, stationary_states
from dmflow.poincare import (Circulation, Regime, StabilityClass,
                             _classify_grid, build_map)

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

    @pytest.mark.parametrize("grid", [[[0.1, 0.2]], np.array([[0.1, 0.2]]),
                                      np.array(0.3)])
    def test_grid_must_be_flat(self, grid):
        with pytest.raises(DomainError, match="one-dimensional"):
            sweep_xi(WIDE, grid)

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
        vals = _boundary_values(WIDE)
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


def boundaries_point_by_point(template: DmSpec) -> list[Transition]:
    """`regime_boundaries` with one `classify_stability` call per midpoint
    and per boundary."""
    if not classify_stability(template.with_xi(0.5)).regime.supports_map:
        return []
    bounds = _boundary_values(template)
    edges = [0.0] + bounds + [1.0]
    transitions = []
    for i, b in enumerate(bounds):
        lo_mid = (edges[i] + b) / 2.0
        hi_mid = (b + edges[i + 2]) / 2.0
        below = (classify_stability(template.with_xi(lo_mid)).stability
                 if b > 0.0 else None)
        above = (classify_stability(template.with_xi(hi_mid)).stability
                 if b < 1.0 else None)
        at = classify_stability(template.with_xi(b)).stability
        transitions.append(Transition(b, below, at, above))
    return transitions


@given(template=templates())
@settings(max_examples=300, deadline=None)
def test_boundaries_match_the_per_point_loop(template):
    assert regime_boundaries(template) == boundaries_point_by_point(template)


def fixed_grid(template) -> list[float]:
    """0, 1 and every boundary value with its two float neighbours."""
    xs = [0.0, 1.0]
    for b in _boundary_values(template):
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
    and the exact piecewise root oracle."""
    *_, v_star, stability, v_minus, v_plus = _classify_grid(
        template, np.array(grid))
    # The float columns hold NaN where the report holds None.
    columns = [[None if isinstance(x, float) and math.isnan(x) else x
                for x in column.tolist()]
               for column in (v_star, stability, v_minus, v_plus)]
    # A few roundings of values of the capacities' size.
    ulp = math.ulp(max(template.c0, template.c1, template.c2, template.c3))
    residual = 16 * ulp
    # The closed-form roots against the exact ones: the most seen was
    # 0.37 ulp, over the 1 073 roots the derandomized examples of a full
    # test session check.
    root_tol = 2 * ulp
    for xi, *row in zip(grid, *columns):
        spec = template.with_xi(xi)
        report = classify_stability(spec)
        cycle = report.period2
        assert list(map(repr, row)) == list(map(repr, [
            report.fixed_point, report.stability,
            cycle and cycle.v_minus, cycle and cycle.v_plus])), xi
        regime = report.regime
        if not regime.supports_map:
            assert report.stability is FT, xi
            assert report.fixed_point is None and cycle is None, xi
            continue
        fmap = build_map(spec)
        if regime in (Regime.CCW_FINITE_TIME, Regime.CW_FINITE_TIME,
                      Regime.CCW_CW_OVERLAP):
            expected = FT
        else:
            # Slope 0 (xi = 0 or 1 inside the open band): F is constant.
            expected = (FT if fmap.slope == 0.0 else
                        ASY if fmap.slope < 1.0 else
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
        if math.isinf(fmap.slope):
            # A subnormal xi overflows the slope; no exact map exists.
            with pytest.raises(DomainError, match="non-finite"):
                fmap.as_piecewise().iterate(2).fixed_points()
            continue
        # The exact roots of F o F, against which the closed forms may
        # differ by their own roundings only.
        roots, intervals = fmap.as_piecewise().iterate(2).fixed_points()
        if expected is NEU:
            # Slope one: a band of two-cycles around v*.
            assert roots == [] and len(intervals) == 1, xi
            got, want = intervals[0], (v_minus, v_plus)
        else:
            assert len(roots) == 3 and intervals == [], xi
            got, want = roots, (v_minus, v_star, v_plus)
        for exact, closed in zip(got, want):
            assert abs(exact - Fraction(closed)) <= root_tol, xi


class TestGridClassifier:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_classification_matches_the_map_oracles(self, data):
        template = data.draw(templates())
        assert_matches_the_map_oracles(template, data.draw(grids(template)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_regime_and_fixed_point_match_the_stationary_catalog(self, data):
        # The catalog is code separate from the grid: the map circulates
        # off its clamps exactly where the catalog lists one strict pair,
        # and v* is link 1's flow xi*q (counterclockwise) or C3 minus link
        # 2's flow (clockwise).
        template = data.draw(templates())
        soc, suc = LinkRegime.SOC, LinkRegime.SUC
        circulating = {Regime.SOC_SUC: [(soc, suc)],
                       Regime.SUC_SOC: [(suc, soc)]}
        ulp = math.ulp(max(template.c0, template.c1, template.c2,
                           template.c3))
        for xi in data.draw(grids(template)):
            spec = template.with_xi(xi)
            states = stationary_states(spec)
            pairs = [(s.link1, s.link2) for s in states]
            report = classify_stability(spec)
            regime = report.regime
            if regime in circulating:
                assert pairs == circulating[regime], xi
            else:
                assert pairs not in circulating.values(), xi
            if not regime.supports_map:
                continue
            (q,) = {s.q for s in states}
            flow = (xi * q
                    if build_map(spec).branch is Circulation.COUNTERCLOCKWISE
                    else spec.c3 - (1.0 - xi) * q)
            assert abs(report.fixed_point - flow) <= ulp, xi

    def test_steep_template_matches_the_map_oracles(self):
        # Slope 1e8 at the unstable points, which the derandomized search
        # above draws only in some sessions.
        template = DmSpec(1.0, 0.5, 0.5, 0.5, beta=1e-08, xi=0.5)
        assert_matches_the_map_oracles(template, fixed_grid(template))
        # The float corner of the clockwise cycle: C0 one ulp above C3,
        # beta = 1 and xi within 400 ulps of 1, where v- comes within 0.5 %
        # of C3 at slopes up to 2**53.
        corner = DmSpec(math.nextafter(1.0, 2.0), 1.0, 0.5, 1.0, beta=1.0,
                        xi=0.5)
        near_one = [1.0 - k * 2.0 ** -53 for k in range(1, 401)]
        assert_matches_the_map_oracles(corner,
                                       fixed_grid(corner) + near_one)

    def test_scalar_calls_do_not_grow_with_the_grid(self):
        # Every Python-level call of the sweep and its CSV cells, and those
        # of classify_stability among them: a per-row helper, or a per-row
        # Enum .value or __hash__, would make the counts differ.
        def calls(n_points):
            counts = {"all": 0, "classify_stability": 0}

            def profile(frame, event, arg):
                if event == "call":
                    counts["all"] += 1
                    if frame.f_code is classify_stability.__code__:
                        counts["classify_stability"] += 1

            grid = [i / (n_points - 1) for i in range(n_points)]
            sys.setprofile(profile)
            try:
                io.sweep_rows(sweep_xi(WIDE, grid))
            finally:
                sys.setprofile(None)
            return counts

        assert calls(1_000) == calls(100_000)


def reference_dedupe(xs) -> list[float]:
    """The sequential rule: xs sorted, dropping each value within
    _DEDUPE_TOL of the last kept."""
    kept: list[float] = []
    for x in sorted(xs):
        if not kept or x - kept[-1] > _DEDUPE_TOL:
            kept.append(x)
    return kept


@st.composite
def clustered(draw):
    """Floats in [0, 1] in clusters whose steps are near _DEDUPE_TOL, so a
    value may lie within it of its predecessor but not of the last kept
    one; with repeats and both zeros."""
    xs = []
    for start in draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0])
                               | st.floats(0.0, 1.0), max_size=6)):
        x = start
        for step in draw(st.lists(st.sampled_from([0.0, 0.4, 0.5, 1.0])
                                  | st.floats(0.0, 2.0), max_size=6)):
            x = min(x + step * _DEDUPE_TOL, 1.0)
            xs.append(x)
        xs.append(start)
    return draw(st.permutations(xs))


class TestArraySweep:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(clustered())
    def test_dedupe_matches_the_sequential_rule(self, xs):
        got = _dedupe(np.array(xs, dtype=np.float64)).tolist()
        assert list(map(repr, got)) == list(map(repr, reference_dedupe(xs)))

    def test_dedupe_keeps_the_third_of_a_close_run(self):
        # Each step is within the tolerance, the third value is not
        # within it of the first.
        xs = [0.5, 0.5 + 0.6 * _DEDUPE_TOL, 0.5 + 1.2 * _DEDUPE_TOL]
        assert _dedupe(np.array(xs)).tolist() == [xs[0], xs[2]]
        assert reference_dedupe(xs) == [xs[0], xs[2]]

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.data())
    def test_grid_as_list_generator_or_array(self, data):
        template = data.draw(templates())
        grid = data.draw(grids(template)) + data.draw(clustered())
        tables = [sweep_xi(template, grid),
                  sweep_xi(template, (x for x in grid)),
                  sweep_xi(template, np.array(grid))]
        columns = [[list(map(repr, getattr(table, name).tolist()))
                    for name in ("xi", "v_star", "stability", "v_minus",
                                 "v_plus")]
                   for table in tables]
        assert columns[0] == columns[1] == columns[2]
        assert list(map(repr, tables[0].xi.tolist())) == list(map(
            repr, reference_dedupe(grid + [b for b in _boundary_values(
                template) if min(grid) <= b <= max(grid)])))
