"""Oscillation detection, the decay fit, period-root oracles and
simulation-versus-map agreement."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from dmflow import (DmSpec, DomainError, SimConfig, build_map,
                    classify_stability, validate_spec)
from dmflow.bifurcation import _boundary_values
from dmflow.poincare import PoincareMap, StabilityClass
from dmflow.validation import (Verdict, _period_from_maxima,
                               detect_oscillation, measure_decay_ratio)
from test_poincare import random_marginal_spec

WIDE = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)
CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
# scan_period_roots bisects each sign change to this bracket width.
_REFINE_TOL = 1e-10


def scan_period_roots(fmap: PoincareMap, order: int,
                      n_grid: int = 100_001) -> list[float]:
    """Grid scan of F^order(v) - v with bisection refinement.

    Independent of the exact piecewise-linear enumeration
    (`fmap.as_piecewise().iterate(order).fixed_points()`); a second
    oracle.  Returns deduplicated roots (identity plateaus show up as
    their endpoints' grid neighborhoods and are not reported specially).
    """
    if order < 1:
        raise DomainError("order must be a positive integer")

    def g(v: float) -> float:
        x = v
        for _ in range(order):
            x = fmap(x)
        return x - v

    xs = np.linspace(0.0, fmap.c3, n_grid)
    vals = np.array([g(x) for x in xs])
    roots = [float(x) for x, y in zip(xs, vals) if y == 0.0]
    sign = np.sign(vals)
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0):
        a, b = float(xs[i]), float(xs[i + 1])
        fa = vals[i]
        while b - a > _REFINE_TOL:
            m = 0.5 * (a + b)
            fm = g(m)
            if fm == 0.0:
                a = b = m
            elif (fa > 0) != (fm > 0):
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > 1e-8 * max(fmap.c3, 1.0):
            out.append(r)
    return out


class TestDetector:
    def make_series(self, f, t_end=100.0, dt=0.05):
        t = np.arange(dt, t_end + dt / 2, dt)
        return t, np.array([f(x) for x in t])

    def test_constant_series_converges(self):
        t, v = self.make_series(lambda x: 1.2)
        report = detect_oscillation(t, v, warmup=40.0, window=25.0)
        assert report.verdict is Verdict.CONVERGED
        assert report.value == pytest.approx(1.2, abs=1e-12)

    def test_square_wave_is_persistent(self):
        period = 6.0
        t, v = self.make_series(
            lambda x: 1.375 if (x % period) < period / 2 else 0.75)
        report = detect_oscillation(t, v, warmup=40.0, window=25.0)
        assert report.verdict is Verdict.PERSISTENT_OSCILLATION
        assert report.low == pytest.approx(0.75, abs=1e-12)
        assert report.high == pytest.approx(1.375, abs=1e-12)
        assert report.period_estimate == pytest.approx(period, rel=0.05)

    def test_linear_ramp_is_undetermined(self):
        t, v = self.make_series(lambda x: 0.01 * x)
        report = detect_oscillation(t, v, warmup=40.0, window=25.0)
        assert report.verdict is Verdict.UNDETERMINED

    def test_series_of_different_lengths_rejected(self):
        t, v = self.make_series(lambda x: 1.0)
        with pytest.raises(DomainError, match="matching time/value"):
            detect_oscillation(t, v[:-1], warmup=40.0, window=25.0)

    def test_short_series_rejected(self):
        t, v = self.make_series(lambda x: 1.0, t_end=10.0)
        with pytest.raises(DomainError):
            detect_oscillation(t, v, warmup=40.0, window=25.0)

    def test_no_period_from_a_single_peak(self):
        t, v = self.make_series(lambda x: 1.0 if 40.0 <= x < 45.0 else 0.0)
        assert _period_from_maxima(t, v, 0.0, 1.0) is None


class TestBruteForceRoots:
    def test_wide_network_order_two(self):
        # Roots are the two-cycle around the fixed point xi*C3 = 1.0.
        exact = build_map(WIDE).as_piecewise()
        points, intervals = exact.iterate(2).fixed_points()
        assert intervals == []
        assert points == [pytest.approx(0.75, abs=1e-10),
                          pytest.approx(1.0, abs=1e-10),
                          pytest.approx(1.375, abs=1e-10)]

    def test_order_three_only_fixed_point(self):
        exact = build_map(WIDE).as_piecewise()
        points, intervals = exact.iterate(3).fixed_points()
        assert intervals == []
        assert points == [pytest.approx(1.0, abs=1e-10)]

    def test_order_four_matches_order_two(self):
        exact = build_map(WIDE).as_piecewise()
        p2, _ = exact.iterate(2).fixed_points()
        p4, _ = exact.iterate(4).fixed_points()
        assert p4 == pytest.approx(p2, abs=1e-10)

    def test_neutral_continuum_appears_as_interval(self):
        fmap = build_map(WIDE.with_xi(0.5))
        points, intervals = fmap.as_piecewise().iterate(2).fixed_points()
        assert len(intervals) == 1
        assert intervals[0][0] == pytest.approx(1.0, abs=1e-10)
        assert intervals[0][1] == pytest.approx(1.5, abs=1e-10)

    def test_asymptotic_case_has_single_root(self):
        fmap = build_map(WIDE.with_xi(0.55))
        points, intervals = fmap.as_piecewise().iterate(2).fixed_points()
        assert intervals == []
        assert points == [pytest.approx(1.375, abs=1e-10)]

    def test_oracle_agreement_random_family(self):
        rng = random.Random(41)
        for _ in range(30):
            spec = random_marginal_spec(rng)
            fmap = build_map(spec)
            report = classify_stability(spec)
            points, intervals = fmap.as_piecewise().iterate(2).fixed_points()
            assert intervals == []
            if report.stability is StabilityClass.UNSTABLE:
                expected = sorted([report.period2.v_minus,
                                   report.fixed_point,
                                   report.period2.v_plus])
            else:
                expected = [report.fixed_point]
            assert points == pytest.approx(expected, abs=1e-10)

    def test_steep_maps_give_exact_roots(self):
        # Slopes 1e9 and 1e16: F o F has segments 2.5e-19 and 2.5e-33
        # wide.  A float oracle merged them away and returned
        # [0.3749999857472124] at order 1 for xi = 0.999999999.
        spec = DmSpec(0.75, 0.5, 0.25, 0.375, beta=1.0, xi=0.5)
        for xi, v_star in ((0.999999999, 0.374999999625),
                           (0.9999999999999999, 0.37499999999999994)):
            fmap = build_map(spec.with_xi(xi))
            for order, want in ((1, [v_star]), (2, [0.125, v_star, 0.375]),
                                (3, [v_star])):
                points, intervals = (
                    fmap.as_piecewise().iterate(order).fixed_points())
                assert intervals == []
                assert [float(p) for p in points] == want, (xi, order)
            # v* solves slope*(C3 - v) = v in the map's own floats.
            slope, c3 = Fraction(fmap.slope), Fraction(fmap.c3)
            assert points == [slope * c3 / (1 + slope)]
        # A milder slope still resolves every root.
        milder = spec.with_xi(0.99999)
        cycle = classify_stability(milder).period2
        assert build_map(milder).as_piecewise().iterate(2).fixed_points() == ([
            pytest.approx(cycle.v_minus, abs=1e-10),
            pytest.approx(classify_stability(milder).fixed_point, abs=1e-10),
            pytest.approx(cycle.v_plus, abs=1e-10)], [])


class TestGridScan:
    def test_agrees_with_exact_enumeration(self):
        for xi in (0.38, 0.45, 0.55):
            fmap = build_map(WIDE.with_xi(xi))
            exact, _ = fmap.as_piecewise().iterate(2).fixed_points()
            scanned = scan_period_roots(fmap, 2, n_grid=20_001)
            assert scanned == pytest.approx(exact, abs=1e-8)

    def test_order_three_no_extra_roots(self):
        fmap = build_map(WIDE.with_xi(0.42))
        scanned = scan_period_roots(fmap, 3, n_grid=20_001)
        v_star = classify_stability(WIDE.with_xi(0.42)).fixed_point
        assert scanned == pytest.approx([v_star], abs=1e-8)


class TestDecayFit:
    def test_exact_geometric_series(self):
        interval = 4.0
        t = np.arange(0.0, 100.0, 0.5)
        v = 0.8 * 0.875 ** (t / interval)
        ratio = measure_decay_ratio(t, v, 10.0, 90.0, interval)
        assert ratio == pytest.approx(0.875, abs=1e-9)

    def test_requires_positive_samples(self):
        t = np.arange(0.0, 10.0, 1.0)
        with pytest.raises(DomainError):
            measure_decay_ratio(t, np.zeros_like(t), 0.0, 10.0, 1.0)


class TestValidateSpec:
    def test_unstable_case_matches_cycle(self):
        result = validate_spec(DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45),
                               SimConfig(horizon=300.0))
        assert result.agrees
        assert result.oscillation.verdict is Verdict.PERSISTENT_OSCILLATION
        assert max(result.extrema_rel_errors) < 0.05

    def test_finite_time_case_converges(self):
        result = validate_spec(DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.7),
                               SimConfig(horizon=200.0))
        assert result.agrees
        assert result.oscillation.verdict is Verdict.CONVERGED
        assert result.v_star_rel_error < 0.01

    def test_clockwise_map_reads_c3_minus_link2_outflux(self):
        # Link 2 is congested: link 1 settles at 0.2222, C3 - link 2 at v*.
        result = validate_spec(WIDE.with_xi(0.1))
        assert result.oscillation.verdict is Verdict.CONVERGED
        assert result.oscillation.value == pytest.approx(0.5, abs=1e-12)
        assert result.v_star_rel_error == pytest.approx(0.0, abs=1e-12)

    def test_cycle_point_at_zero_gets_an_absolute_error(self):
        # v- = 0, so the relative error of the measured low is undefined.
        result = validate_spec(DmSpec(3, 1, 2, 2, beta=0, xi=1 / 3),
                               SimConfig(horizon=200.0))
        assert result.report.period2.v_minus == 0.0
        assert result.agrees
        low = result.oscillation.low
        assert 0.0 < low < 1e-4
        assert result.extrema_rel_errors[0] == low

    def test_two_cycle_narrower_than_the_detector_converges_onto_it(self):
        # xi = beta reached through rounding leaves a cycle 2e-16 wide,
        # far below the flat tolerance, so the tail reads as converged.
        result = validate_spec(WIDE.with_xi(0.1 + 0.2))
        cycle = result.report.period2
        assert result.report.stability is StabilityClass.UNSTABLE
        assert 0.0 < cycle.v_plus - cycle.v_minus < 1e-15
        assert result.oscillation.verdict is Verdict.CONVERGED
        assert result.agrees
        assert max(result.extrema_rel_errors) < 1e-12


    @pytest.mark.parametrize("spec, stability", [
        (replace(WIDE, xi=0.1, destination_supply=1.25), "asymptotic"),
        (replace(WIDE, xi=0.4, origin_demand=2.25, destination_supply=1.25),
         "unstable"),
        (replace(CLASSIC, xi=0.1, origin_demand=1.0), "finite_time"),
        (replace(CLASSIC, xi=0.5, origin_demand=1.8, destination_supply=1.0),
         "neutral_two_cycle_continuum")],
        ids=["short-supply", "both-unstable", "starved-origin",
             "both-neutral"])
    def test_prediction_reads_the_boundary_data(self, spec, stability):
        # The map of the capacities the boundary data let through: C3 the
        # destination supply, and C0 the origin demand when that is at
        # most the new C3.  Within the CLI's default tolerances.
        result = validate_spec(spec)
        assert result.report.stability.value == stability
        assert result.agrees and result.spec == spec
        assert (result.v_star_rel_error or 0.0) <= 0.01
        assert max(result.extrema_rel_errors or [0.0]) <= 0.05

    @pytest.mark.parametrize("field", ["origin_demand", "destination_supply"])
    def test_boundary_data_that_let_no_flow_through_are_rejected(self, field):
        with pytest.raises(DomainError, match="lets no flow through"):
            validate_spec(replace(WIDE, **{field: 0.0}))


def _agreement_sweep(spec, step, exclusion=0.01):
    """Simulated verdicts must match the analytic class away from
    regime boundaries (discretization blurs the exact thresholds)."""
    bounds = _boundary_values(spec)
    xis = np.arange(step, 1.0 - step / 2, step)
    checked = 0
    for xi in xis:
        xi = float(xi)
        if min(abs(xi - b) for b in bounds) <= exclusion + 1e-12:
            continue
        result = validate_spec(spec.with_xi(xi))
        assert result.agrees, (spec, xi, result.oscillation.verdict)
        # The CLI's default --vstar-tol and --extrema-tol.
        if result.v_star_rel_error is not None:
            assert result.v_star_rel_error <= 0.01, (spec, xi)
        if result.extrema_rel_errors is not None:
            assert max(result.extrema_rel_errors) <= 0.05, (spec, xi)
        checked += 1
    return checked


class TestClassificationAgreement:
    def test_coarse_sweep_both_networks(self):
        # step 0.1 leaves 5 checkable points on the sweep network (four of
        # its boundaries sit on the grid) and 8 on the classic one.
        wide = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)
        classic = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
        assert _agreement_sweep(wide, step=0.1) == 5
        assert _agreement_sweep(classic, step=0.1) == 8

    @pytest.mark.slow
    def test_full_sweep_both_networks(self):
        wide = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)
        classic = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
        assert _agreement_sweep(wide, step=0.01) >= 85
        assert _agreement_sweep(classic, step=0.01) >= 85


class TestGridScanFullResolution:
    def test_damped_case_has_single_second_order_root(self):
        # Dense scan at the default resolution: the asymptotic map's
        # second iterate crosses the diagonal only at the fixed point.
        spec = WIDE.with_xi(0.55)
        roots = scan_period_roots(build_map(spec), 2)
        assert roots == pytest.approx([classify_stability(spec).fixed_point],
                                      abs=1e-8)


class TestDampedLimitMatchesFixedPoint:
    def test_slow_damped_case_converges_to_fixed_point(self):
        result = validate_spec(WIDE.with_xi(0.55))
        assert result.oscillation.verdict is Verdict.CONVERGED
        assert result.oscillation.value == pytest.approx(1.375, rel=1e-4)
        assert result.agrees


class TestLengthIndependence:
    def test_extrema_invariant_under_link_lengths(self):
        # Link lengths set the loop time (and hence the measured period)
        # but not the map, so oscillation extrema must not move.
        spec = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45,
                      lengths=(1.0, 2.0, 1.0, 1.5))
        result = validate_spec(spec, SimConfig(horizon=500.0))
        assert result.oscillation.verdict is Verdict.PERSISTENT_OSCILLATION
        assert max(result.extrema_rel_errors) < 0.05
        # Loop time: congested link 1 backward at w=1/2, link 2 forward
        # at vf=1; one full two-cycle spans two loops.
        expected_period = 2 * (2.0 / 0.5 + 1.0 / 1.0)
        assert result.oscillation.period_estimate == pytest.approx(
            expected_period, rel=0.05)
