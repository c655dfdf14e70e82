"""Oscillation detection and period-root oracles."""

import random

import numpy as np
import pytest

from dmflow import (DmSpec, DomainError, SimConfig, build_map,
                    classify_stability, validate_spec)
from dmflow.poincare import StabilityClass, fixed_point
from dmflow.validation import (Verdict, brute_force_period_roots,
                               detect_oscillation, measure_decay_ratio,
                               scan_period_roots)
from test_poincare import random_marginal_spec

WIDE = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)


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

    def test_short_series_rejected(self):
        t, v = self.make_series(lambda x: 1.0, t_end=10.0)
        with pytest.raises(DomainError):
            detect_oscillation(t, v, warmup=40.0, window=25.0)


class TestBruteForceRoots:
    def test_wide_network_order_two(self):
        # Roots are the two-cycle around the fixed point xi*C3 = 1.0.
        points, intervals = brute_force_period_roots(build_map(WIDE), 2)
        assert intervals == []
        assert points == [pytest.approx(0.75, abs=1e-10),
                          pytest.approx(1.0, abs=1e-10),
                          pytest.approx(1.375, abs=1e-10)]

    def test_order_three_only_fixed_point(self):
        points, intervals = brute_force_period_roots(build_map(WIDE), 3)
        assert intervals == []
        assert points == [pytest.approx(1.0, abs=1e-10)]

    def test_order_four_matches_order_two(self):
        fmap = build_map(WIDE)
        p2, _ = brute_force_period_roots(fmap, 2)
        p4, _ = brute_force_period_roots(fmap, 4)
        assert p4 == pytest.approx(p2, abs=1e-10)

    def test_neutral_continuum_appears_as_interval(self):
        fmap = build_map(WIDE.with_xi(0.5))
        points, intervals = brute_force_period_roots(fmap, 2)
        assert len(intervals) == 1
        assert intervals[0][0] == pytest.approx(1.0, abs=1e-10)
        assert intervals[0][1] == pytest.approx(1.5, abs=1e-10)

    def test_asymptotic_case_has_single_root(self):
        fmap = build_map(WIDE.with_xi(0.55))
        points, intervals = brute_force_period_roots(fmap, 2)
        assert intervals == []
        assert points == [pytest.approx(1.375, abs=1e-10)]

    def test_oracle_agreement_random_family(self):
        rng = random.Random(41)
        for _ in range(30):
            spec = random_marginal_spec(rng)
            fmap = build_map(spec)
            report = classify_stability(spec)
            points, intervals = brute_force_period_roots(fmap, 2)
            assert intervals == []
            if report.stability is StabilityClass.UNSTABLE:
                expected = sorted([report.period2.v_minus,
                                   report.fixed_point,
                                   report.period2.v_plus])
            else:
                expected = [report.fixed_point]
            assert points == pytest.approx(expected, abs=1e-10)

    def test_too_steep_a_map_raises_instead_of_losing_roots(self):
        # Slope 1e9: F o F has a segment 2.5e-19 wide, below the spacing at
        # which composition merges breakpoints.  The oracle used to return
        # [0.3749999857472124] here, missing v- = 0.125 and v*.
        spec = DmSpec(0.75, 0.5, 0.25, 0.375, beta=1.0, xi=0.999999999)
        fmap = build_map(spec)
        with pytest.raises(DomainError, match="too steep"):
            brute_force_period_roots(fmap, 2)
        # A milder slope still resolves every root.
        milder = spec.with_xi(0.99999)
        cycle = classify_stability(milder).period2
        assert brute_force_period_roots(build_map(milder), 2) == ([
            pytest.approx(cycle.v_minus, abs=1e-10),
            pytest.approx(classify_stability(milder).fixed_point, abs=1e-10),
            pytest.approx(cycle.v_plus, abs=1e-10)], [])


class TestGridScan:
    def test_agrees_with_exact_enumeration(self):
        for xi in (0.38, 0.45, 0.55):
            fmap = build_map(WIDE.with_xi(xi))
            exact, _ = brute_force_period_roots(fmap, 2)
            scanned = scan_period_roots(fmap, 2, n_grid=20_001)
            assert scanned == pytest.approx(exact, abs=1e-8)

    def test_order_three_no_extra_roots(self):
        fmap = build_map(WIDE.with_xi(0.42))
        scanned = scan_period_roots(fmap, 3, n_grid=20_001)
        assert scanned == pytest.approx([fixed_point(WIDE.with_xi(0.42))],
                                        abs=1e-8)


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


def _agreement_sweep(spec, step, exclusion=0.01):
    """Simulated verdicts must match the analytic class away from
    regime boundaries (discretization blurs the exact thresholds)."""
    from dmflow.bifurcation import boundary_values
    bounds = boundary_values(spec)
    xis = np.arange(step, 1.0 - step / 2, step)
    checked = 0
    for xi in xis:
        xi = float(xi)
        if min(abs(xi - b) for b in bounds) <= exclusion + 1e-12:
            continue
        result = validate_spec(spec.with_xi(xi))
        assert result.agrees, (spec, xi, result.oscillation.verdict)
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
        assert roots == pytest.approx([fixed_point(spec)], abs=1e-8)


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
