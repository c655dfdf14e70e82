"""Return-map construction, fixed points, stability, periodic points."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import (DmSpec, DomainError, UnsupportedRegimeError, build_map,
                    classify_stability, period2_points)
from dmflow.network import stationary_states
from dmflow.poincare import (Circulation, Regime, StabilityClass,
                             classify_regime, cobweb, fixed_point)

CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)      # narrow link 1
WIDE = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)        # sweep showcase
SYMMETRIC = DmSpec(3, 2, 2, 2, beta=0.5, xi=0.6)       # equal parallel links


class TestRegime:
    def test_classic_interior_is_soc_suc(self):
        assert classify_regime(CLASSIC) is Regime.SOC_SUC

    def test_upstream_bottleneck(self):
        assert classify_regime(DmSpec(1, 1, 1, 3, beta=0.5, xi=0.5)) \
            is Regime.UPSTREAM_BOTTLENECK

    def test_suc_soc_below_beta(self):
        assert classify_regime(WIDE.with_xi(0.25)) is Regime.SUC_SOC

    def test_middle_bottleneck_includes_ties(self):
        assert classify_regime(DmSpec(2, 1, 1, 2, beta=0.5, xi=0.5)) \
            is Regime.MIDDLE_BOTTLENECK

    def test_outer_segments_are_finite_time(self):
        assert classify_regime(WIDE.with_xi(0.7)) is Regime.CCW_FINITE_TIME
        assert classify_regime(WIDE.with_xi(0.1)) is Regime.CW_FINITE_TIME

    def test_overlap_at_beta(self):
        assert classify_regime(WIDE.with_xi(0.3)) is Regime.CCW_CW_OVERLAP

    def test_equal_up_down_capacity_band_is_finite_time(self):
        spec = DmSpec(2, 1, 2, 2, beta=1 / 3, xi=0.45)
        assert classify_regime(spec) is Regime.CCW_FINITE_TIME
        assert classify_stability(spec).stability is StabilityClass.FINITE_TIME


class TestBuildMap:
    def test_wide_network_map_display(self):
        fmap = build_map(WIDE)
        assert fmap.branch is Circulation.COUNTERCLOCKWISE
        assert fmap.slope == pytest.approx(1.5, abs=1e-15)
        assert fmap.lower == pytest.approx(0.75, abs=1e-15)   # floor
        assert fmap.upper == 1.5                              # cap C1
        for v in np.linspace(0.0, 2.5, 41):
            v = float(v)
            assert fmap(v) == pytest.approx(
                min(1.5, max(0.75, 2.5 - 1.5 * v)), abs=1e-12)

    def test_classic_clockwise_map_display(self):
        # xi = 1/4 on the clockwise side: cap is min(3*xi, 2/3).
        spec = CLASSIC.with_xi(0.25)
        fmap = build_map(spec)
        assert fmap.branch is Circulation.CLOCKWISE
        mu = 0.25 / 0.75
        for v in np.linspace(0.0, 2.0, 41):
            v = float(v)
            expected = max(0.0, min(3 * 0.25, 2 / 3, mu * (2.0 - v)))
            assert fmap(v) == pytest.approx(expected, abs=1e-12)

    def test_overlap_branches_share_fixed_point(self):
        spec = WIDE.with_xi(0.3)
        ccw = build_map(spec, Circulation.COUNTERCLOCKWISE)
        cw = build_map(spec, Circulation.CLOCKWISE)
        v_star = fixed_point(spec)
        assert ccw(v_star) == pytest.approx(v_star, abs=1e-12)
        assert cw(v_star) == pytest.approx(v_star, abs=1e-12)

    def test_bottleneck_regimes_unsupported(self):
        with pytest.raises(UnsupportedRegimeError):
            build_map(DmSpec(1, 1, 1, 3, beta=0.5, xi=0.5))
        with pytest.raises(UnsupportedRegimeError):
            fixed_point(DmSpec(2, 1, 1, 2, beta=0.5, xi=0.5))

    def test_degenerate_slope_rejected(self):
        # Overlap regime at xi = beta = 0 (open band dips below zero when
        # C2 > C3): the counterclockwise slope would divide by zero, and
        # the default construction falls back to the clockwise branch.
        spec = DmSpec(3, 1, 2.5, 2, beta=0.0, xi=0.0)
        assert classify_regime(spec) is Regime.CCW_CW_OVERLAP
        with pytest.raises(DomainError):
            build_map(spec, Circulation.COUNTERCLOCKWISE)
        fmap = build_map(spec)
        assert fmap.branch is Circulation.CLOCKWISE
        assert fmap(0.5) == fixed_point(spec) == 0.0


class TestApplyIterate:
    def test_classic_image_of_capacity(self):
        assert build_map(CLASSIC)(1.0) == pytest.approx(7 / 9, abs=1e-12)

    def test_fixed_point_is_fixed(self):
        v_star = fixed_point(CLASSIC)
        assert build_map(CLASSIC)(v_star) == pytest.approx(v_star, abs=1e-12)

    def test_wide_image_of_floor(self):
        assert build_map(WIDE)(0.75) == pytest.approx(1.375, abs=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            build_map(WIDE)(-0.1)
        with pytest.raises(DomainError):
            build_map(WIDE)(2.6)

    def test_orbit_converges_when_asymptotic(self):
        fmap = build_map(WIDE.with_xi(0.55))
        orbit = fmap.iterate(1.1, 60)
        assert orbit[-1] == pytest.approx(1.375, abs=1e-6)

    def test_orbit_enters_two_cycle_when_unstable(self):
        fmap = build_map(WIDE)
        orbit = fmap.iterate(1.1, 60)
        tail = orbit[-10:]
        assert set(round(v, 9) for v in tail) == {0.75, 1.375}

    def test_zero_steps(self):
        assert build_map(WIDE).iterate(1.1, 0) == [1.1]


class TestFixedPoint:
    @pytest.mark.parametrize("xi,expected", [
        (0.55, 1.375), (0.7, 1.5), (0.1, 0.5), (0.6, 1.5), (0.2, 0.5)])
    def test_wide_network_goldens(self, xi, expected):
        assert fixed_point(WIDE.with_xi(xi)) == pytest.approx(
            expected, abs=1e-12)

    def test_matches_stationary_flow(self):
        # v* = xi*q counterclockwise, C3 - (1-xi)*q clockwise.
        rng = random.Random(3)
        checked = 0
        for _ in range(400):
            c3 = rng.uniform(0.5, 3.0)
            spec = DmSpec(c3 * rng.uniform(1.0, 1.8), rng.uniform(0.3, 2.0),
                          rng.uniform(0.3, 2.0), c3, beta=rng.random(),
                          xi=rng.random())
            regime = classify_regime(spec)
            if not regime.supports_map:
                continue
            q = stationary_states(spec)[0].q
            v_star = fixed_point(spec)
            ccw = regime in (Regime.CCW_FINITE_TIME, Regime.SOC_SUC)
            expected = spec.xi * q if ccw else spec.c3 - (1 - spec.xi) * q
            assert v_star == pytest.approx(expected, abs=1e-9)
            checked += 1
        assert checked > 200


class TestStability:
    @pytest.mark.parametrize("xi,cls", [
        (0.35, StabilityClass.UNSTABLE), (0.45, StabilityClass.UNSTABLE),
        (0.55, StabilityClass.ASYMPTOTIC), (0.25, StabilityClass.ASYMPTOTIC),
        (0.3, StabilityClass.FINITE_TIME), (0.6, StabilityClass.FINITE_TIME),
        (0.1, StabilityClass.FINITE_TIME), (1.0, StabilityClass.FINITE_TIME),
        (0.5, StabilityClass.NEUTRAL_TWO_CYCLE_CONTINUUM)])
    def test_wide_network_classes(self, xi, cls):
        assert classify_stability(WIDE.with_xi(xi)).stability is cls

    def test_classic_overlap_finite_time_value(self):
        report = classify_stability(CLASSIC.with_xi(1 / 3))
        assert report.stability is StabilityClass.FINITE_TIME
        assert report.fixed_point == pytest.approx(2 / 3, abs=1e-12)
        assert report.max_steps == 2

    def test_symmetric_network_never_unstable(self):
        for xi in np.linspace(0.01, 0.99, 49):
            report = classify_stability(SYMMETRIC.with_xi(float(xi)))
            assert report.stability is not StabilityClass.UNSTABLE

    def test_neutral_case_keeps_strict_lyapunov_label(self):
        report = classify_stability(WIDE.with_xi(0.5))
        assert report.lyapunov_verdict == "unstable"
        assert report.period2.continuum

    def test_bottleneck_regimes_always_stable(self):
        report = classify_stability(DmSpec(1, 1, 1, 3, beta=0.5, xi=0.5))
        assert report.stability is StabilityClass.FINITE_TIME
        assert report.fixed_point is None


class TestPeriodTwo:
    def test_classic_cycle_golden(self):
        p2 = period2_points(CLASSIC)
        assert p2.v_minus == pytest.approx(7 / 9, abs=1e-12)
        assert p2.v_plus == pytest.approx(1.0, abs=1e-12)

    def test_wide_cycle_golden(self):
        p2 = period2_points(WIDE)
        assert (p2.v_minus, p2.v_plus) == (
            pytest.approx(0.75, abs=1e-12), pytest.approx(1.375, abs=1e-12))

    def test_continuum_endpoints(self):
        p2 = period2_points(WIDE.with_xi(0.5))
        assert p2.continuum
        assert p2.v_minus == pytest.approx(1.0, abs=1e-12)
        assert p2.v_plus == pytest.approx(1.5, abs=1e-12)

    def test_none_when_stable(self):
        assert period2_points(WIDE.with_xi(0.55)) is None
        assert period2_points(WIDE.with_xi(0.7)) is None

    def test_cycle_closes_bitwise(self):
        fmap = build_map(CLASSIC)
        p2 = period2_points(CLASSIC)
        assert fmap(p2.v_minus) == p2.v_plus
        assert fmap(p2.v_plus) == p2.v_minus

    def test_clockwise_cycle_from_mirror_network(self):
        # Mirror of the sweep network: congested link 2, xi above 1/2.
        spec = DmSpec(3, 2, 1.5, 2.5, beta=0.7, xi=0.6)
        assert classify_regime(spec) is Regime.SUC_SOC
        report = classify_stability(spec)
        assert report.stability is StabilityClass.UNSTABLE
        p2 = report.period2
        fmap = build_map(spec)
        assert fmap(p2.v_minus) == p2.v_plus
        assert fmap(p2.v_plus) == p2.v_minus
        assert p2.v_minus < report.fixed_point < p2.v_plus
        assert (p2.v_minus, p2.v_plus) == (
            pytest.approx(1.125, abs=1e-12), pytest.approx(1.75, abs=1e-12))


def random_marginal_spec(rng, side=None):
    """Random spec in the open unstable-capable band, away from edges."""
    while True:
        c3 = rng.uniform(0.8, 2.5)
        c0 = c3 * rng.uniform(1.05, 2.0)
        c1 = rng.uniform(0.3, 1.5) * c3
        c2 = rng.uniform(0.3, 1.5) * c3
        if c3 >= c1 + c2 - 0.05:
            continue
        lo, hi = max(0.0, 1 - c2 / c3), min(1.0, c1 / c3)
        if hi - lo < 0.1:
            continue
        xi = rng.uniform(lo + 0.02, hi - 0.02)
        if abs(xi - 0.5) < 0.01:
            continue
        want_ccw = side if side is not None else rng.random() < 0.5
        beta = rng.uniform(lo + 0.01, xi - 0.005) if want_ccw else \
            rng.uniform(xi + 0.005, hi - 0.005)
        if not 0.0 <= beta <= 1.0:
            continue
        spec = DmSpec(c0, c1, c2, c3, beta=beta, xi=xi)
        if classify_regime(spec) in (Regime.SOC_SUC, Regime.SUC_SOC):
            return spec


class TestMapProperties:
    def test_fixed_point_consistency_random_family(self):
        rng = random.Random(17)
        for _ in range(200):
            spec = random_marginal_spec(rng)
            v_star = fixed_point(spec)
            assert abs(build_map(spec)(v_star) - v_star) < 1e-12

    def test_range_stays_inside_domain(self):
        rng = random.Random(19)
        for _ in range(100):
            spec = random_marginal_spec(rng)
            fmap = build_map(spec)
            for v in np.linspace(0.0, spec.c3, 33):
                w = fmap(float(v))
                assert -1e-12 <= w <= spec.c3 + 1e-12

    def test_two_cycle_is_invariant_set(self):
        rng = random.Random(23)
        for _ in range(100):
            spec = random_marginal_spec(rng)
            report = classify_stability(spec)
            if report.stability is not StabilityClass.UNSTABLE:
                continue
            fmap = build_map(spec)
            p2 = report.period2
            assert fmap(p2.v_minus) == p2.v_plus
            assert fmap(p2.v_plus) == p2.v_minus
            assert abs(fmap(report.fixed_point) - report.fixed_point) < 1e-12
            assert p2.v_minus < report.fixed_point < p2.v_plus

    def test_local_linearization_is_exact_near_fixed_point(self):
        # Between the clamp kinks the map is exactly v* - slope*(v - v*).
        rng = random.Random(29)
        for _ in range(100):
            spec = random_marginal_spec(rng)
            fmap = build_map(spec)
            v_star = fixed_point(spec)
            pl = fmap.as_piecewise()
            kinks = [x for x in pl.xs if 0.0 < x < spec.c3]
            eps = min([abs(v_star - k) for k in kinks] + [v_star,
                                                          spec.c3 - v_star])
            for frac in (-0.9, -0.5, 0.5, 0.9):
                v = v_star + frac * eps
                lin = v_star - fmap.slope * (v - v_star)
                assert fmap(v) == pytest.approx(lin, abs=1e-10)

    def test_finite_time_regimes_reach_fixed_point_in_two_steps(self):
        for spec in (WIDE.with_xi(0.15), WIDE.with_xi(0.3), WIDE.with_xi(0.8),
                     CLASSIC.with_xi(0.0), CLASSIC.with_xi(1 / 3),
                     CLASSIC.with_xi(0.75)):
            fmap = build_map(spec)
            v_star = fixed_point(spec)
            for v0 in np.linspace(0.0, spec.c3, 101):
                assert abs(fmap(fmap(float(v0))) - v_star) <= 1e-12

    @given(st.floats(0.0, 2.5))
    @settings(max_examples=300, deadline=None)
    def test_image_in_range_hypothesis(self, v):
        fmap = build_map(WIDE)
        assert 0.0 <= fmap(v) <= 2.5


class TestCobweb:
    def test_zero_steps_empty(self):
        assert cobweb(build_map(WIDE), 1.1, 0) == []

    def test_fixed_point_start_degenerates(self):
        v_star = fixed_point(WIDE.with_xi(0.55))
        fmap = build_map(WIDE.with_xi(0.55))
        segments = cobweb(fmap, v_star, 5)
        for a, b in segments:
            assert a == pytest.approx(b, abs=1e-9)

    def test_segments_trace_orbit(self):
        fmap = build_map(WIDE)
        segments = cobweb(fmap, 1.1, 20)
        assert len(segments) == 40
        # Late segments hug the two-cycle rectangle through (0.75, 1.375).
        xs = {round(p[0], 6) for seg in segments[-8:] for p in seg}
        assert xs <= {0.75, 1.375}


def test_constant_map_converges_in_one_step():
    report = classify_stability(WIDE.with_xi(1.0))
    assert report.max_steps == 1
    report = classify_stability(WIDE.with_xi(0.65))
    assert report.max_steps == 2
