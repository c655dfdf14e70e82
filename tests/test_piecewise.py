"""Piecewise-linear algebra: exact composition and fixed-point enumeration."""

import math
import random

import numpy as np
import pytest

from dmflow import DmSpec, DomainError, build_map
from dmflow.piecewise import PiecewiseLinear

WIDE = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)


def random_pl(rng, lo=0.0, hi=2.5):
    """Random piecewise-linear self-map of [lo, hi]."""
    n = rng.randint(2, 6)
    xs = sorted(rng.uniform(lo, hi) for _ in range(n - 2))
    xs = [lo] + xs + [hi]
    # Deduplicate accidental collisions.
    xs = [x for i, x in enumerate(xs) if i == 0 or x - xs[i - 1] > 1e-6]
    ys = [rng.uniform(lo, hi) for _ in xs]
    return PiecewiseLinear(tuple(xs), tuple(ys))


class TestBasics:
    def test_evaluation_interpolates(self):
        f = PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 2.0, 1.0))
        assert f(0.5) == 1.0
        assert f(1.5) == 1.5
        assert f(2.0) == 1.0

    def test_domain_enforced(self):
        f = PiecewiseLinear((0.0, 1.0), (0.0, 1.0))
        with pytest.raises(DomainError):
            f(-0.1)

    def test_monotone_breakpoints_required(self):
        with pytest.raises(DomainError):
            PiecewiseLinear((0.0, 0.0, 1.0), (0.0, 1.0, 2.0))

    @pytest.mark.parametrize("xs", [(0.0, math.inf), (0.0, math.nan)])
    def test_non_finite_breakpoint_rejected(self, xs):
        with pytest.raises(DomainError, match="is not a finite number"):
            PiecewiseLinear(xs, (0.0, 1.0))

    @pytest.mark.parametrize("xs, ys", [((0.0, 1.0), (0.0, 1.0, 2.0)),
                                        ((0.0,), (0.0,))],
                             ids=["unmatched", "single-point"])
    def test_matching_xs_ys_of_two_points_required(self, xs, ys):
        with pytest.raises(DomainError, match="at least two points"):
            PiecewiseLinear(xs, ys)

    def test_iterate_needs_a_positive_order(self):
        with pytest.raises(DomainError, match="n must be >= 1"):
            PiecewiseLinear((0.0, 1.0), (1.0, 0.0)).iterate(0)


class TestCompose:
    def test_matches_pointwise_evaluation(self):
        rng = random.Random(5)
        for _ in range(50):
            f, g = random_pl(rng), random_pl(rng)
            h = f.compose(g)
            for x in np.linspace(0.0, 2.5, 101):
                assert h(float(x)) == pytest.approx(f(g(float(x))),
                                                    abs=1e-10)

    def test_map_iterates_match_orbit(self):
        fmap = build_map(WIDE)
        pl = fmap.as_piecewise()
        for order in (1, 2, 3, 4):
            comp = pl.iterate(order)
            for v in np.linspace(0.0, 2.5, 64):
                v = float(v)
                direct = v
                for _ in range(order):
                    direct = fmap(direct)
                assert comp(v) == pytest.approx(direct, abs=1e-10)


class TestFixedPoints:
    def test_single_crossing(self):
        f = PiecewiseLinear((0.0, 2.0), (2.0, 0.0))  # f(x) = 2 - x
        points, intervals = f.fixed_points()
        assert intervals == []
        assert points == [pytest.approx(1.0, abs=1e-12)]

    def test_identity_segment_reported_as_interval(self):
        f = PiecewiseLinear((0.0, 1.0, 2.0, 3.0), (0.5, 1.0, 2.0, 2.0))
        points, intervals = f.fixed_points()
        assert len(intervals) == 1
        assert intervals[0] == (pytest.approx(1.0), pytest.approx(2.0))
        assert points == []

    def test_touching_identity_segments_merge_into_one_interval(self):
        f = PiecewiseLinear((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 2.0))
        assert f.fixed_points() == ([], [(0, 2)])

    def test_endpoint_root(self):
        f = PiecewiseLinear((0.0, 1.0), (0.0, 0.5))
        points, intervals = f.fixed_points()
        assert points == [pytest.approx(0.0, abs=1e-12)]

    def test_flat_segment_crossing_diagonal(self):
        f = PiecewiseLinear((0.0, 2.0), (1.0, 1.0))
        points, _ = f.fixed_points()
        assert points == [pytest.approx(1.0, abs=1e-12)]
