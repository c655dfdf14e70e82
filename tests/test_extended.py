"""Ring-of-stages and beltway return maps."""

import math
import random

import pytest

from dmflow import DmSpec, DomainError, build_map
from dmflow.extended import (BeltwaySpec, DmnPattern, GridlockClass,
                             beltway_classify, beltway_factor,
                             beltway_half_life, dmn_classify, dmn_fixed_points,
                             dmn_orbit, dmn_perturbation_factor, dmn_step)


class TestRingStep:
    def test_symmetric_state_is_fixed(self):
        xi = 0.4
        state = (2 * xi, 2 * xi)
        assert dmn_step(2, xi, state) == pytest.approx(state, abs=1e-12)

    def test_asymmetric_fixed_points_are_exactly_fixed(self):
        for xi in (0.4, 0.38, 0.45):
            for state in dmn_fixed_points(2, xi)[1:]:
                assert dmn_step(2, xi, state) == state

    def test_single_stage_matches_dm_map_orbit(self):
        # With beta = 0 the four-link network's map has the same middle
        # segment; on [2 - lam, 1] the two agree exactly.
        xi = 0.45
        spec = DmSpec(3, 1, 2, 2, beta=0.0, xi=xi)
        fmap = build_map(spec)
        v = 0.9
        ring = [s[0] for s in dmn_orbit(1, xi, (v,), 30)]
        dm = fmap.iterate(v, 30)
        assert ring == pytest.approx(dm, abs=1e-12)

    def test_symmetric_ring_reproduces_scalar_orbit_componentwise(self):
        xi = 0.42
        scalar = [s[0] for s in dmn_orbit(1, xi, (0.7,), 25)]
        for n in (2, 3, 4):
            orbit = dmn_orbit(n, xi, tuple(0.7 for _ in range(n)), 25)
            for k, state in enumerate(orbit):
                assert state == pytest.approx(
                    tuple(scalar[k] for _ in range(n)), abs=1e-12)

    def test_band_guard(self):
        with pytest.raises(DomainError):
            dmn_step(2, 0.0, (0.5, 0.5))
        with pytest.raises(DomainError):
            dmn_step(2, 1.0, (0.5, 0.5))
        with pytest.raises(DomainError):
            dmn_step(2, 0.4, (0.5,))

    def test_image_leaving_unit_band_raises_domain_error(self):
        # xi = 0.2 gives lam = 4, so 2 - 4 * 0.9 < 0: the map leaves
        # [0, cap].  The guard must hold under python -O as well.
        with pytest.raises(DomainError, match="left \\[0, cap\\]"):
            dmn_step(2, 0.2, (0.9, 0.3))


class TestPerturbationFactor:
    def test_single_stage_golden(self):
        assert dmn_perturbation_factor(1, 0.45) == pytest.approx(
            -11 / 9, abs=1e-12)

    def test_even_ring_does_not_alternate(self):
        factor = dmn_perturbation_factor(2, 0.4)
        assert factor == pytest.approx(2.25, abs=1e-12)
        assert factor > 0

    def test_neutral_magnitude_at_half(self):
        for n in (1, 2, 3):
            assert abs(dmn_perturbation_factor(n, 0.5)) == pytest.approx(
                1.0, abs=1e-12)


class TestRingClassification:
    def test_odd_rings_oscillate(self):
        for n in (1, 3, 5):
            cls = dmn_classify(n, 0.4)
            assert cls.pattern is DmnPattern.PPO
            assert cls.analyzed

    def test_single_stage_cycle_golden(self):
        cls = dmn_classify(1, 0.45)
        assert cls.cycle == (pytest.approx(7 / 9, abs=1e-12),
                             pytest.approx(1.0, abs=1e-12))

    def test_two_stage_bistable_points(self):
        cls = dmn_classify(2, 0.4)
        assert cls.pattern is DmnPattern.BISTABLE
        assert cls.asymmetric_points == (
            (pytest.approx(1.0), pytest.approx(0.5, abs=1e-12)),
            (pytest.approx(0.5, abs=1e-12), pytest.approx(1.0)))

    def test_outside_band_flagged(self):
        cls = dmn_classify(2, 0.6)
        assert not cls.analyzed
        assert cls.pattern is DmnPattern.STABLE

    def test_bistability_reached_from_tiny_perturbations(self):
        # Perturb along the growing antisymmetric mode; a one-component
        # kick leaves alternate phases frozen exactly on the unstable
        # value, which is a measure-zero artifact of the alternation.
        xi = 0.4
        sym, up, down = dmn_fixed_points(2, xi)
        targets = {}
        for eps, key in ((+1e-3, "+"), (-1e-3, "-")):
            state = (sym[0] + eps, sym[1] - eps)
            orbit = dmn_orbit(2, xi, state, 80)
            targets[key] = orbit[-1]
            assert orbit[-1] in (up, down)
        assert targets["+"] != targets["-"]


class TestBeltway:
    def test_per_pair_ratio_golden(self):
        factor = beltway_factor(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=1))
        assert factor.per_pair == pytest.approx(0.875, abs=1e-12)

    def test_balanced_ramps_are_neutral(self):
        spec = BeltwaySpec(beta=0.25, xi=0.25, n_pairs=2)
        assert beltway_factor(spec).per_pair == pytest.approx(1.0, abs=1e-15)
        assert beltway_classify(spec) is GridlockClass.NEUTRAL

    def test_odds_form_matches(self):
        rng = random.Random(31)
        for _ in range(100):
            spec = BeltwaySpec(beta=rng.uniform(0, 0.95),
                               xi=rng.uniform(0, 0.95),
                               n_pairs=rng.randint(1, 6))
            factor = beltway_factor(spec)
            assert factor.odds_form == pytest.approx(factor.per_pair,
                                                     abs=1e-12)
            assert factor.per_lap == pytest.approx(
                factor.per_pair ** spec.n_pairs, abs=1e-12)

    def test_per_lap_is_repeated_per_pair(self):
        spec = BeltwaySpec(beta=0.3, xi=0.2, n_pairs=4)
        factor = beltway_factor(spec)
        v = 0.8
        for _ in range(spec.n_pairs):
            v *= factor.per_pair
        assert factor.per_lap * 0.8 == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("beta,xi,expected", [
        (0.3, 0.2, GridlockClass.GRIDLOCK_STABLE),
        (0.2, 0.3, GridlockClass.GRIDLOCK_UNSTABLE),
        (0.25, 0.25, GridlockClass.NEUTRAL)])
    def test_classification(self, beta, xi, expected):
        assert beltway_classify(BeltwaySpec(beta, xi, 1)) is expected

    def test_half_life_golden(self):
        hl = beltway_half_life(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=1))
        assert hl.pairs == pytest.approx(math.log(0.5) / math.log(0.875),
                                         abs=1e-12)
        assert hl.pairs == pytest.approx(5.1906, abs=1e-3)

    def test_half_life_one_pair_when_ratio_half(self):
        hl = beltway_half_life(BeltwaySpec(beta=0.5, xi=0.0, n_pairs=1))
        assert hl.pairs == pytest.approx(1.0, abs=1e-12)

    def test_half_life_diverges_toward_neutral(self):
        lives = [beltway_half_life(BeltwaySpec(beta=b, xi=0.2, n_pairs=1)).pairs
                 for b in (0.4, 0.3, 0.25, 0.22, 0.21)]
        assert all(b > a for a, b in zip(lives, lives[1:]))
        assert lives[-1] > 50.0

    def test_half_life_undefined_when_growing(self):
        with pytest.raises(DomainError):
            beltway_half_life(BeltwaySpec(beta=0.2, xi=0.3, n_pairs=1))

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            BeltwaySpec(beta=1.0, xi=0.2, n_pairs=1)
        with pytest.raises(DomainError):
            BeltwaySpec(beta=0.2, xi=0.2, n_pairs=0)
