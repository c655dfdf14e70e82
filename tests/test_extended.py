"""Ring-of-stages and beltway return maps."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import DmSpec, DomainError, SimConfig, Simulation, build_map
from dmflow.extended import (DMN_XI_BAND, DmnPattern, GridlockClass,
                             beltway_classify, dmn_classify,
                             dmn_fixed_points)
from dmflow.network import BeltwaySpec, DmnSpec, build_dmn


def hexes(values) -> tuple[str, ...]:
    """Bit-exact images of floats: 0.0 and -0.0 differ."""
    return tuple(float(v).hex() for v in values)


def ring_step(spec: DmnSpec, state: tuple[float, ...], steps: int = 1,
              ) -> tuple[float, ...]:
    """The narrow-link out-fluxes `steps` loop times after `state`: each
    stage's map `build_map(spec.stage)` applied to its narrow link's
    cyclic predecessor."""
    fmap = build_map(spec.stage)
    for _ in range(steps):
        state = tuple(fmap(state[i - 1]) for i in range(spec.n))
    return state


@st.composite
def rings_and_states(draw):
    """A ring inside the analysed band with merge priority 0, and a state
    of narrow-link out-fluxes in [0, C1]^n."""
    n = draw(st.integers(1, 8))
    xi = draw(st.floats(*DMN_XI_BAND, exclude_min=True, exclude_max=True))
    scale = draw(st.floats(0.0, 1e307, exclude_min=True))
    spec = DmnSpec(n, xi, scale)
    state = draw(st.lists(st.floats(0.0, spec.stage.c1),
                          min_size=n, max_size=n))
    return spec, tuple(state)


class TestRingStage:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rings_and_states())
    def test_each_ring_stage_is_its_dm_map(self, ring):
        spec, _ = ring
        # The ring's saturated/starved alternation is a two-cycle of the
        # stage map, bit for bit.
        fmap = build_map(spec.stage)
        if spec.n % 2:
            low, cap = dmn_classify(spec).cycle
        else:
            cap, low = dmn_fixed_points(spec)[1][:2]
        assert hexes([fmap(cap), fmap(low)]) == hexes([low, cap])
        stage = spec.stage
        net = build_dmn(spec)
        capacity = {ln.name: ln.capacity for ln in net.links}
        for k in range(1, spec.n + 1):
            assert [capacity[f"{p}{k}"] for p in "ocue"] == [
                stage.c0, stage.c1, stage.c2, stage.c3]
        assert {(o.demand, o.fraction) for o in net.origins} == {
            (stage.c0, stage.xi)}
        assert {d.supply for d in net.destinations} == {stage.c3}
        assert {m.beta for m in net.merges} == {stage.beta}

    def test_stage_capacities_are_the_scaled_unit_stage(self):
        stage = DmnSpec(3, 0.4, scale=2.5, beta=0.2).stage
        assert stage == DmSpec(7.5, 2.5, 5.0, 5.0, beta=0.2, xi=0.4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ring_values_keep_their_literal_formulas(self, n):
        # Each value written out from xi and scale alone, independently
        # of `DmnSpec.stage`; the ring functions must match bit for bit.
        rng = random.Random(n)
        xis = (0.05, 0.2, 1 / 3, 0.34, 0.4, 0.45, 0.49, 0.5, 0.6, 0.9,
               *(rng.uniform(0.01, 0.99) for _ in range(20)))
        scales = (0.5, 1.0, 3.0, *(rng.uniform(1e-3, 1e3) for _ in range(5)),
                  *(math.exp(rng.uniform(-600, 600)) for _ in range(5)))
        for xi, scale in itertools.product(xis, scales):
            cls = dmn_classify(DmnSpec(n, xi, scale))
            lam = (1.0 - xi) / xi
            sym = (2.0 * xi * scale,) * n
            low, cap = 2.0 * scale - lam * (1.0 * scale), 1.0 * scale
            assert hexes([cls.growth_factor]) == hexes([(-lam) ** n])
            points = dmn_fixed_points(DmnSpec(n, xi, scale))
            expected = [sym]
            if n % 2 == 0:
                expected += [tuple((cap, low)[i % 2] for i in range(n)),
                             tuple((low, cap)[i % 2] for i in range(n))]
            assert [hexes(p) for p in points] == [hexes(p) for p in expected]
            assert hexes(cls.symmetric_point) == hexes(sym)
            if cls.pattern is DmnPattern.PPO:
                assert hexes(cls.cycle) == hexes((low, cap))
            else:
                assert cls.cycle is None


class TestRingStep:
    def test_symmetric_state_is_fixed(self):
        xi = 0.4
        state = (2 * xi, 2 * xi)
        assert ring_step(DmnSpec(2, xi), state) == pytest.approx(state,
                                                                 abs=1e-12)

    def test_asymmetric_fixed_points_are_exactly_fixed(self):
        for n, scale in itertools.product((2, 4, 6, 8), (0.5, 1.0, 3.0)):
            for xi in (1 / 3 + 1e-9, 0.34, 0.38, 0.4, 0.42, 0.45, 0.49):
                spec = DmnSpec(n, xi, scale)
                for state in dmn_fixed_points(spec)[1:]:
                    assert ring_step(spec, state) == state

    def test_odd_ring_cycle_low_is_the_image_of_a_saturated_link(self):
        for n, scale in itertools.product((1, 3, 5), (0.5, 1.0, 3.0)):
            for xi in (1 / 3 + 1e-9, 0.34, 0.38, 0.4, 0.42, 0.45, 0.49):
                spec = DmnSpec(n, xi, scale)
                low, cap = dmn_classify(spec).cycle
                assert ring_step(spec, (cap,) * n) == (low,) * n

    def test_band_guard(self):
        for xi in (0.0, 1.0):
            with pytest.raises(DomainError):
                dmn_classify(DmnSpec(2, xi))
            with pytest.raises(DomainError):
                dmn_fixed_points(DmnSpec(2, xi))


class TestPerturbationFactor:
    def test_single_stage_golden(self):
        assert dmn_classify(DmnSpec(1, 0.45)).growth_factor == pytest.approx(
            -11 / 9, abs=1e-12)

    def test_even_ring_does_not_alternate(self):
        factor = dmn_classify(DmnSpec(2, 0.4)).growth_factor
        assert factor == pytest.approx(2.25, abs=1e-12)
        assert factor > 0

    def test_neutral_magnitude_at_half(self):
        for n in (1, 2, 3):
            assert abs(dmn_classify(DmnSpec(n, 0.5)).growth_factor) == \
                pytest.approx(1.0, abs=1e-12)


class TestRingClassification:
    def test_odd_rings_oscillate(self):
        for n in (1, 3, 5):
            cls = dmn_classify(DmnSpec(n, 0.4))
            assert cls.pattern is DmnPattern.PPO
            assert cls.analyzed

    def test_single_stage_cycle_golden(self):
        cls = dmn_classify(DmnSpec(1, 0.45))
        assert cls.cycle == (pytest.approx(7 / 9, abs=1e-12),
                             pytest.approx(1.0, abs=1e-12))

    def test_two_stage_bistable_points(self):
        cls = dmn_classify(DmnSpec(2, 0.4))
        assert cls.pattern is DmnPattern.BISTABLE
        assert cls.asymmetric_points == (
            (pytest.approx(1.0), pytest.approx(0.5, abs=1e-12)),
            (pytest.approx(0.5, abs=1e-12), pytest.approx(1.0)))

    def test_outside_band_flagged(self):
        cls = dmn_classify(DmnSpec(2, 0.6))
        assert not cls.analyzed
        assert cls.pattern is DmnPattern.STABLE

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_merge_priority_other_than_zero_flagged(self, n):
        # The map is derived for beta = 0; at beta = 0.6 the simulated
        # rings converge instead (c1 settles at 0.8).
        assert dmn_classify(DmnSpec(n, 0.4)).analyzed
        assert not dmn_classify(DmnSpec(n, 0.4, beta=0.6)).analyzed

    def test_bistability_reached_from_tiny_perturbations(self):
        # Perturb along the growing antisymmetric mode; a one-component
        # kick leaves alternate phases frozen exactly on the unstable
        # value, which is a measure-zero artifact of the alternation.
        xi = 0.4
        spec = DmnSpec(2, xi)
        sym, up, down = dmn_fixed_points(spec)
        targets = {}
        for eps, key in ((+1e-3, "+"), (-1e-3, "-")):
            state = (sym[0] + eps, sym[1] - eps)
            final = ring_step(spec, state, 80)
            targets[key] = final
            assert final in (up, down)
        assert targets["+"] != targets["-"]


@pytest.mark.parametrize("cells", [4, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ring_from_empty_alternates_exactly_at_courant_number_one(n, cells):
    # With w = vf and dt = dx/vf both waves move one cell per step, so the
    # CTM carries no numerical diffusion: past the transient every narrow
    # link's out-flux sits on one of the two ring values, 1.0 (saturated)
    # or 0.5 (starved), the latter off by round-off at most.
    config = SimConfig(cells_per_link=cells, dt=1 / cells, horizon=200.0,
                       free_flow_speed=1.0, congested_wave_speed=1.0)
    record = Simulation(build_dmn(DmnSpec(n, 0.4)), config).run()
    for k in range(1, n + 1):
        times, flux = record.series(f"c{k}")
        tail = flux[times >= 100.0]
        saturated = tail == 1.0
        starved = np.abs(tail - 0.5) <= 1e-15
        assert (saturated | starved).all(), k
        assert saturated.any() and starved.any(), k


class TestBeltway:
    def test_per_pair_ratio_golden(self):
        cls = beltway_classify(BeltwaySpec(beta=0.3, xi=0.2, n_pairs=1))
        assert cls.per_pair == pytest.approx(0.875, abs=1e-12)

    def test_balanced_ramps_are_neutral(self):
        spec = BeltwaySpec(beta=0.25, xi=0.25, n_pairs=2)
        cls = beltway_classify(spec)
        assert cls.per_pair == pytest.approx(1.0, abs=1e-15)
        assert cls.gridlock is GridlockClass.NEUTRAL
        assert cls.half_life_pairs is None

    def test_odds_form_matches(self):
        rng = random.Random(31)
        for _ in range(100):
            spec = BeltwaySpec(beta=rng.uniform(0, 0.95),
                               xi=rng.uniform(0, 0.95),
                               n_pairs=rng.randint(1, 6))
            cls = beltway_classify(spec)
            odds = ((1.0 + spec.xi / (1.0 - spec.xi))
                    / (1.0 + spec.beta / (1.0 - spec.beta)))
            assert odds == pytest.approx(cls.per_pair, abs=1e-12)
            assert cls.per_lap == pytest.approx(
                cls.per_pair ** spec.n_pairs, abs=1e-12)

    def test_per_lap_is_repeated_per_pair(self):
        spec = BeltwaySpec(beta=0.3, xi=0.2, n_pairs=4)
        cls = beltway_classify(spec)
        v = 0.8
        for _ in range(spec.n_pairs):
            v *= cls.per_pair
        assert cls.per_lap * 0.8 == pytest.approx(v, abs=1e-12)

    @pytest.mark.parametrize("beta,xi,expected", [
        (0.3, 0.2, GridlockClass.GRIDLOCK_STABLE),
        (0.2, 0.3, GridlockClass.GRIDLOCK_UNSTABLE),
        (0.25, 0.25, GridlockClass.NEUTRAL)])
    def test_classification(self, beta, xi, expected):
        assert beltway_classify(BeltwaySpec(beta, xi, 1)).gridlock is expected

    def test_half_life_golden(self):
        hl = beltway_classify(
            BeltwaySpec(beta=0.3, xi=0.2, n_pairs=1)).half_life_pairs
        assert hl == pytest.approx(math.log(0.5) / math.log(0.875),
                                   abs=1e-12)
        assert hl == pytest.approx(5.1906, abs=1e-3)

    def test_half_life_one_pair_when_ratio_half(self):
        hl = beltway_classify(
            BeltwaySpec(beta=0.5, xi=0.0, n_pairs=1)).half_life_pairs
        assert hl == pytest.approx(1.0, abs=1e-12)

    def test_half_life_diverges_toward_neutral(self):
        lives = [beltway_classify(BeltwaySpec(beta=b, xi=0.2, n_pairs=1))
                 .half_life_pairs for b in (0.4, 0.3, 0.25, 0.22, 0.21)]
        assert all(b > a for a, b in zip(lives, lives[1:]))
        assert lives[-1] > 50.0

    def test_half_life_undefined_when_growing(self):
        cls = beltway_classify(BeltwaySpec(beta=0.2, xi=0.3, n_pairs=1))
        assert cls.per_pair > 1.0
        assert cls.half_life_pairs is None

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            BeltwaySpec(beta=1.0, xi=0.2, n_pairs=1)
        with pytest.raises(DomainError):
            BeltwaySpec(beta=0.2, xi=0.2, n_pairs=0)
