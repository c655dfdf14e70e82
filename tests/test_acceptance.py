"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own pass/fail report.
"""

import random
import time

import numpy as np

from dmflow import (DmSpec, SimConfig, Simulation, build_dm, build_map,
                    classify_stability, validate_spec)
from dmflow.cli import main as cli_main
from dmflow.extended import (DmnPattern, beltway_classify, dmn_classify,
                             dmn_fixed_points)
from dmflow.network import (BeltwaySpec, DmnSpec, LinkRegime, beltway_start,
                            build_beltway, build_dmn, dmn_start,
                            stationary_start, stationary_states)
from dmflow.poincare import StabilityClass
from dmflow.validation import (Verdict, detect_oscillation,
                               measure_decay_ratio)
from test_extended import ring_step
from test_poincare import random_marginal_spec

# The two worked networks used throughout.
CLASSIC = DmSpec(3, 1, 2, 2, beta=1 / 3, xi=0.45)
WIDE = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)
SYMMETRIC = DmSpec(3, 2, 2, 2, beta=0.5, xi=0.6)

FT = StabilityClass.FINITE_TIME
ASY = StabilityClass.ASYMPTOTIC
UNS = StabilityClass.UNSTABLE


def _ok(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} PASS: {text}")


def test_criterion_01_golden_fixed_points():
    cases = ([(xi, FT, 1.5) for xi in (0.6, 0.8, 1.0)]
             + [(0.3, FT, 0.75)]
             + [(xi, FT, 0.5) for xi in (0.0, 0.1, 0.2)]
             + [(xi, ASY, 2.5 * xi) for xi in (0.25, 0.55)]
             + [(xi, UNS, None) for xi in (0.35, 0.45)])
    for xi, cls, v_star in cases:
        report = classify_stability(WIDE.with_xi(xi))
        assert report.stability is cls, (xi, report.stability)
        if v_star is not None:
            assert abs(report.fixed_point - v_star) < 1e-12, xi
    _ok(1, "stability classes and fixed points on the sweep network")


def test_criterion_02_golden_period_two_points():
    p2 = classify_stability(CLASSIC).period2
    assert abs(p2.v_minus - 7 / 9) < 1e-12
    assert abs(p2.v_plus - 1.0) < 1e-12

    p2 = classify_stability(WIDE).period2
    assert abs(p2.v_minus - 0.75) < 1e-12
    assert abs(p2.v_plus - 1.375) < 1e-12

    half = classify_stability(WIDE.with_xi(0.5))
    p2 = half.period2
    assert p2.continuum
    assert abs(p2.v_minus - 1.0) < 1e-12
    assert abs(p2.v_plus - 1.5) < 1e-12
    assert abs(half.fixed_point - 1.25) < 1e-12
    _ok(2, "two-cycle endpoints on both networks, continuum at slope one")


def test_criterion_03_orbit_reproduction():
    orbit = build_map(WIDE.with_xi(0.55)).iterate(1.1, 60)
    assert abs(orbit[60] - 1.375) < 1e-6

    fmap = build_map(WIDE)
    orbit = fmap.iterate(1.1, 60)
    p2 = classify_stability(WIDE).period2
    cycle = {p2.v_minus, p2.v_plus}
    first = next(i for i in range(len(orbit)) if orbit[i] in cycle)
    assert first <= 5
    for i in range(first, 60):
        assert orbit[i + 1] == fmap(orbit[i])
        assert orbit[i] in cycle
        assert orbit[i + 1] != orbit[i]
    assert abs(p2.v_minus - 0.75) < 1e-12
    assert abs(p2.v_plus - 1.375) < 1e-12
    _ok(3, "damped orbit hits 1.375 within 1e-6; unstable orbit locks onto "
           f"the exact two-cycle at iterate {first}")


def test_criterion_04_two_step_convergence_in_finite_time_regimes():
    # Finite-time sets: [0, 0.2] + {0.3} + [0.6, 1] on the sweep network,
    # {0} + {1/3} + [0.5, 1] on the classic network.  Double-precision
    # rounding at regime boundaries allows 1e-12 rather than bitwise
    # equality.
    regimes = ([WIDE.with_xi(x) for x in (0.0, 0.1, 0.2, 0.3, 0.6, 0.75,
                                          0.9, 1.0)]
               + [CLASSIC.with_xi(x) for x in (0.0, 1 / 3, 0.5, 0.7, 1.0)])
    for spec in regimes:
        report = classify_stability(spec)
        assert report.stability is FT, spec.xi
        fmap = build_map(spec)
        v_star = report.fixed_point
        for v0 in np.linspace(0.0, spec.c3, 1000):
            assert abs(fmap(fmap(float(v0))) - v_star) <= 1e-12, (spec.xi, v0)
    _ok(4, "F(F(v)) lands on the fixed point across 13 finite-time regimes "
           "x 1000 starts")


def test_criterion_05_period_root_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(101)
    order3_clean = True
    for _ in range(100):
        spec = random_marginal_spec(rng)
        exact = build_map(spec).as_piecewise()
        report = classify_stability(spec)
        v_star = report.fixed_point
        expected2 = [v_star]
        if report.stability is UNS:
            expected2 = sorted([report.period2.v_minus, v_star,
                                report.period2.v_plus])
        for order in (2, 3, 4):
            points, intervals = exact.iterate(order).fixed_points()
            assert intervals == []
            expected = [v_star] if order == 3 else expected2
            assert len(points) == len(expected)
            for got, want in zip(points, expected):
                assert abs(got - want) < 1e-10, (spec, order)
            if order == 3 and (len(points) != 1
                               or abs(points[0] - v_star) > 1e-10):
                order3_clean = False
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert order3_clean
    _ok(5, f"orders 2/3/4 enumerated on 100 random specs in {elapsed:.2f}s; "
           "order 3 never leaves the fixed point")


def test_criterion_06_min_max_identity_suite():
    rng = random.Random(211)
    for _ in range(10_000):
        a, b, c = (rng.uniform(-10, 10) for _ in range(3))
        lam = rng.uniform(1e-6, 10)
        assert min(a, b) == -max(-a, -b)
        assert max(a, b) == -min(-a, -b)
        assert min(a, max(b, c)) == max(min(a, b), min(a, c))
        assert max(a, min(b, c)) == min(max(a, b), max(a, c))
        assert min(a, min(b, c)) == min(a, b, c)
        assert max(a, max(b, c)) == max(a, b, c)
        assert a + min(b, c) == min(a + b, a + c)
        assert a + max(b, c) == max(a + b, a + c)
        assert lam * min(a, b) == min(lam * a, lam * b)
        assert lam * max(a, b) == max(lam * a, lam * b)
    _ok(6, "ten min/max identities exact on 10^4 random triples")


def _persistence_cases():
    """(spec, state, l1, l2) across all four capacity orderings."""
    up = DmSpec(1, 1, 1, 3, beta=0.5, xi=0.5)
    mid = DmSpec(4, 1, 2, 4, beta=0.4, xi=1 / 3)
    eq = DmSpec(2, 1, 2, 2, beta=0.4, xi=0.25)

    def pick(spec, pattern, l1=None, l2=None):
        state = next(s for s in stationary_states(spec)
                     if (s.link1.value, s.link2.value) == pattern)
        return spec, state, l1, l2

    return [
        pick(up, ("SUC", "SUC")),
        pick(up.with_xi(0.0), ("SUC", "C")),
        pick(up.with_xi(1.0), ("C", "SUC")),
        pick(mid, ("C", "C")),
        pick(mid.with_xi(0.2), ("SUC", "C")),
        pick(mid.with_xi(0.6), ("C", "SUC")),
        pick(eq, ("SUC", "SUC")),
        pick(eq, ("SUC", "SOC")),
        pick(eq, ("SUC", "ZS"), l2=0.5),          # standing shock, l = 1/2
        pick(eq.with_xi(0.4), ("SOC", "SOC")),
        pick(eq.with_xi(0.4), ("ZS", "ZS"), l1=0.5, l2=0.5),
        pick(eq.with_xi(0.45), ("SOC", "SUC")),
        pick(eq.with_xi(0.5), ("C", "SUC")),
        pick(CLASSIC, ("SOC", "SUC")),
        pick(CLASSIC.with_xi(1 / 3), ("SOC", "SOC")),
        pick(CLASSIC.with_xi(1 / 3), ("ZS", "SOC"), l1=0.5),
        pick(CLASSIC.with_xi(0.25), ("SUC", "SOC")),
        pick(CLASSIC.with_xi(0.7), ("C", "SUC")),
        pick(WIDE, ("SOC", "SUC")),
        pick(WIDE.with_xi(0.1), ("SUC", "C")),
    ]


def test_criterion_07_stationary_states_persist_in_simulation():
    cases = _persistence_cases()
    assert len(cases) == 20
    assert any(LinkRegime.ZS in (s.link1, s.link2) for _, s, _, _ in cases)
    for spec, state, l1, l2 in cases:
        sim = Simulation(build_dm(spec))
        sim.load(stationary_start(spec, state, l1, l2))
        before = {n: ls.k.copy() for n, ls in sim.links.items()}
        for _ in range(1000):
            sim.step()
        drift = max(float(np.max(np.abs(ls.k - before[n])))
                    for n, ls in sim.links.items())
        assert drift < 1e-10, (spec, state, drift)
    _ok(7, "20 catalog states (incl. standing shocks) held for 1000 steps")


def test_criterion_08_simulation_matches_map():
    start = time.monotonic()
    res = validate_spec(CLASSIC)
    assert res.oscillation.verdict is Verdict.PERSISTENT_OSCILLATION
    assert abs(res.oscillation.low - 7 / 9) / (7 / 9) < 0.05
    assert abs(res.oscillation.high - 1.0) < 0.05
    period = res.oscillation.period_estimate

    res = validate_spec(SYMMETRIC)
    assert res.oscillation.verdict is Verdict.CONVERGED
    assert abs(res.oscillation.value - 1.2) / 1.2 < 0.01

    for xi in (0.4, 0.45):
        r = validate_spec(SYMMETRIC.with_xi(xi))
        assert r.oscillation.verdict is Verdict.CONVERGED, xi
        assert r.report.stability is ASY
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _ok(8, f"oscillation extrema and damped limits match the map in "
           f"{elapsed:.1f}s (measured oscillation period {period:.2f}, "
           "reported only)")


def test_criterion_09_ring_of_stages_classification():
    assert dmn_classify(DmnSpec(1, 0.4)).pattern is DmnPattern.PPO
    assert dmn_classify(DmnSpec(2, 0.4)).pattern is DmnPattern.BISTABLE
    assert dmn_classify(DmnSpec(3, 0.4)).pattern is DmnPattern.PPO

    # Exact fixed points of the ring map, reached from +-1e-3.
    ring = DmnSpec(2, 0.4)
    sym, up, down = dmn_fixed_points(ring)
    assert ring_step(ring, up) == up
    assert ring_step(ring, down) == down
    reached = set()
    for eps in (+1e-3, -1e-3):
        state = (sym[0] + eps, sym[1] - eps)
        final = ring_step(ring, state, 80)
        assert final in (up, down)
        reached.add(final)
    assert len(reached) == 2

    # Simulation verdicts: odd rings oscillate from empty, the even ring
    # settles into either mirrored state depending on the perturbation.
    for n in (1, 3):
        sim = Simulation(build_dmn(DmnSpec(n, xi=0.4)),
                         SimConfig(horizon=400.0))
        rec = sim.run()
        osc = detect_oscillation(*rec.series("c1"), warmup=200.0,
                                 window=100.0)
        assert osc.verdict is Verdict.PERSISTENT_OSCILLATION, n

    finals = []
    for eps in (+0.01, -0.01):
        ring = DmnSpec(2, xi=0.4)
        sim = Simulation(build_dmn(ring), SimConfig(horizon=300.0))
        sim.load(dmn_start(ring))
        c1 = sim.links["c1"]
        c1.k[:] = c1.k[0] + eps
        c1.k1[:] = c1.k
        rec = sim.run()
        pair = []
        for link in ("c1", "c2"):
            osc = detect_oscillation(*rec.series(link), warmup=150.0,
                                     window=75.0)
            assert osc.verdict is Verdict.CONVERGED
            pair.append(osc.value)
        finals.append(tuple(pair))
    for pair in finals:
        assert min(abs(pair[0] - a) + abs(pair[1] - b)
                   for a, b in (up, down)) < 1e-3
    assert abs(finals[0][0] - finals[1][0]) > 0.4
    _ok(9, "ring verdicts PPO/bistable/PPO for n=1,2,3; mirrored states "
           "(1, 0.5)/(0.5, 1) exact and reachable")


def test_criterion_10_beltway_gridlock():
    rng = random.Random(307)
    for _ in range(100):
        spec = BeltwaySpec(beta=rng.uniform(0, 0.9), xi=rng.uniform(0, 0.9),
                           n_pairs=rng.randint(1, 6))
        cls = beltway_classify(spec)
        odds = ((1.0 + spec.xi / (1.0 - spec.xi))
                / (1.0 + spec.beta / (1.0 - spec.beta)))
        assert abs(cls.per_pair - odds) < 1e-12

    spec = BeltwaySpec(beta=0.3, xi=0.2, n_pairs=4)
    hl = beltway_classify(spec).half_life_pairs
    assert abs(hl - np.log(0.5) / np.log(0.875)) < 1e-12
    assert abs(hl - 5.1906) < 1e-3

    spec = BeltwaySpec(beta=0.3, xi=0.2, n_pairs=4)
    sim = Simulation(build_beltway(spec), SimConfig(horizon=200.0))
    sim.load(beltway_start(spec, 0.8))
    rec = sim.run()
    pair_time = 2.0 / 0.5    # two unit segments at congested wave speed 1/2
    ratio = measure_decay_ratio(*rec.series("b1"), 50.0, 150.0, pair_time)
    assert abs(ratio - 0.875) / 0.875 < 0.05
    _ok(10, f"odds form exact, half-life 5.1906 pairs, simulated per-pair "
            f"decay ratio {ratio:.4f}")


def test_criterion_11_sweep_determinism(tmp_path):
    from pathlib import Path
    out1, out2 = tmp_path / "a", tmp_path / "b"
    scenario = str(Path(__file__).resolve().parent.parent / "scenarios"
                   / "dm_bifurcation.yaml")
    for out in (out1, out2):
        assert cli_main(["sweep", scenario, "--out", str(out)]) == 0
    b1 = (out1 / "sweep.csv").read_bytes()
    b2 = (out2 / "sweep.csv").read_bytes()
    assert b1 == b2
    xis = {line.split(",")[0] for line in b1.decode().splitlines()[1:]}
    for boundary in ("0.2", "0.3", "0.5", "0.6"):
        assert boundary in xis
    _ok(11, "sweep output byte-identical across runs; boundaries 0.2/0.3/"
            "0.5/0.6 are exact grid points")
