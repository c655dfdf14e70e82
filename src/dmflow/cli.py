"""Command line: analyze | orbit | sweep | simulate | validate <scenario>.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 internal error.  Set DMFLOW_LOG=debug|info|warning for logging.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import io
from .bifurcation import regime_boundaries, sweep_xi
from .errors import ConfigurationError, DmflowError
from .extended import beltway_classify, dmn_classify
from .poincare import build_map, classify_stability, cobweb
from .scenario import Scenario, load_scenario
from .validation import validate_spec

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3


def _outdir(args, scenario: Scenario) -> Path:
    out = Path(args.out if args.out else scenario.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigurationError(
            f"cannot create output directory {str(out)!r}: {exc.strerror}"
        ) from None
    return out


def _load(args) -> Scenario:
    """The scenario at --xi, its SimConfig taking --horizon when given."""
    scenario = load_scenario(args.scenario, args.xi)
    if args.horizon is None:
        return scenario
    try:
        sim = replace(scenario.sim, horizon=args.horizon)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{Path(args.scenario)}: simulation with "
                                 f"--horizon {args.horizon!r}: {exc}") from exc
    return replace(scenario, sim=sim)


def _xi_grid(make, needs: str) -> np.ndarray:
    """The grid of xi that make() builds; one too large for memory is a
    configuration error saying what it `needs`."""
    try:
        return make()
    except (OverflowError, MemoryError, ValueError):
        raise ConfigurationError(
            f"{needs}; they do not fit in memory") from None


def _format(args, scenario: Scenario) -> str:
    return args.format if args.format else scenario.out_format


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario, args.xi)
    spec = scenario.spec
    out = _outdir(args, scenario)
    if scenario.kind == "dm":
        report = classify_stability(spec)
        payload = {
            "regime": report.regime.value,
            "stability": report.stability.value,
            "fixed_point": report.fixed_point,
            "max_steps": report.max_steps,
            "period2": asdict(report.period2) if report.period2 else None,
            "lyapunov_verdict": report.lyapunov_verdict,
            "boundaries": [
                {"xi": t.xi, "transition": t.describe()}
                for t in regime_boundaries(spec)],
        }
        if report.regime.supports_map:
            print(f"regime: {report.regime.value}")
            print(f"stability: {report.stability.value}"
                  + (f" (converges in <= {report.max_steps} steps)"
                     if report.max_steps else ""))
            print(f"fixed point: v* = {report.fixed_point!r}")
            if report.period2 is not None:
                p = report.period2
                kind = "continuum endpoints" if p.continuum else "two-cycle"
                print(f"{kind}: ({p.v_minus!r}, {p.v_plus!r})")
        else:
            print(f"finite-time stable ({report.regime.value.replace('_', ' ')}):"
                  f" settles for any initial profile")
    elif scenario.kind == "dmn":
        cls = dmn_classify(spec)
        payload = {
            "pattern": cls.pattern.value,
            "analyzed_band": cls.analyzed,
            "growth_factor": cls.growth_factor,
            "symmetric_point": list(cls.symmetric_point),
            "asymmetric_points": [list(p) for p in cls.asymmetric_points],
            "cycle": list(cls.cycle) if cls.cycle else None,
        }
        print(f"ring of {spec.n} stage(s): {cls.pattern.value}"
              + ("" if cls.analyzed else " (outside analyzed band)"))
        print(f"perturbation growth per lap: {cls.growth_factor!r}")
    else:
        cls = beltway_classify(spec)
        payload = {
            "classification": cls.gridlock.value,
            "per_pair_ratio": cls.per_pair,
            "per_lap_ratio": cls.per_lap,
        }
        print(f"beltway with {spec.n_pairs} ramp pair(s): "
              f"{cls.gridlock.value}")
        print(f"per-pair flux ratio: {cls.per_pair!r}")
        if cls.half_life_pairs is not None:
            payload["half_life_pairs"] = cls.half_life_pairs
            print(f"flow half-life: {cls.half_life_pairs!r} pairs")
    io.write_json(out / "analysis.json", payload)
    return EXIT_OK


def cmd_orbit(args) -> int:
    scenario = load_scenario(args.scenario, args.xi)
    fmap = build_map(scenario.require_dm())
    if not 0.0 <= args.v0 <= fmap.c3:
        raise ConfigurationError(
            f"--v0: v={args.v0} outside [0, {fmap.c3}]")
    if args.steps < 0:
        raise ConfigurationError(
            f"--steps must be nonnegative, got {args.steps}")
    out = _outdir(args, scenario)
    orbit = fmap.iterate(args.v0, args.steps)
    segments = cobweb(orbit)
    if _format(args, scenario) == "csv":
        io.write_csv(out / "orbit.csv", *io.orbit_rows(orbit))
        io.write_csv(out / "cobweb.csv", *io.cobweb_rows(segments))
    else:
        io.write_json(out / "orbit.json", {"orbit": orbit})
        io.write_json(out / "cobweb.json",
                      {"segments": [[list(a), list(b)]
                                    for a, b in segments]})
    print(f"orbit of {args.steps} step(s) from v0={args.v0!r}: "
          f"final v = {orbit[-1]!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario, args.xi)
    spec = scenario.require_dm()
    for name, value in (("--step", args.step), ("--xi-min", args.xi_min),
                        ("--xi-max", args.xi_max)):
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if args.step <= 0:
        raise ConfigurationError("--step must be positive")
    if args.xi_min < 0.0:
        raise ConfigurationError(
            f"--xi-min must be nonnegative, got {args.xi_min!r}")
    if args.xi_max > 1.0:
        raise ConfigurationError(
            f"--xi-max must be at most 1, got {args.xi_max!r}")
    if args.xi_min > args.xi_max:
        raise ConfigurationError(
            f"--xi-min {args.xi_min!r} exceeds --xi-max {args.xi_max!r}")
    steps = (args.xi_max - args.xi_min) / args.step
    grid = _xi_grid(
        lambda: args.xi_min + np.arange(round(steps) + 1) * args.step,
        f"--step {args.step!r} needs {steps + 1:.4g} xi points from "
        f"{args.xi_min!r} to {args.xi_max!r}")
    out = _outdir(args, scenario)
    table = sweep_xi(spec, grid[grid <= args.xi_max + 1e-15])
    if _format(args, scenario) == "csv":
        io.write_csv(out / "sweep.csv", *io.sweep_rows(table))
    else:
        def values(column):     # Python floats, None for NaN (no value)
            return np.where(np.isnan(column), None, column).tolist()

        io.write_json(out / "sweep.json", [
            {"xi": xi, "v_star": v_star, "stability": stability.value,
             "v_minus": v_minus, "v_plus": v_plus}
            for xi, v_star, stability, v_minus, v_plus in zip(
                table.xi.tolist(), values(table.v_star), table.stability,
                values(table.v_minus), values(table.v_plus))])
    print(f"swept {len(table)} xi value(s); boundaries:")
    for t in regime_boundaries(spec):
        print(f"  xi = {t.xi!r}: {t.describe()}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load(args)
    sim = scenario.simulation()
    out = _outdir(args, scenario)
    record = sim.run()
    if _format(args, scenario) == "csv":
        io.write_csv(out / "run.csv", *io.run_rows(record))
    else:
        io.write_json(out / "run.json", io.run_payload(record))
    print(f"simulated {len(record.times)} step(s), dt = {record.dt!r}")
    print(f"conservation error: {record.conservation_error:.3e}")
    return EXIT_OK


def _validate_one(scenario: Scenario, args) -> tuple[bool, dict]:
    result = validate_spec(scenario.require_dm(), scenario.sim)
    payload = io.validation_payload(result)
    ok = result.agrees
    if result.v_star_rel_error is not None:
        ok = ok and result.v_star_rel_error <= args.vstar_tol
    if result.extrema_rel_errors is not None:
        ok = ok and max(result.extrema_rel_errors) <= args.extrema_tol
    payload["pass"] = ok
    return ok, payload


def cmd_validate(args) -> int:
    if args.family and args.xi is not None:
        raise ConfigurationError("--xi does not combine with --family, "
                                 "which validates the grid of --xi-step")
    scenario = _load(args)
    scenario.require_dm()
    if args.family:
        if not 0.0 < args.xi_step < 1.0:
            raise ConfigurationError("--xi-step must lie in (0, 1)")
        grid = _xi_grid(lambda: np.arange(args.xi_step, 1.0, args.xi_step),
                        f"--xi-step {args.xi_step!r} needs "
                        f"{1.0 / args.xi_step - 1.0:.4g} xi points")
    for name, tol in (("--vstar-tol", args.vstar_tol),
                      ("--extrema-tol", args.extrema_tol)):
        if not tol >= 0.0:
            raise ConfigurationError(f"{name} must be nonnegative, got {tol}")
    out = _outdir(args, scenario)
    if args.family:
        results = []
        all_ok = True
        for xi in grid:
            member = replace(scenario, spec=scenario.spec.with_xi(float(xi)))
            ok, payload = _validate_one(member, args)
            results.append(payload)
            all_ok = all_ok and ok
            status = "pass" if ok else "FAIL"
            print(f"xi = {float(xi):.4f}: "
                  f"{payload['measured']['verdict']} [{status}]")
        io.write_json(out / "validation.json", results)
        return EXIT_OK if all_ok else EXIT_VALIDATION
    ok, payload = _validate_one(scenario, args)
    io.write_json(out / "validation.json", payload)
    print(f"predicted: {payload['predicted']['stability']}, "
          f"measured: {payload['measured']['verdict']}")
    print("pass" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmflow",
        description="Kinematic-wave analysis of diverge-merge networks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats: bool = True):
        """The scenario, --xi and --out, and --format unless the command
        writes JSON only."""
        p.add_argument("scenario", help="scenario YAML file")
        p.add_argument("--xi", type=float, default=None,
                       help="override the route split of a dm scenario")
        p.add_argument("--out", default=None, help="output directory")
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("analyze", help="stability report of the return map")
    common(p, formats=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("orbit", help="iterate the return map and emit "
                                     "orbit + cobweb data")
    common(p)
    p.add_argument("--v0", type=float, required=True, help="initial out-flux")
    p.add_argument("--steps", type=int, default=60)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("sweep", help="bifurcation sweep over the route split")
    common(p)
    p.add_argument("--xi-min", type=float, default=0.0)
    p.add_argument("--xi-max", type=float, default=1.0)
    p.add_argument("--step", type=float, default=0.001)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="run the cell-transmission model")
    common(p)
    p.add_argument("--horizon", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="simulate and compare against the "
                                        "analytic prediction")
    common(p, formats=False)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--family", action="store_true",
                   help="sweep xi instead of validating a single value")
    p.add_argument("--xi-step", type=float, default=0.05)
    p.add_argument("--vstar-tol", type=float, default=0.01)
    p.add_argument("--extrema-tol", type=float, default=0.05)
    p.set_defaults(func=cmd_validate)
    return parser


def _configure_logging() -> None:
    name = os.environ.get("DMFLOW_LOG", "warning")
    level = logging.getLevelName(name.upper())
    if not isinstance(level, int):
        raise ConfigurationError(
            f"DMFLOW_LOG={name!r} is not a log level; use debug, info, "
            f"warning, error or critical")
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DmflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
