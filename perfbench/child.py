"""One benchmark run of the dmflow CLI inside a fresh interpreter.

Started by run.py as

    python3 perfbench/child.py MODE INFO_JSON [ARGS...]

and writes what it observed to INFO_JSON before exiting.  MODE is one of

  probe  run `dmflow.cli.main(ARGS)` untraced.  Only `Simulation.run` and
         the CLI's `sweep_xi` are wrapped, once per call, to note when the
         first of them starts (the end of set-up) and the resolved dt,
         steps, links and conservation error of every run.
  setup  as probe, but exit as soon as that first call starts.
  trace  as probe, plus a span around every call into the public
         functions of scenario, ctm, validation, poincare, bifurcation
         and io, made through the binding the caller uses.
  calls  ARGS is one scenario file: build its simulation, step past a
         warm-up, then count Python-level calls per `Simulation.step`
         with a `sys.setprofile` hook.

All times are `time.monotonic_ns()`, the clock run.py uses to stamp the
spawn, so the two can be subtracted.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import dmflow  # noqa: E402
from dmflow import bifurcation, cli, ctm, io, validation  # noqa: E402
from dmflow.ctm import Simulation  # noqa: E402
from dmflow.scenario import load_scenario  # noqa: E402

WARMUP_STEPS = 20
COUNTED_STEPS = 50

# Span name -> (owner, attribute) bindings to replace.  Each binding is the
# one the caller looks up at call time, so the wrapper sees every call made
# through it; calls a module makes to its own private helpers stay inside
# the span of the public function that made them.
SPANNED = {
    "scenario.load": [(cli, "load_scenario")],
    "ctm.init": [(Simulation, "__init__")],
    "ctm.run": [(Simulation, "run")],
    "ctm.step": [(Simulation, "step")],
    "ctm.junction": [(ctm, "diverge_flux"), (ctm, "merge_flux")],
    "validation.validate_spec": [(cli, "validate_spec")],
    "validation.detect": [(validation, "detect_oscillation")],
    "poincare.classify": [(cli, "classify_stability"),
                          (validation, "classify_stability"),
                          (bifurcation, "classify_stability")],
    "bifurcation.sweep": [(cli, "sweep_xi")],
    "bifurcation.boundaries": [(cli, "regime_boundaries")],
    "io.rows": [(io, "run_rows"), (io, "sweep_rows"), (io, "run_payload"),
                (io, "validation_payload")],
    "io.write": [(io, "write_csv"), (io, "write_json")],
}


class Tracer:
    """In-memory spans: (name index, start ns, end ns, parent index)."""

    def __init__(self):
        self.names = list(SPANNED)
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, name: str, fn):
        code = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.monotonic_ns

        def spanned(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (code, start, clock(), parent)
                stack.pop()

        return spanned

    def install(self) -> None:
        for name, bindings in SPANNED.items():
            for owner, attr in bindings:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr)))


def install_probe(info: dict, exit_at_first: bool) -> None:
    """Wrap Simulation.run and cli.sweep_xi to record set-up end and work."""

    def first_call() -> None:
        if info["first_call_ns"] is None:
            info["first_call_ns"] = time.monotonic_ns()
            if exit_at_first:
                write_info(info)
                os._exit(0)

    run = Simulation.run
    sweep = cli.sweep_xi

    def probed_run(self, horizon=None):
        first_call()
        record = run(self, horizon)
        info["runs"].append({
            "links": len(self.links), "steps": len(record.times),
            "dt": record.dt,
            "conservation_error": record.conservation_error,
            "conservation_error_c1": record.conservation_error_c1})
        return record

    def probed_sweep(template, grid):
        first_call()
        points = sweep(template, grid)
        info["sweep_points"] += len(points)
        return points

    Simulation.run = probed_run
    cli.sweep_xi = probed_sweep


def count_calls(scenario_path: str) -> dict:
    sim = load_scenario(scenario_path).simulation()
    for _ in range(WARMUP_STEPS):
        sim.step()
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        for _ in range(COUNTED_STEPS):
            sim.step()
    finally:
        sys.setprofile(None)
    return {"links": len(sim.links),
            "py_calls_per_step": calls / COUNTED_STEPS}


def write_info(info: dict) -> None:
    Path(info["path"]).write_text(json.dumps(info), encoding="utf-8")


def main() -> int:
    mode, info_path, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    if not Path(dmflow.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported dmflow from {dmflow.__file__}, "
                         f"not from {SRC}")
    info = {"path": info_path, "mode": mode, "first_call_ns": None,
            "main_end_ns": None, "runs": [], "sweep_points": 0,
            "versions": {"python": sys.version.split()[0],
                         "numpy": numpy.__version__,
                         "dmflow": dmflow.__version__}}
    if mode == "calls":
        info.update(count_calls(args[0]))
        write_info(info)
        return 0
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    install_probe(info, exit_at_first=(mode == "setup"))
    rc = cli.main(args)
    info["main_end_ns"] = time.monotonic_ns()
    info["exit_code"] = rc
    if tracer is not None:
        info["span_names"] = tracer.names
        info["spans"] = tracer.spans
    write_info(info)
    return rc


if __name__ == "__main__":
    sys.exit(main())
