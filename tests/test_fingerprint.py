"""One sha256 over short library runs of every scenario, on both diagram
shapes and both junction evaluators.

The golden rows pin the CLI's bytes, but only on the triangular diagram
and on the evaluator each network's size selects.  This digest also
covers the Greenshields diagram and the forced other evaluator, so a
refactor of the step that moves one bit of any run fails here.  A
deliberate change of the numbers updates the digest, with the reason in
CHANGES.md.
"""

import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from dmflow import ctm
from dmflow.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml")) + [
    ROOT / "perfbench" / "scenarios" / "ring20.yaml"]
XIS = (0.1, 0.30000000000000004, 0.4, 0.55)
HORIZON = 20.0
DIGEST = "651e56ea2dc24d78c6e604508aebaa3dfffefdcdc20781e29f36cee07081189e"


def scenario_at(path: Path, xi: float, tmp_path: Path):
    """The scenario of `path` with its network's `xi` set to `xi`."""
    text, count = re.subn(r"(?m)^  xi: .*$", f"  xi: {xi!r}",
                          path.read_text(encoding="utf-8"))
    assert count == 1, path
    copy = tmp_path / path.name
    copy.write_text(text, encoding="utf-8")
    return load_scenario(copy)


def simulated(scenario, shape: str, scalar: bool):
    """A run of `scenario` on `shape`, with the junction evaluator forced
    through the private row threshold."""
    scenario = replace(scenario, sim=replace(scenario.sim, shape=shape,
                                             horizon=HORIZON))
    threshold = ctm._SCALAR_ROWS
    ctm._SCALAR_ROWS = math.inf if scalar else -1
    try:
        sim = scenario.simulation()
    finally:
        ctm._SCALAR_ROWS = threshold
    assert sim._scalar is scalar
    return sim, sim.run()


def test_short_runs_match_their_fingerprint(tmp_path):
    digest = hashlib.sha256()
    for path in SCENARIOS:
        for xi in XIS:
            scenario = scenario_at(path, xi, tmp_path)
            for shape in ("triangular", "greenshields"):
                for scalar in (True, False):
                    sim, record = simulated(scenario, shape, scalar)
                    arrays = [record.times, record.vehicles,
                              *record.outflux.values(), sim.k, sim.k1, sim.q,
                              np.array([record.conservation_error,
                                        record.conservation_error_c1,
                                        sim.t])]
                    for array in arrays:
                        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == DIGEST
