"""Golden bytes of the CLI: sha256 of every emitted file plus exact stdout.

The emitted CSV/JSON is byte-deterministic, so a refactor of the simulator
or the scenario layer that keeps every float operation and its order must
leave these digests unchanged.  The rows cover every command and the
`--xi` override.  A deliberate change of the numbers updates them here,
with the reason in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmflow.cli import EXIT_OK, EXIT_VALIDATION, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

# ([command, scenario, options...], exact stdout, {emitted file: sha256})
GOLDEN = [
    (["simulate", "dm_classic"],
     "simulated 8889 step(s), dt = 0.045000000000000005\n"
     "conservation error: 5.058e-15\n",
     {"run.csv":
      "7645fdd6fcf8f12638cac708d3b918c32f2c84961be1020c53807df550c62454"}),
    (["simulate", "dm_bifurcation"],
     "simulated 8889 step(s), dt = 0.045000000000000005\n"
     "conservation error: 4.399e-15\n",
     {"run.csv":
      "df5704efcc292aedf7025b0337db0ec6ed72818ff268a852394a96a7a102f54f"}),
    (["simulate", "beltway_gridlock"],
     "simulated 4444 step(s), dt = 0.045000000000000005\n"
     "conservation error: 1.219e-14\n",
     {"run.csv":
      "d7cb5b2db95ab080a9d4f407a221833f2e54961f36714fe787d39a5b1e220d01"}),
    (["validate", "dm_classic"],
     "predicted: unstable, measured: persistent_oscillation\npass\n",
     {"validation.json":
      "b83200c30f1fa0f6d0c9b37751aed348757ecae29dbffc867aaaf76b596c24d5"}),
    (["analyze", "dm_classic"],
     "regime: soc_suc\nstability: unstable\nfixed point: v* = 0.9\n"
     "two-cycle: (0.7777777777777777, 1.0)\n",
     {"analysis.json":
      "14d36d5a3cc5850f980cf01de0004a3c6bd7becc53b7f30464f589b552b068df"}),
    (["analyze", "dm_bifurcation", "--xi", "0.4"],
     "regime: soc_suc\nstability: unstable\nfixed point: v* = 1.0\n"
     "two-cycle: (0.75, 1.3750000000000002)\n",
     {"analysis.json":
      "ea1d78e501a1579686da0b7c0828eae39b561fd24c7f191ae6161731e186e95c"}),
    (["analyze", "beltway_gridlock"],
     "beltway with 4 ramp pair(s): gridlock_stable\n"
     "per-pair flux ratio: 0.8749999999999999\n"
     "flow half-life: 5.190893069684427 pairs\n",
     {"analysis.json":
      "50bb10a603c29279a71c28bac6c46843a6377c9403859907e24427165d23420a"}),
    (["orbit", "dm_bifurcation", "--xi", "0.4", "--v0", "1.1"],
     "orbit of 60 step(s) from v0=1.1: final v = 1.3750000000000002\n",
     {"cobweb.csv":
      "ccbd710d08bf4c0921e4f39d65d2a92a43d6f6992838f4af646ef760756df956",
      "orbit.csv":
      "bf8c3e451f90d4a6acbf4f5d138887dbb391b451b43d1ac7f98c0dd29601cf87"}),
    # Clockwise, overlap and finite-time `max_steps` reports of the map.
    (["analyze", "dm_bifurcation", "--xi", "0.1"],
     "regime: cw_finite_time\n"
     "stability: finite_time (converges in <= 1 steps)\n"
     "fixed point: v* = 0.5\n",
     {"analysis.json":
      "4286fa57a199f74adbde667f27034d1ffcf74dba33548c899fe613666a500db4"}),
    (["analyze", "dm_bifurcation", "--xi", "0.3"],
     "regime: ccw_cw_overlap\n"
     "stability: finite_time (converges in <= 2 steps)\n"
     "fixed point: v* = 0.75\n",
     {"analysis.json":
      "a12264c3458fbf937b34de940e95006ba48f82cefe49b48a09e256f7c63411bf"}),
    (["orbit", "dm_bifurcation", "--xi", "0.25", "--v0", "1.1"],
     "orbit of 60 step(s) from v0=1.1: final v = 0.625\n",
     {"cobweb.csv":
      "91c9c84702fb4dc54518aa93febb11d662bc018e865620b3b11f0abd97dec0a5",
      "orbit.csv":
      "5f09f9b4415fcede0d4aafc8bea430b9dbdfb0a62233461b173750543561a967"}),
    (["sweep", "dm_bifurcation"],
     "swept 1001 xi value(s); boundaries:\n"
     "  xi = 0.2: finite_time -> [finite_time] -> asymptotic\n"
     "  xi = 0.3: asymptotic -> [finite_time] -> unstable\n"
     "  xi = 0.5: unstable -> [neutral_two_cycle_continuum] -> asymptotic\n"
     "  xi = 0.6: asymptotic -> [finite_time] -> finite_time\n",
     {"sweep.csv":
      "8486b06f0d37a9d3f11b15b83f69f0aabcb360427ef303278689b1513fc71612"}),
    (["simulate", "dm_classic", "--xi", "0.4", "--horizon", "30"],
     "simulated 667 step(s), dt = 0.045000000000000005\n"
     "conservation error: 4.066e-15\n",
     {"run.csv":
      "d4e83b76e38d4008e73ed369aef8a6ac8ca7612722cafe4b18551d0c37a2ca22"}),
    (["validate", "dm_bifurcation", "--family", "--xi-step", "0.45",
      "--horizon", "150"],
     "xi = 0.4500: persistent_oscillation [pass]\n"
     "xi = 0.9000: converged [pass]\n",
     {"validation.json":
      "e6eafe8afb5456d2a4e4c76cba0ddbe3866a462bd5ac6abaed165692eb860c68"}),
    (["sweep", "dm_classic"],
     "swept 1002 xi value(s); boundaries:\n"
     "  xi = 0.0: - -> [finite_time] -> asymptotic\n"
     "  xi = 0.3333333333333333: asymptotic -> [finite_time] -> unstable\n"
     "  xi = 0.5: unstable -> [finite_time] -> finite_time\n",
     {"sweep.csv":
      "2498c002cf2dc70327b1a5c75050c27c06c05f8bc1948c24abf832dd38d206cb"}),
    (["sweep", "dm_bifurcation", "--step", "0.01", "--format", "json"],
     "swept 101 xi value(s); boundaries:\n"
     "  xi = 0.2: finite_time -> [finite_time] -> asymptotic\n"
     "  xi = 0.3: asymptotic -> [finite_time] -> unstable\n"
     "  xi = 0.5: unstable -> [neutral_two_cycle_continuum] -> asymptotic\n"
     "  xi = 0.6: asymptotic -> [finite_time] -> finite_time\n",
     {"sweep.json":
      "9a575c08b89465f315618fbde41bc4affdadff4b8b07a8694c205a002beb60ff"}),
    # An offset start and a step that does not divide the range: pins the
    # grid arithmetic and the end filter, which drops the 1430th point.
    (["sweep", "dm_bifurcation", "--xi-min", "3.7e-06", "--step", "0.0007"],
     "swept 1433 xi value(s); boundaries:\n"
     "  xi = 0.2: finite_time -> [finite_time] -> asymptotic\n"
     "  xi = 0.3: asymptotic -> [finite_time] -> unstable\n"
     "  xi = 0.5: unstable -> [neutral_two_cycle_continuum] -> asymptotic\n"
     "  xi = 0.6: asymptotic -> [finite_time] -> finite_time\n",
     {"sweep.csv":
      "3b99fe44503fb6c89aecf064f66b2a2c1bfa78595c084e16590797bc1588acf8"}),
    # The JSON run output carries `vehicles` and every digit of the
    # conservation error, which run.csv does not.  The beltway has
    # fixed-xi diverges, constant-demand on-ramps and sink off-ramps, so
    # it covers every kind of boundary endpoint.
    (["simulate", "dm_classic", "--format", "json", "--horizon", "30"],
     "simulated 667 step(s), dt = 0.045000000000000005\n"
     "conservation error: 4.123e-15\n",
     {"run.json":
      "68549151d587891c73ddcfcb027d2a6ab1d264485fe50c04298b75510b2e7ba3"}),
    (["simulate", "beltway_gridlock", "--format", "json", "--horizon", "30"],
     "simulated 667 step(s), dt = 0.045000000000000005\n"
     "conservation error: 8.073e-15\n",
     {"run.json":
      "0764a04331544df6d8046e8c922d58f98594c6934efad23fa1638a61e7fb7219"}),
    # xi = 0.8 reaches a state one step leaves bit for bit unchanged by
    # step 165 of 8889: run.csv pins the time stamps and fluxes of every
    # later step, run.json the vehicles and both conservation errors.
    (["simulate", "dm_bifurcation", "--xi", "0.8"],
     "simulated 8889 step(s), dt = 0.045000000000000005\n"
     "conservation error: 2.825e-15\n",
     {"run.csv":
      "1034384c33a080abb1ecff6c7e971f68d9698de354b2fa8f61c46298b9470935"}),
    (["simulate", "dm_bifurcation", "--xi", "0.8", "--format", "json"],
     "simulated 8889 step(s), dt = 0.045000000000000005\n"
     "conservation error: 2.825e-15\n",
     {"run.json":
      "ff0a44a38fa58a77dc7f034892fc3f41a5a2ba949d26484a802dc85b9f7a2da3"}),
    # The benchmark's own family: all nine members pass, the clockwise
    # ones at xi = 0.1 and 0.2 read C3 minus link 2's out-flux, and the
    # two-cycle at xi = 0.30000000000000004 is 2e-16 wide, so its tail
    # converges onto both points.
    (["validate", "dm_bifurcation", "--family", "--xi-step", "0.1"],
     "xi = 0.1000: converged [pass]\n"
     "xi = 0.2000: converged [pass]\n"
     "xi = 0.3000: converged [pass]\n"
     "xi = 0.4000: persistent_oscillation [pass]\n"
     "xi = 0.5000: persistent_oscillation [pass]\n"
     "xi = 0.6000: converged [pass]\n"
     "xi = 0.7000: converged [pass]\n"
     "xi = 0.8000: converged [pass]\n"
     "xi = 0.9000: converged [pass]\n",
     {"validation.json":
      "a95d7b21ce2940684e48cf1f9f34d91d9a9f16f772ee98b478f9446a43a43363"}),
    # The benchmark's 80-link ring of 20 DM stages, the only `dmn` network
    # and the largest run.csv here; a path stands for itself, relative to
    # the repository root.
    (["simulate", "perfbench/scenarios/ring20.yaml"],
     "simulated 1000 step(s), dt = 0.045000000000000005\n"
     "conservation error: 4.978e-13\n",
     {"run.csv":
      "83a0147451c7f63aa221e44dc1a566b753c0e8e47d25e0884387622a8c1a3e43"}),
    (["simulate", "perfbench/scenarios/ring20.yaml", "--format", "json",
      "--horizon", "5"],
     "simulated 111 step(s), dt = 0.045000000000000005\n"
     "conservation error: 3.810e-13\n",
     {"run.json":
      "5515a00ad38f383e8cd09b75352c59ded2d8ef5a6eb005b71c4d7c7d1e4e5e6a"}),
    # The only row through the `dmn` branch of `analyze`.
    (["analyze", "perfbench/scenarios/ring20.yaml"],
     "ring of 20 stage(s): bistable\n"
     "perturbation growth per lap: 3325.256730079641\n",
     {"analysis.json":
      "26ef5b25c9b92affb9f7d1b0e3bd53377937957b135b8904d7b2bd462977c332"}),
]


def scenario_path(scenario: str) -> Path:
    """A committed scenario by name, or a file by its path from ROOT."""
    if "/" in scenario:
        return ROOT / scenario
    return SCENARIOS / f"{scenario}.yaml"


@pytest.mark.parametrize(
    "argv,stdout,digests", GOLDEN,
    ids=["-".join(a.lstrip("-") for a in argv) for argv, _, _ in GOLDEN])
def test_cli_outputs_match_golden_bytes(argv, stdout, digests, tmp_path,
                                        capsys):
    command, scenario, *options = argv
    code = main([command, str(scenario_path(scenario)), *options,
                 "--out", str(tmp_path)])
    assert code == (EXIT_VALIDATION if "FAIL" in stdout else EXIT_OK)
    assert capsys.readouterr().out == stdout
    emitted = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert emitted == digests


def test_debug_log_goes_to_stderr_and_leaves_outputs_unchanged(tmp_path):
    argv = ["simulate", "dm_bifurcation", "--xi", "0.8"]
    (stdout, digests), = [(out, d) for a, out, d in GOLDEN if a == argv]
    command, scenario, *options = argv
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dmflow.cli import main; sys.exit(main())",
         command, str(scenario_path(scenario)), *options,
         "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path, "DMFLOW_LOG": "debug"},
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == digests
    assert "dmflow.ctm: run: 256 of 8889 steps" in result.stderr
    assert "dmflow.ctm: run: state settled at step 256" in result.stderr
