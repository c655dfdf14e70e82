"""Golden bytes of the CLI: sha256 of every emitted file plus exact stdout.

The emitted CSV/JSON is byte-deterministic, so a refactor of the simulator
or the scenario layer that keeps every float operation and its order must
leave these digests unchanged.  The rows cover every command and the
`--xi` override.  A deliberate change of the numbers updates them here,
with the reason in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from dmflow.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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
]


@pytest.mark.parametrize(
    "argv,stdout,digests", GOLDEN,
    ids=["-".join(a.lstrip("-") for a in argv) for argv, _, _ in GOLDEN])
def test_cli_outputs_match_golden_bytes(argv, stdout, digests, tmp_path,
                                        capsys):
    command, scenario, *options = argv
    code = main([command, str(SCENARIOS / f"{scenario}.yaml"), *options,
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == stdout
    emitted = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert emitted == digests
