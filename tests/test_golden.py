"""Golden bytes of the CLI: sha256 of every emitted file plus exact stdout.

The emitted CSV/JSON is byte-deterministic, so a refactor of the simulator
that keeps every float operation and its order must leave these digests
unchanged.  A deliberate change of the numbers updates them here, with the
reason in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from dmflow.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (command, scenario, exact stdout, {emitted file: sha256})
GOLDEN = [
    ("simulate", "dm_classic",
     "simulated 8889 step(s), dt = 0.045000000000000005\n"
     "conservation error: 5.058e-15\n",
     {"run.csv":
      "7645fdd6fcf8f12638cac708d3b918c32f2c84961be1020c53807df550c62454"}),
    ("simulate", "dm_bifurcation",
     "simulated 8889 step(s), dt = 0.045000000000000005\n"
     "conservation error: 4.399e-15\n",
     {"run.csv":
      "df5704efcc292aedf7025b0337db0ec6ed72818ff268a852394a96a7a102f54f"}),
    ("simulate", "beltway_gridlock",
     "simulated 4444 step(s), dt = 0.045000000000000005\n"
     "conservation error: 1.219e-14\n",
     {"run.csv":
      "d7cb5b2db95ab080a9d4f407a221833f2e54961f36714fe787d39a5b1e220d01"}),
    ("validate", "dm_classic",
     "predicted: unstable, measured: persistent_oscillation\npass\n",
     {"validation.json":
      "b83200c30f1fa0f6d0c9b37751aed348757ecae29dbffc867aaaf76b596c24d5"}),
]


@pytest.mark.parametrize("command,scenario,stdout,digests", GOLDEN,
                         ids=[f"{c}-{s}" for c, s, _, _ in GOLDEN])
def test_cli_outputs_match_golden_bytes(command, scenario, stdout, digests,
                                        tmp_path, capsys):
    code = main([command, str(SCENARIOS / f"{scenario}.yaml"),
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == stdout
    emitted = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert emitted == digests
