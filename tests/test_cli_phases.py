"""`tools/cli_phases.py`, the set-up, work and exit phases of CLI runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def phases(*args: str) -> dict:
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_phases.py"), "-n", "1",
         *args], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert (report["args"], report["runs"]) == (list(args), 1)
    (checkout, split), = report["checkouts"].items()
    assert Path(checkout) == ROOT
    return split


def test_a_short_simulate_has_three_nonnegative_phases():
    split = phases("simulate", "scenarios/dm_classic.yaml", "--horizon", "10")
    assert list(split) == ["setup", "work", "exit"]
    for s in split.values():
        assert 0.0 <= s["q1"] == s["median"] == s["q3"]


def test_a_command_without_a_run_has_setup_and_work_as_one_phase():
    split = phases("analyze", "scenarios/dm_classic.yaml")
    assert list(split) == ["setup+work", "exit"]
    assert all(s["median"] >= 0.0 for s in split.values())
