"""The CLI process's exit: `main` freezes the heap at exit instead of
letting the interpreter collect it, and nothing a command emits changes.

Each test runs `python -m dmflow.cli` in a fresh interpreter, the way the
console script and the benchmark run it, so the atexit handler has run by
the time the test reads the exit code, the outputs and the streams.
"""

import gc
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from dmflow.cli import main
from test_golden import GOLDEN, scenario_path

ROOT = Path(__file__).resolve().parent.parent
BIFURCATION = str(ROOT / "scenarios" / "dm_bifurcation.yaml")
RING_ROW = ["simulate", "perfbench/scenarios/ring20.yaml", "--format",
            "json", "--horizon", "5"]


def run(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """`python` with ARGS, importing dmflow from this checkout."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "DMFLOW_LOG": "warning", **env,
             "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)


def ring_row(out: Path) -> list[str]:
    """The module invocation of RING_ROW writing into `out`."""
    command, scenario, *options = RING_ROW
    return ["-m", "dmflow.cli", command, str(scenario_path(scenario)),
            *options, "--out", str(out)]


def test_simulate_writes_the_golden_bytes_and_exits_0(tmp_path):
    (stdout, digests), = [(out, d) for a, out, d in GOLDEN if a == RING_ROW]
    result = run(ring_row(tmp_path))
    assert (result.returncode, result.stdout, result.stderr) == (
        0, stdout, "")
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == digests


def test_validate_failure_exits_1_with_its_fail_line(tmp_path):
    # Cut short, the damped member's tail still drifts: undetermined.
    result = run(["-m", "dmflow.cli", "validate", BIFURCATION, "--xi",
                  "0.55", "--horizon", "60", "--out", str(tmp_path)])
    assert (result.returncode, result.stderr) == (1, "")
    assert result.stdout.splitlines()[-1] == "FAIL"
    assert (tmp_path / "validation.json").exists()


def test_configuration_error_exits_2(tmp_path):
    result = run(["-m", "dmflow.cli", "simulate", BIFURCATION, "--horizon",
                  "nan", "--out", str(tmp_path / "out")])
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


def test_debug_lines_reach_stderr(tmp_path):
    result = run(ring_row(tmp_path), DMFLOW_LOG="debug")
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert lines[0].startswith("DEBUG dmflow.ctm: simulation ready: 80 links")
    assert lines[-1] == "DEBUG dmflow.ctm: run: 111 of 111 steps, t = 4.995"


def test_main_registers_one_freeze_handler_however_often_it_runs(tmp_path):
    # main looks gc.freeze up when it runs, so a stand-in that reports
    # each call shows how many handlers the process ran at exit.
    code = (
        "import gc, sys\n"
        "from dmflow.cli import main\n"
        "freeze = gc.freeze\n"
        "def reporting():\n"
        "    print('freeze', gc.isenabled(), flush=True)\n"
        "    freeze()\n"
        "gc.freeze = reporting\n"
        "for out in sys.argv[2:]:\n"
        "    assert main(['analyze', sys.argv[1], '--out', out]) == 0\n"
        "print('returned', gc.get_freeze_count(), flush=True)\n")
    result = run(["-c", code, BIFURCATION, str(tmp_path / "a"),
                  str(tmp_path / "b")])
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-2:] == ["returned 0", "freeze True"]


def test_main_leaves_collection_alone_while_it_runs(tmp_path):
    # In-process callers keep collecting their cyclic garbage.
    frozen = gc.get_freeze_count()
    assert main(["analyze", BIFURCATION, "--out", str(tmp_path)]) == 0
    assert gc.isenabled() and gc.get_freeze_count() == frozen
