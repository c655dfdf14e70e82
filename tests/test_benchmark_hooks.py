"""The benchmark's hooks into the package, read from perfbench/child.py.

The benchmark wraps package bindings by name and counts sweep points with
len(); a refactor that drops a wrapped binding, or changes what len() of a
sweep counts, fails here instead of in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from dmflow import cli
from dmflow.ctm import Simulation

ROOT = Path(__file__).resolve().parent.parent
BIFURCATION = str(ROOT / "scenarios" / "dm_bifurcation.yaml")


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location(
        "perfbench_child", ROOT / "perfbench" / "child.py")
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_spanned_binding_resolves(child):
    missing = [(name, owner.__name__, attr)
               for name, bindings in child.SPANNED.items()
               for owner, attr in bindings
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_probed_sweep_counts_the_emitted_rows(child, monkeypatch, tmp_path):
    # install_probe rebinds these two; monkeypatch restores them afterwards.
    monkeypatch.setattr(Simulation, "run", Simulation.run)
    monkeypatch.setattr(cli, "sweep_xi", cli.sweep_xi)
    info = {"first_call_ns": None, "runs": [], "sweep_points": 0}
    child.install_probe(info, exit_at_first=False)
    assert cli.main(["sweep", BIFURCATION, "--step", "0.01",
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert info["first_call_ns"] is not None
    assert info["sweep_points"] == len(rows) == 101
