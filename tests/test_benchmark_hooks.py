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
RING20 = str(ROOT / "perfbench" / "scenarios" / "ring20.yaml")


def load(name: str):
    """The perfbench script `name`.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="module")
def child():
    return load("child")


@pytest.fixture(scope="module")
def bench():
    return load("run")


@pytest.fixture
def probed(child, monkeypatch):
    """The info dict of `child.install_probe`, installed on the package."""
    # install_probe rebinds these two; monkeypatch restores them afterwards.
    monkeypatch.setattr(Simulation, "run", Simulation.run)
    monkeypatch.setattr(cli, "sweep_xi", cli.sweep_xi)
    info = {"first_call_ns": None, "runs": [], "sweep_points": 0}
    child.install_probe(info, exit_at_first=False)
    return info


def test_every_spanned_binding_resolves(child):
    missing = [(name, owner.__name__, attr)
               for name, bindings in child.SPANNED.items()
               for owner, attr in bindings
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_probed_sweep_counts_the_emitted_rows(probed, tmp_path):
    assert cli.main(["sweep", BIFURCATION, "--step", "0.01",
                     "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert probed["first_call_ns"] is not None
    assert probed["sweep_points"] == len(rows) == 101


def test_probed_family_records_one_run_per_member(bench, probed, tmp_path):
    # The dm_family workload expects one 4-link run per member of the
    # 0.1-step grid; a batched simulator would have to keep that count.
    cli.main(["validate", BIFURCATION, "--family", "--xi-step",
              bench.DmFamily.xi_step, "--horizon", "5",
              "--out", str(tmp_path)])
    assert [run["links"] for run in probed["runs"]] == [4] * 9
    outcome = bench.Outcome()
    bench._check_runs(probed, outcome, 9, 4)
    assert outcome.problems == []
    assert outcome.work == sum(4 * run["steps"] for run in probed["runs"])


def test_probed_ring_run_counts_the_emitted_rows(bench, probed, tmp_path):
    assert cli.main(["simulate", RING20, "--horizon", "2",
                     "--out", str(tmp_path)]) == 0
    outcome = bench.Outcome()
    bench._check_runs(probed, outcome, 1, 4 * bench.RingSimulate.stages)
    assert outcome.problems == []
    [run] = probed["runs"]
    rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
    assert run["links"] == 80
    assert run["steps"] * run["links"] == outcome.work == len(rows) > 0
