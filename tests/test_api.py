"""The public surface: package re-exports, module `__all__` lists and the
README's library sketch."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dmflow
from dmflow.poincare import StabilityClass

README = Path(__file__).resolve().parent.parent / "README.md"
DOCUMENTED = {
    "DmSpec", "classify_stability", "build_map", "period2_points",
    "sweep_xi", "build_dm", "Simulation", "SimConfig", "validate_spec",
    "DmflowError", "ConfigurationError", "DomainError",
    "UnsupportedRegimeError",
}
MODULES = ["dmflow"] + [f"dmflow.{m.name}"
                        for m in pkgutil.iter_modules(dmflow.__path__)]


def test_package_exports_only_the_documented_names():
    assert len(dmflow.__all__) == 13
    assert set(dmflow.__all__) == DOCUMENTED
    assert isinstance(dmflow.__version__, str)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_readme_library_sketch_runs_as_documented():
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```",
                       README.read_text(encoding="utf-8"), re.S).group(1)
    namespace: dict = {}
    exec(sketch, namespace)
    report = namespace["report"]
    assert report.stability is StabilityClass.UNSTABLE
    assert report.fixed_point == pytest.approx(1.0, abs=1e-12)
    cycle = namespace["cycle"]
    assert (cycle.v_minus, cycle.v_plus) == pytest.approx((0.75, 1.375),
                                                          abs=1e-12)
    table = namespace["table"]
    assert len(table) == len(table.v_plus) == 101
    assert (table.xi[40], table.stability[40], table.v_minus[40]) == (
        0.4, StabilityClass.UNSTABLE, 0.75)
    assert namespace["result"].agrees
