"""The public surface: package re-exports, module `__all__` lists and the
README's library sketch."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import dmflow
from dmflow.poincare import StabilityClass

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
DOCUMENTED = {
    "DmSpec", "classify_stability", "build_map", "sweep_xi", "build_dm",
    "Simulation", "SimConfig", "validate_spec", "DmflowError",
    "ConfigurationError", "DomainError", "UnsupportedRegimeError",
}
MODULES = ["dmflow"] + [f"dmflow.{m.name}"
                        for m in pkgutil.iter_modules(dmflow.__path__)]
# Exported names that nothing in the library, the benchmark or the README
# uses yet, each with the ROADMAP item that is to call it.
ROADMAP_CALLERS = {
    "stationary_states": "items 1 and 12",
    "measure_decay_ratio": "item 7",
}


def test_package_exports_only_the_documented_names():
    assert len(dmflow.__all__) == 12
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


def library_references() -> set[str]:
    """Names and attributes read anywhere in `src/dmflow`, except a
    top-level definition's reads of its own name."""
    used = set()
    for path in (ROOT / "src" / "dmflow").glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            nodes = list(ast.walk(stmt))
            used |= {node.id for node in nodes if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)} - own
            used |= {node.attr for node in nodes
                     if isinstance(node, ast.Attribute)}
    return used


def test_every_exported_name_has_a_caller():
    """Use it or remove it: each name in a module's `__all__` is read by
    the library, the benchmark or the README, or a ROADMAP item is to
    call it."""
    exported = {n for m in MODULES
                for n in getattr(importlib.import_module(m), "__all__", ())}
    text = README.read_text(encoding="utf-8") + "".join(
        p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob(
            "*.py"))
    referenced = library_references() | {
        n for n in exported if re.search(rf"\b{n}\b", text)}
    assert sorted(exported - referenced - set(ROADMAP_CALLERS)) == []
    # An entry goes once its item lands, or with the name.
    assert sorted(set(ROADMAP_CALLERS) - (exported - referenced)) == []
