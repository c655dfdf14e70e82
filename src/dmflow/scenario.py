"""Scenario files: a declarative YAML document describing one experiment.

Sections: `network` (topology kind and its parameters), `diagram`
(flow-density shape and speeds), `simulation` (grid, time step, horizon),
`initial` (starting profile) and `output` (directory and format defaults).
The JSON-Schema (Draft 2020-12) that a document must satisfy is the
package file scenario.schema.json, read once at import and exported as
SCENARIO_SCHEMA.  A small interpreter of the keywords it uses checks
documents with jsonschema's own messages, so loading a scenario does not
import jsonschema; numbers must also be finite, which JSON-Schema cannot
express.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Number
from pathlib import Path

import yaml

from .ctm import SimConfig, Simulation
from .errors import ConfigurationError, DomainError
from .network import (BeltwaySpec, DmnSpec, DmSpec, beltway_start,
                      build_beltway, build_dm, build_dmn)

__all__ = ["Scenario", "load_scenario", "SCENARIO_SCHEMA"]

SCENARIO_SCHEMA: dict = json.loads(Path(__file__).with_name(
    "scenario.schema.json").read_text(encoding="utf-8"))


# The keys each kind takes besides `kind`, per section: (required,
# optional).  A key of another kind is a configuration error; an optional
# key left out takes the default of the spec that reads it.
_KEYS = {
    "network": {
        "dm": (("capacities", "beta", "xi"),
               ("lengths", "origin_demand", "destination_supply")),
        "dmn": (("n", "xi"), ("scale", "beta")),
        "beltway": (("pairs", "xi", "beta"),
                    ("ring_capacity", "segment_length", "ramp_demand",
                     "offramp_supply")),
    },
    "initial": {"empty": ((), ()), "ring_flow": (("flow",), ())},
}
_BUILDERS = {"dm": build_dm, "dmn": build_dmn, "beltway": build_beltway}


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: network description plus simulation settings."""

    kind: str
    spec: DmSpec | DmnSpec | BeltwaySpec    # the `network:` section
    sim: SimConfig
    initial_flow: float | None      # ring flow of a congested start
    out_dir: str
    out_format: str

    def require_dm(self) -> DmSpec:
        if self.kind != "dm":
            raise ConfigurationError(
                f"this command needs a 'dm' network, scenario has "
                f"{self.kind!r}")
        return self.spec

    def simulation(self) -> Simulation:
        sim = Simulation(_BUILDERS[self.kind](self.spec), self.sim)
        if self.initial_flow is not None:
            sim.load(beltway_start(self.spec, self.initial_flow))
        return sim


# Draft 2020-12 type names: bool is not a number, 20.0 is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": lambda x: isinstance(x, Number) and not isinstance(x, bool),
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)
                          or isinstance(x, float) and x.is_integer()),
}
# Keywords that constrain only instances of one type.
_APPLIES_TO = {
    "required": "object", "properties": "object",
    "additionalProperties": "object", "items": "array",
    "minItems": "array", "maxItems": "array", "minimum": "number",
    "maximum": "number", "exclusiveMinimum": "number",
}


def _same(a, b) -> bool:
    """JSON equality of scalars: 1 equals 1.0, but true is not 1."""
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _schema_errors(instance, schema: dict, path: tuple = ()):
    """Yield (path, message) for each keyword of `schema` that `instance`
    breaks, in schema order and worded as jsonschema words them.

    Only the keywords SCENARIO_SCHEMA uses are interpreted; any other
    raises, so that no rule added to the schema goes unenforced.
    """
    for key, value in schema.items():
        if key in _APPLIES_TO and not _TYPES[_APPLIES_TO[key]](instance):
            continue
        if key in ("$schema", "title"):
            pass
        elif key == "type":
            types = [value] if isinstance(value, str) else value
            if not any(_TYPES[t](instance) for t in types):
                yield path, (f"{instance!r} is not of type "
                             + ", ".join(repr(t) for t in types))
        elif key == "enum":
            if not any(_same(instance, v) for v in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "const":
            if not _same(instance, value):
                yield path, f"{value!r} was expected"
        elif key == "anyOf":
            if all(any(_schema_errors(instance, s, path)) for s in value):
                yield path, (f"{instance!r} is not valid under any of the "
                             f"given schemas")
        elif key == "required":
            for name in value:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "properties":
            for name, sub in value.items():
                if name in instance:
                    yield from _schema_errors(instance[name], sub,
                                              path + (name,))
        elif key == "additionalProperties" and value is False:
            known = schema.get("properties", {})
            extras = sorted({k for k in instance if k not in known}, key=str)
            if extras:
                yield path, ("Additional properties are not allowed ("
                             + ", ".join(repr(k) for k in extras)
                             + (" was" if len(extras) == 1 else " were")
                             + " unexpected)")
        elif key == "items":
            for i, item in enumerate(instance):
                yield from _schema_errors(item, value, path + (i,))
        elif key == "minItems":
            if len(instance) < value:
                yield path, (f"{instance!r} "
                             + ("should be non-empty" if value == 1
                                else "is too short"))
        elif key == "maxItems":
            if len(instance) > value:
                yield path, (f"{instance!r} "
                             + ("is expected to be empty" if value == 0
                                else "is too long"))
        elif key == "minimum":
            if instance < value:
                yield path, (f"{instance!r} is less than the minimum of "
                             f"{value!r}")
        elif key == "maximum":
            if instance > value:
                yield path, (f"{instance!r} is greater than the maximum of "
                             f"{value!r}")
        elif key == "exclusiveMinimum":
            if instance <= value:
                yield path, (f"{instance!r} is less than or equal to the "
                             f"minimum of {value!r}")
        else:
            raise NotImplementedError(
                f"scenario schema keyword {key!r}: {value!r} is not supported")


def _non_finite(node, path: tuple = ()):
    """Yield (path, message) for each NaN or infinite number in `node`."""
    if isinstance(node, float) and not math.isfinite(node):
        yield path, f"{node!r} is not a finite number"
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _non_finite(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _non_finite(value, path + (i,))


def _validate(doc: dict, source: str) -> None:
    # NaN passes every JSON-Schema bound, so finiteness is checked once the
    # schema holds, keeping the schema's own errors exactly jsonschema's.
    errors = (sorted(_schema_errors(doc, SCENARIO_SCHEMA), key=lambda e: e[0])
              or list(_non_finite(doc)))
    if errors:
        lines = [f"{source}: invalid scenario"]
        for path, message in errors:
            where = "/".join(str(p) for p in path) or "(root)"
            lines.append(f"  at {where}: {message}")
        raise ConfigurationError("\n".join(lines))


def _section(cfg: dict, section: str, path: Path) -> dict:
    """The keys of a kind-tagged section other than `kind`, after checking
    them against that kind's row of _KEYS."""
    kind = cfg["kind"]
    required, optional = _KEYS[section][kind]
    for key in required:
        if key not in cfg:
            raise ConfigurationError(
                f"{path}: {section}.{key} is required for kind {kind!r}")
    for key in cfg:
        if key != "kind" and key not in required + optional:
            raise ConfigurationError(
                f"{path}: {section}.{key} does not apply to kind {kind!r}")
    return {key: value for key, value in cfg.items() if key != "kind"}


def load_scenario(path: str | Path, xi: float | None = None) -> Scenario:
    """Parse and validate a scenario file; xi overrides a 'dm' route split."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}")
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" \
            if mark else ""
        raise ConfigurationError(f"{path}: YAML parse error{where}: {exc}")
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path}: scenario must be a mapping")
    _validate(doc, str(path))

    kind = doc["network"]["kind"]
    if xi is not None:
        if kind != "dm":
            raise ConfigurationError("--xi override only applies to 'dm' "
                                     "scenarios")
        doc["network"]["xi"] = xi
    sim_cfg = {**doc.get("diagram", {}), **doc.get("simulation", {})}
    if sim_cfg.get("dt") == "auto":
        del sim_cfg["dt"]
    sim = SimConfig(**sim_cfg)

    net_cfg = _section(doc["network"], "network", path)
    # The schema cannot state every domain a spec checks, such as a
    # beltway's xi below 1 or a ring's scaled capacities staying finite.
    try:
        if kind == "dm":
            spec = DmSpec(*net_cfg.pop("capacities"), **net_cfg)
        elif kind == "dmn":
            spec = DmnSpec(**net_cfg)
        else:
            spec = BeltwaySpec(n_pairs=net_cfg.pop("pairs"), **net_cfg)
    except DomainError as exc:
        where = "network" if xi is None else f"network with --xi {xi!r}"
        raise ConfigurationError(f"{path}: {where}: {exc}") from exc

    init = doc.get("initial", {"kind": "empty"})
    if init["kind"] == "ring_flow" and kind != "beltway":
        raise ConfigurationError(
            f"{path}: initial kind 'ring_flow' needs a beltway network")
    flow = _section(init, "initial", path).get("flow")
    out = doc.get("output", {})
    return Scenario(kind, spec, sim, flow,
                    out_dir=out.get("directory", "out"),
                    out_format=out.get("format", "csv"))
