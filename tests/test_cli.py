"""Command-line surface: exit codes, emitted files, determinism."""

import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from dmflow import (ConfigurationError, DmSpec, SimConfig, Simulation, cli,
                    poincare)
from dmflow.cli import main
from dmflow.extended import dmn_classify
from dmflow.network import BeltwaySpec, DmnSpec
from dmflow.io import validation_payload
from dmflow.scenario import _KEYS, load_scenario
from dmflow.validation import validate_spec

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
CLASSIC = str(SCENARIOS / "dm_classic.yaml")
BIFURCATION = str(SCENARIOS / "dm_bifurcation.yaml")
BELTWAY = str(SCENARIOS / "beltway_gridlock.yaml")
BELTWAY_NETWORK = ("network:\n  kind: beltway\n  pairs: 2\n  beta: 0.3\n"
                   "  xi: 0.2\n")
# The classic network with a starved origin, a coarse grid, a short
# horizon and a slower congested wave: none of it validate's old defaults.
COARSE_STARVED = (
    "network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
    "  beta: 0.3333333333333333\n  xi: 0.45\n  origin_demand: 2.5\n"
    "diagram:\n  congested_wave_speed: 0.4\n"
    "simulation:\n  cells_per_link: 8\n  horizon: 120.0\n")
COARSE_SPEC = DmSpec(3.0, 1.0, 2.0, 2.0, beta=1 / 3, xi=0.45)
COARSE_CONFIG = SimConfig(cells_per_link=8, horizon=120.0,
                          congested_wave_speed=0.4)


def expected_validation(spec: DmSpec, config: SimConfig) -> dict:
    """validation.json of one member, without its pass flag."""
    result = validate_spec(replace(spec, origin_demand=2.5), config)
    return json.loads(json.dumps(validation_payload(result)))


class TestAnalyze:
    def test_unstable_report(self, tmp_path, capsys):
        code = main(["analyze", BIFURCATION, "--xi", "0.4",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["stability"] == "unstable"
        assert payload["fixed_point"] == pytest.approx(1.0, abs=1e-12)
        assert payload["period2"]["v_minus"] == pytest.approx(0.75, abs=1e-12)
        assert payload["period2"]["v_plus"] == pytest.approx(1.375, abs=1e-12)

    def test_overlap_finite_time(self, tmp_path):
        code = main(["analyze", CLASSIC, "--xi", str(1 / 3),
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["stability"] == "finite_time"
        assert payload["fixed_point"] == pytest.approx(2 / 3, abs=1e-12)

    def test_upstream_bottleneck_reports_always_stable(self, tmp_path, capsys):
        scn = tmp_path / "up.yaml"
        scn.write_text(
            "network:\n  kind: dm\n  capacities: [1.0, 1.0, 1.0, 3.0]\n"
            "  beta: 0.5\n  xi: 0.5\n")
        code = main(["analyze", str(scn), "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "finite-time stable" in out and "upstream" in out

    def test_beltway_analysis(self, tmp_path):
        code = main(["analyze", BELTWAY, "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["classification"] == "gridlock_stable"
        assert payload["per_pair_ratio"] == pytest.approx(0.875, abs=1e-12)


    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_json_only_commands_reject_format(self, command, tmp_path,
                                              capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, BIFURCATION, "--out", str(tmp_path),
                  "--format", "csv"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --format csv" in err
        assert not list(tmp_path.iterdir())


class TestOrbit:
    def test_zero_steps_single_row(self, tmp_path):
        code = main(["orbit", BIFURCATION, "--v0", "1.1", "--steps", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()
        assert lines == ["step,v", "0,1.1"]
        assert (tmp_path / "cobweb.csv").read_text().splitlines() == [
            "segment,x0,y0,x1,y1"]

    def test_two_cycle_tail(self, tmp_path):
        code = main(["orbit", BIFURCATION, "--xi", "0.4", "--v0", "1.1",
                     "--steps", "60", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "orbit.csv").read_text().splitlines()[1:]
        tail = [float(line.split(",")[1]) for line in lines[-6:]]
        assert sorted(set(round(v, 9) for v in tail)) == [0.75, 1.375]

    def test_json_format(self, tmp_path):
        code = main(["orbit", BIFURCATION, "--v0", "1.1", "--steps", "3",
                     "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        payload = json.loads((tmp_path / "orbit.json").read_text())
        assert len(payload["orbit"]) == 4

    @pytest.mark.parametrize("steps", ["0", "1"])
    def test_start_outside_the_domain_is_a_configuration_error(
            self, steps, tmp_path, capsys):
        code = main(["orbit", BIFURCATION, "--v0", "5", "--steps", steps,
                     "--out", str(tmp_path)])
        assert code == 2
        assert "v=5.0 outside [0, 2.5]" in capsys.readouterr().err
        assert not (tmp_path / "orbit.csv").exists()

    def test_orbit_requires_dm_network(self, tmp_path):
        code = main(["orbit", BELTWAY, "--v0", "1.0",
                     "--out", str(tmp_path)])
        assert code == 2


class TestSweep:
    def test_single_point_when_step_exceeds_range(self, tmp_path):
        code = main(["sweep", BIFURCATION, "--xi-min", "0.4", "--xi-max",
                     "0.45", "--step", "0.2", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "xi,v_star,stability,v_minus,v_plus"
        assert [l.split(",")[0] for l in lines[1:]] == ["0.4"]

    @pytest.mark.parametrize("fmt,digest", [
        ("csv",
         "133562db92295c931a06066769f48e6dc044409133dc4c973204db60edef2c10"),
        ("json",
         "216b6edb86b58abf4aa29aab7082f963c2ddeb371d81016b4cef95b19312af6a"),
    ])
    def test_bottleneck_cells_are_blank_or_null(self, fmt, digest, tmp_path,
                                                capsys):
        # An upstream bottleneck has no fixed point and no two-cycle at any
        # xi: v_star, v_minus and v_plus are empty CSV cells and JSON
        # nulls.  The digests were recorded before the sweep held NaN for
        # no value.
        scenario = tmp_path / "bottleneck.yaml"
        scenario.write_text("network:\n  kind: dm\n"
                            "  capacities: [1.0, 1.5, 2.0, 2.5]\n"
                            "  beta: 0.3\n  xi: 0.4\n")
        out = tmp_path / "out"
        assert main(["sweep", str(scenario), "--step", "0.125", "--format",
                     fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == \
            "swept 12 xi value(s); boundaries:\n"
        emitted = (out / f"sweep.{fmt}").read_bytes()
        assert hashlib.sha256(emitted).hexdigest() == digest
        if fmt == "csv":
            rows = emitted.decode().splitlines()[1:]
            assert {row.split(",", 1)[1] for row in rows} == {
                ",finite_time,,"}
        else:
            assert {(row["v_star"], row["v_minus"], row["v_plus"])
                    for row in json.loads(emitted)} == {(None, None, None)}

    def test_rejects_bad_step(self, tmp_path):
        assert main(["sweep", BIFURCATION, "--step", "0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("options", [
        ["--step", "nan"],
        ["--step", "inf"],
        ["--xi-min", "nan"],
        ["--xi-min=-inf"],
        ["--xi-max", "nan"],
        ["--xi-max", "inf"],
        ["--xi-min", "0.41", "--xi-max", "0.4", "--step", "0.01"],
        ["--xi-min", "0.7", "--xi-max", "0.2"],
    ], ids=["step-nan", "step-inf", "xi-min-nan", "xi-min-minus-inf",
            "xi-max-nan", "xi-max-inf", "reversed", "reversed-wide"])
    def test_rejects_bad_range(self, options, tmp_path, capsys):
        code = main(["sweep", BIFURCATION, *options, "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("step,points", [
        ("1e-15", "1e+15"), ("1e-300", "1e+300"), ("1e-310", "inf")])
    def test_rejects_step_too_fine_to_hold(self, step, points, tmp_path,
                                           capsys):
        # 1e15 grid values are 7.11 PiB, more than the 128 TiB x86-64
        # address space, so the allocation is refused before touching
        # memory; 1e300 exceeds numpy's largest array and 1e-310 overflows
        # the point count.
        code = main(["sweep", BIFURCATION, "--step", step,
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert f"--step {step} needs {points} xi points" in err
        assert not (tmp_path / "sweep.csv").exists()


class TestScenarioErrors:
    def test_missing_file(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.yaml")]) == 2

    def test_schema_violation(self, tmp_path):
        scn = tmp_path / "bad.yaml"
        scn.write_text("network:\n  kind: dm\n  capacities: [1, 2, 3]\n"
                       "  beta: 0.5\n  xi: 0.5\n")
        assert main(["analyze", str(scn)]) == 2

    def test_yaml_parse_error(self, tmp_path):
        scn = tmp_path / "broken.yaml"
        scn.write_text("network: [unclosed\n")
        assert main(["analyze", str(scn)]) == 2

    def test_unknown_kind_rejected(self, tmp_path):
        scn = tmp_path / "odd.yaml"
        scn.write_text("network:\n  kind: star\n")
        assert main(["analyze", str(scn)]) == 2

    def test_yaml_list_is_config_error(self, tmp_path):
        scn = tmp_path / "list.yaml"
        scn.write_text("- network\n- diagram\n")
        with pytest.raises(ConfigurationError,
                           match="scenario must be a mapping"):
            load_scenario(scn)

    def test_ring_flow_without_flow_is_config_error(self, tmp_path):
        scn = tmp_path / "noflow.yaml"
        scn.write_text(BELTWAY_NETWORK + "initial:\n  kind: ring_flow\n")
        with pytest.raises(ConfigurationError, match="flow"):
            load_scenario(scn)
        assert main(["simulate", str(scn), "--out", str(tmp_path)]) == 2

    def test_ring_flow_on_dm_network_rejected_at_load(self, tmp_path):
        scn = tmp_path / "dmring.yaml"
        scn.write_text(
            "network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
            "  beta: 0.33\n  xi: 0.45\n"
            "initial:\n  kind: ring_flow\n  flow: 0.5\n")
        with pytest.raises(ConfigurationError, match="beltway"):
            load_scenario(scn)

    @pytest.mark.parametrize("command, snippet, message", [
        ("simulate", "network:\n  kind: dmn\n  n: 2\n  xi: 0.4\n"
         "  capacities: [1, 2, 3, 4]\n  pairs: 3\n",
         "network.capacities does not apply to kind 'dmn'"),
        ("analyze", "network:\n  kind: dm\n  capacities: [3, 1, 2, 2]\n"
         "  beta: 0.3\n  xi: 0.45\n  n: 4\n  ring_capacity: 9\n",
         "network.n does not apply to kind 'dm'"),
        ("simulate", BELTWAY_NETWORK + "initial:\n  kind: empty\n"
         "  flow: 0.5\n", "initial.flow does not apply to kind 'empty'"),
    ], ids=["dm-keys-on-dmn", "ring-keys-on-dm", "flow-on-empty"])
    def test_key_of_another_kind_is_config_error(self, command, snippet,
                                                 message, tmp_path, capsys):
        scn = tmp_path / "foreign.yaml"
        scn.write_text(snippet)
        assert main([command, str(scn), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [scn]

    @pytest.mark.parametrize("snippet,message", [
        ("network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, .nan]\n"
         "  beta: 0.3\n  xi: 0.45\n",
         "network: capacities: c3 must be positive and finite, got nan"),
        ("network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, .inf]\n"
         "  beta: 0.3\n  xi: 0.45\n",
         "network: capacities: c3 must be positive and finite, got inf"),
        ("network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
         "  beta: 0.3\n  xi: 0.45\n  origin_demand: .nan\n",
         "network: origin_demand must be nonnegative, got nan"),
        ("network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
         "  beta: 0.3\n  xi: 0.45\nsimulation:\n  dt: .nan\n",
         "simulation: dt must be positive and finite, got nan"),
        ("network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
         "  beta: 0.3\n  xi: 0.45\ndiagram:\n  free_flow_speed: .inf\n",
         "diagram: free_flow_speed must be positive and finite, got inf"),
    ], ids=["capacity-nan", "capacity-inf", "origin-demand-nan", "dt-nan",
            "free-flow-speed-inf"])
    @pytest.mark.parametrize("command", [["analyze"],
                                         ["simulate", "--horizon", "5"]],
                             ids=["analyze", "simulate"])
    def test_non_finite_number_is_config_error(self, snippet, message,
                                               command, tmp_path, capsys):
        # The spec or SimConfig that reads the value refuses it.
        scn = tmp_path / "nonfinite.yaml"
        scn.write_text(snippet)
        code = main([command[0], str(scn), *command[1:],
                     "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"configuration error: {scn}: {message}\n")
        assert list(tmp_path.iterdir()) == [scn]

    @pytest.mark.parametrize("snippet, message", [
        # The schema allows xi = 1; the beltway's off-ramp share must stay
        # below it.
        ("network:\n  kind: beltway\n  pairs: 2\n  xi: 1.0\n  beta: 0.3\n",
         "network: xi must lie in [0, 1), got 1.0"),
        # Every key is in range, but the scaled stage capacity overflows.
        ("network:\n  kind: dmn\n  n: 2\n  xi: 0.4\n  scale: 1.0e+308\n",
         "network: capacity c0 must be positive and finite, got inf"),
    ], ids=["beltway-xi-one", "dmn-scale-overflow"])
    def test_spec_domain_error_names_the_file_and_section(
            self, snippet, message, tmp_path, capsys):
        scn = tmp_path / "domain.yaml"
        scn.write_text(snippet)
        assert main(["analyze", str(scn), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {scn}: {message}\n")
        assert list(tmp_path.iterdir()) == [scn]

    def test_xi_override_outside_the_domain_names_the_option(self, tmp_path,
                                                             capsys):
        assert main(["analyze", BIFURCATION, "--xi", "1.5",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {BIFURCATION}: network with --xi 1.5: "
            f"xi must lie in [0, 1], got 1.5\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["simulate"], ["validate"], ["validate", "--family"]])
    @pytest.mark.parametrize("horizon, shown", [
        ("nan", "nan"), ("-5", "-5.0"), ("inf", "inf")])
    def test_horizon_override_outside_the_domain_names_the_option(
            self, command, horizon, shown, tmp_path, capsys):
        assert main([*command, CLASSIC, "--horizon", horizon,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {CLASSIC}: simulation with --horizon "
            f"{shown}: horizon must be finite and nonnegative, got {shown}\n")
        assert list(tmp_path.iterdir()) == []

    def test_ring_flow_at_capacity_is_rejected(self, tmp_path, capsys):
        scn = tmp_path / "full.yaml"
        scn.write_text(BELTWAY_NETWORK + "  ring_capacity: 1.0\n"
                       "initial:\n  kind: ring_flow\n  flow: 1.0\n")
        assert main(["simulate", str(scn), "--out", str(tmp_path)]) == 2
        assert (f"{scn}: initial: ring flow must lie in [0, ring_capacity"
                in capsys.readouterr().err)
        assert not (tmp_path / "run.csv").exists()

    def test_cfl_violation_is_config_error(self, tmp_path):
        scn = tmp_path / "cfl.yaml"
        scn.write_text(
            "network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
            "  beta: 0.33\n  xi: 0.45\nsimulation:\n  dt: 0.5\n")
        assert main(["simulate", str(scn), "--out", str(tmp_path)]) == 2



# The networks that the value cases below start from, one per kind.
NETWORKS = {
    "dm": {"kind": "dm", "capacities": [3.0, 1.0, 2.0, 2.0], "beta": 0.3,
           "xi": 0.45},
    "dmn": {"kind": "dmn", "n": 2, "xi": 0.4},
    "beltway": {"kind": "beltway", "pairs": 2, "beta": 0.3, "xi": 0.2},
}
# Every numeric key of a scenario file, and its non-finite values but
# +inf as boundary data, which means no limit.
NUMERIC_KEYS = [
    ("dm", "network", "capacities"), ("dm", "network", "lengths"),
    ("dm", "network", "beta"), ("dm", "network", "xi"),
    ("dm", "network", "origin_demand"),
    ("dm", "network", "destination_supply"),
    ("dmn", "network", "n"), ("dmn", "network", "scale"),
    ("beltway", "network", "pairs"), ("beltway", "network", "ring_capacity"),
    ("beltway", "network", "segment_length"),
    ("beltway", "network", "ramp_demand"),
    ("beltway", "network", "offramp_supply"),
    ("dm", "diagram", "free_flow_speed"),
    ("dm", "diagram", "congested_wave_speed"),
    ("dm", "simulation", "cells_per_link"), ("dm", "simulation", "dt"),
    ("dm", "simulation", "horizon"), ("beltway", "initial", "flow")]
BOUNDARY_KEYS = ("origin_demand", "destination_supply", "ramp_demand",
                 "offramp_supply")
NON_FINITE = [
    pytest.param(kind, section, key, value, id=f"{key}-{name}")
    for kind, section, key in NUMERIC_KEYS
    for name, value in (("nan", math.nan), ("inf", math.inf),
                        ("-inf", -math.inf))
    if not (value == math.inf and key in BOUNDARY_KEYS)]
# Every command, with the options it needs.
COMMANDS = [["analyze"], ["orbit", "--v0", "0.5"], ["sweep"], ["simulate"],
            ["validate"]]


def scenario_with(tmp_path, kind: str, section: str, key: str, value):
    """A scenario file of network `kind` whose `section` sets `key`; an
    `initial` section is a ring flow."""
    doc = {"network": dict(NETWORKS[kind]), "initial": {"kind": "empty"}}
    if section == "initial":
        doc["initial"]["kind"] = "ring_flow"
    doc.setdefault(section, {})[key] = value
    scn = tmp_path / "values.yaml"
    scn.write_text(yaml.safe_dump(doc))
    return scn


class TestScenarioValues:
    """Each value of a scenario file is checked once, by the spec,
    SimConfig or start that reads it; the schema checks only shapes."""

    @pytest.mark.parametrize("kind, section, key, value", [
        ("dm", "network", "capacities", [3.0, 1.0, 2.0, 0.0]),
        ("dm", "network", "lengths", [1.0, 0.0, 1.0, 1.0]),
        ("dm", "network", "beta", -0.1),
        ("dm", "network", "beta", 1.5),
        ("dm", "network", "xi", -0.1),
        ("dm", "network", "xi", 1.5),
        ("dm", "network", "origin_demand", -1.0),
        ("dm", "network", "destination_supply", -1.0),
        ("dmn", "network", "n", 0),
        ("dmn", "network", "scale", 0.0),
        ("beltway", "network", "pairs", 0),
        ("beltway", "network", "ring_capacity", 0.0),
        ("beltway", "network", "segment_length", -1.0),
        ("beltway", "network", "ramp_demand", -0.5),
        ("beltway", "network", "offramp_supply", -0.5),
        ("dm", "diagram", "free_flow_speed", 0.0),
        ("dm", "diagram", "congested_wave_speed", -0.5),
        ("dm", "simulation", "cells_per_link", 0),
        ("dm", "simulation", "horizon", -1.0),
    ], ids=["capacities", "lengths", "beta-below", "beta-above", "xi-below",
            "xi-above", "origin-demand", "destination-supply", "n", "scale",
            "pairs", "ring-capacity", "segment-length", "ramp-demand",
            "offramp-supply", "free-flow-speed", "congested-wave-speed",
            "cells-per-link", "horizon"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_value_outside_its_domain_is_refused_at_load(
            self, kind, section, key, value, command, tmp_path, capsys):
        scn = scenario_with(tmp_path, kind, section, key, value)
        out = tmp_path / "out"
        name, *options = command
        assert main([name, str(scn), *options, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(scn) in err
        assert re.search(rf"\b{section}\b", err)
        assert re.search(rf"\b{key}\b", err)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, section, key, value, message", [
        ("dm", "network", "capacities", [3.0, 1.0, 2.0, 0.0],
         "network: capacities: c3 must be positive and finite, got 0.0"),
        ("beltway", "network", "pairs", 0,
         "network: pairs must be a positive integer, got 0"),
        ("dm", "diagram", "free_flow_speed", 0.0,
         "diagram: free_flow_speed must be positive and finite, got 0.0"),
        ("dm", "simulation", "cells_per_link", 0,
         "simulation: cells_per_link must be a positive integer, got 0"),
        ("dm", "simulation", "dt", float("inf"),
         "simulation: dt must be positive and finite, got inf"),
    ], ids=["capacities", "pairs", "diagram", "simulation", "dt-inf"])
    def test_owner_message_names_the_file_and_section(
            self, kind, section, key, value, message, tmp_path, capsys):
        scn = scenario_with(tmp_path, kind, section, key, value)
        out = tmp_path / "out"
        assert main(["analyze", str(scn), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {scn}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flow", [1.0, 1.5, -0.5])
    @pytest.mark.parametrize("command", [["analyze"], ["simulate"]],
                             ids=lambda c: c[0])
    def test_ring_flow_outside_the_ring_is_refused_at_load(
            self, flow, command, tmp_path, capsys):
        scn = tmp_path / "ring.yaml"
        scn.write_text(BELTWAY_NETWORK + "  ring_capacity: 1.0\n"
                       f"initial:\n  kind: ring_flow\n  flow: {flow}\n")
        out = tmp_path / "out"
        assert main([*command, str(scn), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {scn}: initial: ring flow must lie in "
            f"[0, ring_capacity = 1.0), got {flow}\n")
        assert not out.exists()

    def test_zero_ring_flow_loads_a_jammed_ring(self, tmp_path):
        scn = tmp_path / "jam.yaml"
        scn.write_text(BELTWAY_NETWORK + "initial:\n  kind: ring_flow\n"
                       "  flow: 0\n")
        scenario = load_scenario(scn)
        assert scenario.initial_flow == 0.0
        sim = scenario.simulation()
        assert all((link.k == link.fd.jam_density).all()
                   for name, link in sim.links.items() if name[0] in "ab")

    @pytest.mark.parametrize("kind, section, key, value", NON_FINITE)
    def test_non_finite_value_is_refused_at_load(self, kind, section, key,
                                                 value, tmp_path):
        if key in ("capacities", "lengths"):
            value = [1.0, 1.0, 1.0, value]
        scn = scenario_with(tmp_path, kind, section, key, value)
        with pytest.raises(ConfigurationError) as caught:
            load_scenario(scn)
        message = str(caught.value)
        assert message.startswith(f"{scn}: ")
        assert re.search(rf"\b{section}\b", message)
        assert re.search(rf"\b{key}\b", message)

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind, section, key in NUMERIC_KEYS
        if key in BOUNDARY_KEYS])
    def test_infinite_boundary_data_means_no_limit(self, kind, key,
                                                   tmp_path):
        scn = scenario_with(tmp_path, kind, "network", key, float("inf"))
        assert getattr(load_scenario(scn).spec, key) == float("inf")
        out = tmp_path / "out"
        assert main(["simulate", str(scn), "--horizon", "5",
                     "--out", str(out)]) == 0
        assert (out / "run.csv").exists()

    def test_directory_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", str(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {tmp_path}: Is a directory\n"
        assert not out.exists()

    def test_file_not_in_utf8_is_config_error(self, tmp_path, capsys):
        scn = tmp_path / "latin1.yaml"
        scn.write_bytes("network:\n  kind: dm  # Stra\xdfe\n".encode(
            "latin-1"))
        out = tmp_path / "out"
        assert main(["analyze", str(scn), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {scn}: not UTF-8")
        assert "Traceback" not in err
        assert not out.exists()


class TestSimulateValidate:
    def test_simulate_emits_run_record(self, tmp_path):
        code = main(["simulate", CLASSIC, "--horizon", "5",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "t,section,flux"
        assert len(lines) > 100

    def test_validate_passes_on_unstable_case(self, tmp_path):
        code = main(["validate", CLASSIC, "--horizon", "200",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert payload["pass"] is True
        assert payload["measured"]["verdict"] == "persistent_oscillation"

    def test_validate_family_smoke(self, tmp_path):
        code = main(["validate", BIFURCATION, "--family", "--xi-step",
                     "0.45", "--horizon", "150", "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert len(payload) == 2

    @pytest.mark.parametrize("step", ["-0.1", "0", "1", "1.5"])
    def test_validate_family_rejects_step_outside_unit_interval(
            self, step, tmp_path):
        code = main(["validate", BIFURCATION, "--family", "--xi-step", step,
                     "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "validation.json").exists()

    def test_validate_family_rejects_xi(self, tmp_path, capsys,
                                        monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated despite --xi with --family")

        monkeypatch.setattr("dmflow.cli.validate_spec", no_simulation)
        code = main(["validate", BIFURCATION, "--family", "--xi-step", "0.3",
                     "--xi", "0.77", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "--xi " in err and "--family" in err
        assert not (tmp_path / "validation.json").exists()

    @pytest.mark.parametrize("options", [
        [BIFURCATION, "--xi", "0.55", "--vstar-tol", "nan"],
        [BIFURCATION, "--xi", "0.55", "--vstar-tol", "-0.1"],
        [CLASSIC, "--vstar-tol", "nan"],
        [CLASSIC, "--extrema-tol", "nan"],
        [CLASSIC, "--extrema-tol", "-0.1"],
        [BIFURCATION, "--family", "--vstar-tol", "nan"],
        [BIFURCATION, "--family", "--extrema-tol", "-0.1"],
    ], ids=["vstar-nan", "vstar-negative", "classic-vstar-nan",
            "extrema-nan", "extrema-negative", "family-vstar-nan",
            "family-extrema-negative"])
    def test_validate_rejects_bad_tolerance_before_simulating(
            self, options, tmp_path, capsys, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("simulated despite a bad tolerance")

        monkeypatch.setattr("dmflow.cli.validate_spec", no_simulation)
        code = main(["validate", *options, "--out", str(tmp_path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "validation.json").exists()

    @pytest.mark.parametrize("horizon", ["-5", "nan", "inf"])
    def test_simulate_rejects_horizon_outside_range(self, horizon, tmp_path):
        assert main(["simulate", CLASSIC, "--horizon", horizon,
                     "--out", str(tmp_path)]) == 2

    def test_simulate_rejects_horizon_too_long_to_record(self, tmp_path,
                                                          capsys):
        # 2.2e13 steps: 177 TB of records, more than the 128 TiB x86-64
        # address space, so the allocation is refused before touching memory.
        assert main(["simulate", CLASSIC, "--horizon", "1e12",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "1000000000000.0" in err and "22222222222222 steps" in err
        assert not (tmp_path / "run.csv").exists()


class TestValidateRunsScenario:
    def test_single_uses_simulation_diagram_and_boundary_sections(
            self, tmp_path):
        scn = tmp_path / "coarse.yaml"
        scn.write_text(COARSE_STARVED)
        code = main(["validate", str(scn), "--out", str(tmp_path)])
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert code == (0 if payload.pop("pass") else 1)
        assert payload == expected_validation(COARSE_SPEC, COARSE_CONFIG)

    def test_prediction_reads_the_boundary_data(self, tmp_path):
        # Origin demand 1.0 is at most C3 = 2.5, so it is the capacity
        # link 0 passes: an upstream bottleneck, not the unstable map of
        # C0 = 3.  The spec block keeps the capacities of the file.
        scn = tmp_path / "starved.yaml"
        scn.write_text(Path(BIFURCATION).read_text().replace(
            "  xi: 0.4\n", "  xi: 0.4\n  origin_demand: 1.0\n"))
        assert main(["validate", str(scn), "--xi", "0.4",
                     "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "validation.json").read_text())
        assert payload["predicted"]["stability"] == "finite_time"
        assert payload["spec"]["c0"] == 3.0

    def test_family_members_use_the_scenario_and_horizon_override(
            self, tmp_path):
        scn = tmp_path / "coarse.yaml"
        scn.write_text(COARSE_STARVED)
        code = main(["validate", str(scn), "--family", "--xi-step", "0.45",
                     "--horizon", "100", "--out", str(tmp_path)])
        members = json.loads((tmp_path / "validation.json").read_text())
        passes = [m.pop("pass") for m in members]
        assert code == (0 if all(passes) else 1)
        config = replace(COARSE_CONFIG, horizon=100.0)
        assert members == [
            expected_validation(COARSE_SPEC.with_xi(float(xi)), config)
            for xi in np.arange(0.45, 1.0, 0.45)]

    def test_family_reads_the_scenario_once(self, tmp_path, monkeypatch):
        loads, validated = [], []

        def counted_load(*args):
            loads.append(args)
            return load_scenario(*args)

        def recorded(spec, config):
            validated.append((spec.xi, config.horizon))
            return validate_spec(spec, config)

        monkeypatch.setattr("dmflow.cli.load_scenario", counted_load)
        monkeypatch.setattr("dmflow.cli.validate_spec", recorded)
        main(["validate", BIFURCATION, "--family", "--xi-step", "0.1",
              "--horizon", "5", "--out", str(tmp_path)])
        assert loads == [(BIFURCATION, None)]
        assert validated == [(float(xi), 5.0)
                             for xi in np.arange(0.1, 1.0, 0.1)]

    def test_family_runs_one_grid_pass_per_member(self, tmp_path,
                                                  monkeypatch):
        # The prediction and the map it monitors come from one row.
        rows = []
        grid = poincare._classify_grid

        def counted(template, xi):
            rows.append(xi.tolist())
            return grid(template, xi)

        monkeypatch.setattr(poincare, "_classify_grid", counted)
        main(["validate", BIFURCATION, "--family", "--xi-step", "0.1",
              "--horizon", "5", "--out", str(tmp_path)])
        assert rows == [[float(xi)] for xi in np.arange(0.1, 1.0, 0.1)]

    def test_family_rejects_a_step_too_fine_to_hold(self, tmp_path,
                                                    capsys):
        assert main(["validate", BIFURCATION, "--family", "--xi-step",
                     "1e-300", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --xi-step 1e-300 needs 1e+300 xi points; "
            "they do not fit in memory\n")


class TestEmittedNumbers:
    def test_csv_numbers_round_trip_exactly(self, tmp_path):
        main(["sweep", BIFURCATION, "--xi-min", "0.3", "--xi-max", "0.5",
              "--step", "0.01", "--out", str(tmp_path)])
        from dmflow import DmSpec, sweep_xi
        spec = DmSpec(3, 1.5, 2, 2.5, beta=0.3, xi=0.4)
        table = sweep_xi(spec, [0.3 + i * 0.01 for i in range(21)])
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert len(lines) == len(table)
        for line, xi, v_star in zip(lines, table.xi, table.v_star):
            xi_cell, v_star_cell = line.split(",")[:2]
            assert float(xi_cell) == xi
            assert float(v_star_cell) == v_star

    def test_validate_fails_on_tolerance_breach(self, tmp_path):
        # The damped case converges to ~6e-6 relative error at this
        # horizon; an absurdly tight tolerance must trip the exit code.
        code = main(["validate", BIFURCATION, "--xi", "0.55",
                     "--horizon", "100", "--vstar-tol", "1e-9",
                     "--out", str(tmp_path)])
        assert code == 1

    def test_validate_fails_on_unconverged_run(self, tmp_path):
        # Cut the same case short: the tail still drifts, the verdict is
        # undetermined and cannot match the prediction.
        code = main(["validate", BIFURCATION, "--xi", "0.55",
                     "--horizon", "60", "--out", str(tmp_path)])
        assert code == 1


class TestScenarioOverrides:
    def test_boundary_data_overrides_load_and_run(self, tmp_path):
        scn = tmp_path / "starved.yaml"
        scn.write_text(
            "network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
            "  beta: 0.3333333333333333\n  xi: 0.45\n"
            "  origin_demand: 1.0\n  destination_supply: 1.8\n")
        code = main(["simulate", str(scn), "--horizon", "30",
                     "--out", str(tmp_path)])
        assert code == 0
        # Starved origin keeps total outflow at the reduced demand.
        lines = (tmp_path / "run.csv").read_text().splitlines()[1:]
        last_link0 = [float(l.split(",")[2]) for l in lines
                      if l.split(",")[1] == "link0"][-1]
        assert last_link0 <= 1.0 + 1e-12

    @pytest.mark.parametrize("kind, spec", [
        ("dm", DmSpec), ("dmn", DmnSpec), ("beltway", BeltwaySpec)])
    def test_network_keys_are_the_spec_parameters(self, kind, spec):
        # Every key but `kind` goes to the spec, so none can bypass it.
        required, optional = _KEYS["network"][kind]
        spelled = {"capacities": ("c0", "c1", "c2", "c3"),
                   "pairs": ("n_pairs",)}
        keys = [name for key in required + optional
                for name in spelled.get(key, (key,))]
        assert sorted(keys) == sorted(inspect.signature(spec).parameters)

    def test_xi_override_rejected_for_ring_scenarios(self, tmp_path):
        assert main(["analyze", BELTWAY, "--xi", "0.3",
                     "--out", str(tmp_path)]) == 2

    def test_log_env_var_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DMFLOW_LOG", "debug")
        assert main(["analyze", BIFURCATION, "--out", str(tmp_path)]) == 0

    def test_unknown_log_level_is_config_error(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("DMFLOW_LOG", "bogus")
        assert main(["analyze", BIFURCATION, "--out", str(tmp_path)]) == 2
        assert "configuration error: DMFLOW_LOG='bogus'" in (
            capsys.readouterr().err)
        assert not (tmp_path / "analysis.json").exists()

    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep")
        assert main(["analyze", BIFURCATION, "--out", str(target)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert target.read_text() == "keep"

    @pytest.mark.parametrize("command,work", [
        (["analyze"], (cli, "classify_stability")),
        (["orbit", "--v0", "1.1"], (cli, "cobweb")),
        (["sweep"], (cli, "sweep_xi")),
        (["simulate"], (Simulation, "run")),
        (["validate"], (cli, "validate_spec")),
        (["validate", "--family", "--xi-step", "0.5"],
         (cli, "validate_spec"))],
        ids=["analyze", "orbit", "sweep", "simulate", "validate", "family"])
    def test_out_naming_a_file_fails_before_the_work(
            self, command, work, tmp_path, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("the command did its work before --out")

        monkeypatch.setattr(*work, not_reached)
        target = tmp_path / "taken"
        target.write_text("keep")
        name, *options = command
        assert main([name, BIFURCATION, *options, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot create output directory" in captured.err

    @pytest.mark.parametrize("scenario", [CLASSIC, BIFURCATION],
                             ids=["classic", "bifurcation"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--horizon", "nan"],
        ["validate", "--horizon", "-5"],
        ["validate", "--family", "--horizon", "inf"],
        ["validate", "--family", "--xi-step", "1e-300"],
        ["orbit", "--v0", "99"],
        ["orbit", "--v0", "0.5", "--steps", "-1"],
        ["sweep", "--xi-min", "-1"],
        ["sweep", "--xi-max", "2"],
    ], ids=lambda command: " ".join(command))
    def test_option_errors_leave_no_out_directory(self, scenario, command,
                                                  tmp_path, capsys):
        name, *options = command
        out = tmp_path / "out"
        assert main([name, scenario, *options, "--out", str(out)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("boundary", ["origin_demand: 0.0",
                                          "destination_supply: 0.0"])
    @pytest.mark.parametrize("family", [[], ["--family", "--xi-step", "0.5"]],
                             ids=["one", "family"])
    def test_boundary_data_without_flow_leave_no_out_directory(
            self, boundary, family, tmp_path, capsys, monkeypatch):
        def not_reached(*args, **kwargs):
            raise AssertionError("validated boundary data without flow")

        monkeypatch.setattr(cli, "validate_spec", not_reached)
        scn = tmp_path / "closed.yaml"
        scn.write_text(Path(BIFURCATION).read_text().replace(
            "  xi: 0.4\n", f"  xi: 0.4\n  {boundary}\n"))
        out = tmp_path / "out"
        assert main(["validate", str(scn), *family, "--out", str(out)]) == 2
        assert "lets no flow through to validate" in capsys.readouterr().err
        assert not out.exists()


class TestRingScenarios:
    def test_dmn_scenario_analysis(self, tmp_path):
        scn = tmp_path / "ring.yaml"
        scn.write_text("network:\n  kind: dmn\n  n: 2\n  xi: 0.4\n")
        code = main(["analyze", str(scn), "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["pattern"] == "bistable"
        assert payload["asymmetric_points"][0] == [
            1.0, pytest.approx(0.5, abs=1e-12)]

    def test_dmn_scenario_analysis_uses_scale(self, tmp_path):
        scn = tmp_path / "ring.yaml"
        scn.write_text("network:\n  kind: dmn\n  n: 3\n  xi: 0.4\n"
                       "  scale: 2.0\n")
        assert main(["analyze", str(scn), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "analysis.json").read_text())
        cls = dmn_classify(DmnSpec(3, 0.4, 2.0))
        assert payload == {
            "pattern": cls.pattern.value,
            "analyzed_band": cls.analyzed,
            "growth_factor": cls.growth_factor,
            "symmetric_point": list(cls.symmetric_point),
            "asymmetric_points": [list(p) for p in cls.asymmetric_points],
            "cycle": list(cls.cycle) if cls.cycle else None,
        }

    def test_dmn_analysis_flags_merge_priority_outside_the_derivation(
            self, tmp_path, capsys):
        # The ring map assumes beta = 0; at beta = 0.6 the CTM's c1 and c2
        # both converge to 0.8 instead of settling into a mirrored state.
        scn = tmp_path / "ring.yaml"
        scn.write_text("network:\n  kind: dmn\n  n: 2\n  xi: 0.4\n"
                       "  beta: 0.6\n")
        assert main(["analyze", str(scn), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "ring of 2 stage(s): bistable (outside analyzed band)")
        payload = json.loads((tmp_path / "analysis.json").read_text())
        assert payload["analyzed_band"] is False

    def test_dmn_scenario_simulates(self, tmp_path):
        scn = tmp_path / "ring.yaml"
        scn.write_text("network:\n  kind: dmn\n  n: 2\n  xi: 0.4\n"
                       "simulation:\n  horizon: 10.0\n")
        assert main(["simulate", str(scn), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "run.csv").exists()


def test_xi_override_preserves_boundary_overrides(tmp_path):
    scn = tmp_path / "starved.yaml"
    scn.write_text(
        "network:\n  kind: dm\n  capacities: [3.0, 1.0, 2.0, 2.0]\n"
        "  beta: 0.3333333333333333\n  xi: 0.45\n  origin_demand: 1.0\n")
    assert main(["simulate", str(scn), "--xi", "0.4", "--horizon", "30",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()[1:]
    link0 = [float(l.split(",")[2]) for l in lines
             if l.split(",")[1] == "link0"]
    assert max(link0) <= 1.0 + 1e-12


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "cmd_analyze", broken)
    assert main(["analyze", CLASSIC]) == 3
    assert "internal error: broken on purpose" in capsys.readouterr().err


def test_runs_as_a_module(tmp_path, capsys):
    assert main(["analyze", CLASSIC, "--out", str(tmp_path / "main")]) == 0
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "dmflow.cli", "analyze", CLASSIC, "--out",
         str(tmp_path / "module")],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True,
        text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == capsys.readouterr().out
    assert ((tmp_path / "module" / "analysis.json").read_bytes()
            == (tmp_path / "main" / "analysis.json").read_bytes())
