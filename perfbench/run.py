"""dmflow benchmark: CLI workloads, each run in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; it imports dmflow from the
checkout's `src/` and builds nothing.  With `--trace 0` it repeats the
workload's CLI command untraced for about S seconds (at least MIN_REPS
times), checks every output and prints the end-to-end metrics of
BENCHMARK.json.  With `--trace 1` it alternates traced and untraced runs
and prints the per-layer metrics.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

Workloads, seeds, checks and the layer map are described in README.md next
to this file.  Results records and traces go to perfbench/results/, and
CLI outputs to a temporary directory under perfbench/.tmp/ that is removed
at exit.  `--record-reference` stores the output hashes of this run as the
reference that later runs report `outputs_identical` against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
RESULTS = BENCH / "results"
TMP = BENCH / ".tmp"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
DM_SCENARIO = "scenarios/dm_bifurcation.yaml"
RING_SCENARIO = BENCH / "scenarios" / "ring20.yaml"

MIN_REPS = 3
# Children still running this long after start are killed, so that the
# benchmark always exits within its 180 s limit.
HARD_LIMIT_S = 165.0
CONSERVATION_TOL = 1e-10
# Same relative tolerance the CLI applies to two-cycle extrema.
EXTREMA_TOL = 0.05
MAP_TOL = 1e-9

# One process, no worker threads: pin every BLAS/OpenMP pool to one thread.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
             "VECLIB_MAXIMUM_THREADS": "1", "DMFLOW_LOG": "warning",
             "PYTHONHASHSEED": "0"}


# ---------------------------------------------------------------------------
# Workloads: inputs from the seed, the CLI command, and the output checks.
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Checks of one CLI run: problems found, work done, theory agreement."""

    problems: list[str] = field(default_factory=list)
    work: int = 0                 # link-steps, or xi points for the sweep
    passed: int = 0               # results within tolerance of theory
    judged: int = 0
    notes: list[str] = field(default_factory=list)


def _read_lines(path: Path, header: str, outcome: Outcome) -> list[str]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        outcome.problems.append(f"cannot read {path.name}: {exc}")
        return []
    if not lines or lines[0] != header:
        outcome.problems.append(f"{path.name}: bad header")
        return []
    return lines[1:]


def _check_runs(info: dict, outcome: Outcome, runs: int, links: int) -> None:
    got = info["runs"]
    if len(got) != runs or any(r["links"] != links for r in got):
        outcome.problems.append(
            f"expected {runs} run(s) of {links} links, got "
            f"{[r['links'] for r in got]}")
    worst = max((max(r["conservation_error"], r["conservation_error_c1"])
                 for r in got), default=0.0)
    if not worst <= CONSERVATION_TOL:
        outcome.problems.append(f"conservation error {worst:.3e}")
    outcome.work = sum(r["links"] * r["steps"] for r in got)


def _rel_err(measured: float, expected: float) -> float:
    if abs(expected) < 1e-9:
        return abs(measured - expected)
    return abs(measured - expected) / abs(expected)


class RingSimulate:
    name = "ring_simulate"
    output = "run.csv"
    simulates = True
    stages = 20
    # Link capacities of build_dmn at scale 1, by link-name prefix.
    capacity = {"o": 3.0, "c": 1.0, "u": 2.0, "e": 2.0}

    def inputs(self, seed: int) -> dict:
        if seed == 0:
            return {"xi": 0.4}
        return {"xi": round(random.Random(seed).uniform(0.35, 0.48), 6)}

    def scenario(self, inputs: dict, tmp: Path) -> str:
        if inputs == self.inputs(0):
            return str(RING_SCENARIO)
        text = RING_SCENARIO.read_text(encoding="utf-8")
        path = tmp / RING_SCENARIO.name
        path.write_text(re.sub(r"(?m)^  xi: .*$", f"  xi: {inputs['xi']!r}",
                               text), encoding="utf-8")
        return str(path)

    def cli_args(self, scenario: str, inputs: dict, out: Path) -> list[str]:
        return ["simulate", scenario, "--out", str(out)]

    def check(self, inputs, out, rc, stdout, info) -> Outcome:
        outcome = Outcome(judged=self.stages)
        if rc != 0:
            outcome.problems.append(f"exit code {rc}")
        _check_runs(info, outcome, 1, 4 * self.stages)
        rows = _read_lines(out / self.output, "t,section,flux", outcome)
        if len(rows) != outcome.work:
            outcome.problems.append(
                f"{len(rows)} rows, expected steps x links = {outcome.work}")
            return outcome
        series = defaultdict(list)
        try:
            for row in rows:
                _, section, flux = row.split(",")
                series[section].append(float(flux))
        except ValueError:
            outcome.problems.append(f"unparseable row {row!r}")
            return outcome
        for section, values in series.items():
            q = np.array(values)
            cap = self.capacity.get(section[:1], -1.0)
            if not (np.isfinite(q).all() and q.min() >= 0.0
                    and q.max() <= cap):
                outcome.problems.append(
                    f"{section}: flux outside [0, {cap}]")
        # Ring map two-cycle of the synchronized ring, per narrow link,
        # over the second half of the run.
        low = 2.0 - (1.0 - inputs["xi"]) / inputs["xi"]
        for k in range(1, self.stages + 1):
            late = np.array(series[f"c{k}"])
            late = late[len(late) // 2:]
            if (late.size and _rel_err(late.min(), low) <= EXTREMA_TOL
                    and _rel_err(late.max(), 1.0) <= EXTREMA_TOL):
                outcome.passed += 1
        return outcome


class DmFamily:
    name = "dm_family"
    output = "validation.json"
    simulates = True
    xi_step = "0.1"

    def inputs(self, seed: int) -> dict:
        # The paper's cross-validation grid is fixed; the seed does not
        # change it, so pass_frac compares like with like across seeds.
        return {}

    def scenario(self, inputs: dict, tmp: Path) -> str:
        return DM_SCENARIO

    def cli_args(self, scenario: str, inputs: dict, out: Path) -> list[str]:
        return ["validate", scenario, "--family", "--xi-step", self.xi_step,
                "--out", str(out)]

    def check(self, inputs, out, rc, stdout, info) -> Outcome:
        # The grid exactly as the CLI builds it for --xi-step 0.1.
        step = float(self.xi_step)
        grid = [float(x) for x in np.arange(step, 1.0, step)]
        outcome = Outcome(judged=len(grid))
        _check_runs(info, outcome, len(grid), 4)
        try:
            members = json.loads((out / self.output).read_text(
                encoding="utf-8"))
            xis = [m["spec"]["xi"] for m in members]
            passes = [m["pass"] for m in members]
            numbers = [x for m in members for x in (
                m["measured"]["value"], m["measured"]["low"],
                m["measured"]["high"], m["v_star_rel_error"],
                *(m["extrema_rel_errors"] or ()))]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.problems.append(f"{self.output}: {exc!r}")
            return outcome
        if xis != grid or not all(isinstance(p, bool) for p in passes):
            outcome.problems.append(f"members {xis} do not match {grid}")
            return outcome
        if not all(x is None or np.isfinite(x) for x in numbers):
            outcome.problems.append("non-finite number in validation.json")
        lines = re.findall(r"(?m)^xi = \S+: \S+ \[(pass|FAIL)\]$", stdout)
        if lines != ["pass" if p else "FAIL" for p in passes]:
            outcome.problems.append("printed verdicts disagree with JSON")
        if rc != (0 if all(passes) else 1):
            outcome.problems.append(f"exit code {rc} with passes {passes}")
        outcome.passed = sum(passes)
        outcome.notes = [f"FAIL xi={xi!r}" for xi, p in zip(xis, passes)
                         if not p]
        return outcome


class XiSweep:
    name = "xi_sweep"
    output = "sweep.csv"
    simulates = False
    step = 1e-5

    def inputs(self, seed: int) -> dict:
        if seed == 0:
            return {"xi_min": 0.0}
        return {"xi_min": random.Random(seed).random() * self.step}

    def scenario(self, inputs: dict, tmp: Path) -> str:
        return DM_SCENARIO

    def cli_args(self, scenario: str, inputs: dict, out: Path) -> list[str]:
        args = ["sweep", scenario, "--step", repr(self.step)]
        if inputs["xi_min"]:
            args += ["--xi-min", repr(inputs["xi_min"])]
        return args + ["--out", str(out)]

    def check(self, inputs, out, rc, stdout, info) -> Outcome:
        outcome = Outcome()
        if rc != 0:
            outcome.problems.append(f"exit code {rc}")
        rows = _read_lines(out / self.output,
                           "xi,v_star,stability,v_minus,v_plus", outcome)
        xi_min = inputs["xi_min"]
        n = int(round((1.0 - xi_min) / self.step))
        grid = sum(1 for i in range(n + 1)
                   if xi_min + i * self.step <= 1.0 + 1e-15)
        if len(rows) != info["sweep_points"] or not (
                grid <= len(rows) <= grid + 4):
            outcome.problems.append(
                f"{len(rows)} rows for {info['sweep_points']} points, "
                f"grid of {grid}")
            return outcome
        try:
            cols = list(zip(*(row.split(",") for row in rows)))
            xi, v_star, vm, vp = (
                np.array([float(x) if x else np.nan for x in col])
                for col in (cols[0], cols[1], cols[3], cols[4]))
            stability = np.array(cols[2])
        except (ValueError, IndexError) as exc:
            outcome.problems.append(f"unparseable sweep row: {exc}")
            return outcome
        if not (xi[0] == xi_min and (np.diff(xi) > 0).all()
                and xi[-1] <= 1.0 and np.isfinite(v_star).all()):
            outcome.problems.append("xi not ascending in range, or "
                                    "non-finite v_star")
        outcome.work = len(rows)
        outcome.judged = len(rows)
        outcome.passed = int(self._agrees_with_map(
            xi, v_star, stability, vm, vp).sum())
        return outcome

    @staticmethod
    def _agrees_with_map(xi, v_star, stability, vm, vp) -> np.ndarray:
        """Rows whose fixed point, class and two-cycle satisfy the return
        map written out from its closed form (poincare module docstring),
        independently of the library's code path."""
        doc = yaml.safe_load((ROOT / DM_SCENARIO).read_text(encoding="utf-8"))
        c0, c1, c2, c3 = doc["network"]["capacities"]
        beta = doc["network"]["beta"]
        lo, hi = (c3 - c2) / c3, c1 / c3
        ccw = (xi >= hi) | ((xi > lo) & (xi >= beta))
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(ccw, (1.0 - xi) / xi, xi / (1.0 - xi))
        a1 = np.maximum.reduce([c3 - (1.0 - xi) * c0,
                                np.full_like(xi, c3 - c2),
                                np.full_like(xi, beta * c3)])
        a2p = np.minimum.reduce([xi * c0, np.full_like(xi, c1),
                                 np.full_like(xi, beta * c3)])

        def fmap(v):
            with np.errstate(invalid="ignore"):
                return np.where(
                    ccw, np.minimum(c1, np.maximum(a1, c3 - slope * v)),
                    np.maximum(c3 - c2, np.minimum(a2p, slope * (c3 - v))))

        finite = (xi >= hi) | (xi <= lo) | (xi == beta) | (c3 == c0)
        expected = np.where(
            finite, "finite_time",
            np.where(slope < 1.0, "asymptotic",
                     np.where(slope > 1.0, "unstable",
                              "neutral_two_cycle_continuum")))
        fixed = np.abs(fmap(v_star) - v_star) <= MAP_TOL
        cycled = expected == "unstable"
        cycled |= expected == "neutral_two_cycle_continuum"
        with np.errstate(invalid="ignore"):
            cycle_ok = np.where(
                cycled,
                (np.abs(fmap(vm) - vp) <= MAP_TOL)
                & (np.abs(fmap(vp) - vm) <= MAP_TOL)
                & (vm <= v_star) & (v_star <= vp),
                np.isnan(vm) & np.isnan(vp))
        return fixed & (stability == expected) & cycle_ok


WORKLOADS = {w.name: w for w in (RingSimulate(), DmFamily(), XiSweep())}


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------

@dataclass
class Child:
    rc: int
    start_ns: int
    end_ns: int
    max_rss_bytes: int
    info: dict | None
    stdout: str
    stderr: str


def spawn(mode: str, args: list[str], tmp: Path, tag: str,
          deadline: float) -> Child:
    """Run child.py to completion; wall and peak RSS of that child alone."""
    info_path = tmp / f"{tag}.info.json"
    out_path, err_path = tmp / f"{tag}.stdout", tmp / f"{tag}.stderr"
    env = {**os.environ, **CHILD_ENV}
    env.pop("PYTHONPATH", None)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(info_path), *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out,
            stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        info = json.loads(info_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        info = None
    return Child(proc.returncode, start, end, usage.ru_maxrss * 1024, info,
                 out_path.read_text(encoding="utf-8", errors="replace"),
                 err_path.read_text(encoding="utf-8", errors="replace"))


@dataclass
class Rep:
    """One full CLI run with its checks."""

    mode: str
    index: int
    child: Child
    outcome: Outcome
    hashes: dict[str, str]
    out_bytes: int

    @property
    def ok(self) -> bool:
        return not self.outcome.problems

    @property
    def wall_s(self) -> float:
        return (self.child.end_ns - self.child.start_ns) / 1e9

    @property
    def main_wall_s(self) -> float:
        return (self.child.info["main_end_ns"] - self.child.start_ns) / 1e9

    @property
    def setup_s(self) -> float | None:
        return setup_seconds(self.child)


def setup_seconds(child: Child) -> float | None:
    if child.info is None or child.info["first_call_ns"] is None:
        return None
    return (child.info["first_call_ns"] - child.start_ns) / 1e9


class Bench:
    def __init__(self, workload, seed: int, tmp: Path, deadline: float):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.scenario = workload.scenario(self.inputs, tmp)
        self.tmp = tmp
        self.deadline = deadline
        self.count = 0
        self.probes = 0               # call-counting passes
        self.probe_failures: list[str] = []

    def args(self, out: Path) -> list[str]:
        return self.workload.cli_args(self.scenario, self.inputs, out)

    def warm_up(self) -> None:
        """One untimed set-up probe to fill the byte-code and page caches."""
        self.count += 1
        out = self.tmp / f"setup-{self.count}"
        spawn("setup", self.args(out), self.tmp, f"setup-{self.count}",
              self.deadline)
        shutil.rmtree(out, ignore_errors=True)

    def rep(self, mode: str) -> Rep:
        self.count += 1
        out = self.tmp / f"out-{self.count}"
        child = spawn(mode, self.args(out), self.tmp, f"rep-{self.count}",
                      self.deadline)
        if child.info is None or child.info.get("main_end_ns") is None:
            outcome = Outcome(problems=[
                f"no report from the CLI run (exit {child.rc}): "
                f"{child.stderr.strip()[-300:]}"])
        else:
            outcome = self.workload.check(self.inputs, out, child.rc,
                                          child.stdout, child.info)
        files = sorted(out.iterdir()) if out.is_dir() else []
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in files}
        size = sum(p.stat().st_size for p in files)
        shutil.rmtree(out, ignore_errors=True)
        return Rep(mode, self.count, child, outcome, hashes, size)


# ---------------------------------------------------------------------------
# Measurement.
# ---------------------------------------------------------------------------

def repeat(run_one, seconds: float, minimum: int, deadline: float) -> list:
    """Call run_one until `seconds` would be exceeded, at least `minimum`
    times, never past the deadline."""
    results, begin = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(run_one(len(results)))
        now = time.monotonic()
        if now + (now - t0) > deadline - 5.0:
            break
        if len(results) >= minimum and now - begin + (now - t0) > seconds:
            break
    return results


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def check_identity(reps: list[Rep]) -> None:
    """Every run of one invocation must write the same bytes."""
    first = next((r.hashes for r in reps if r.ok), None)
    for r in reps:
        if r.ok and r.hashes != first:
            r.outcome.problems.append("output bytes differ from run "
                                      "of the same inputs")


def end_to_end(reps: list[Rep]) -> dict:
    good = [r for r in reps if r.ok] or reps
    rates = [r.outcome.work / (r.wall_s - r.setup_s) for r in good
             if r.setup_s is not None and r.wall_s > r.setup_s]
    fracs = [r.outcome.passed / r.outcome.judged for r in good
             if r.outcome.judged]
    return {"wall_s": median(r.wall_s for r in good),
            "setup_s": median(r.setup_s for r in good),
            "work_per_s": median(rates),
            "peak_rss_mb": median(r.child.max_rss_bytes / 1e6 for r in good),
            "pass_frac": median(fracs)}


def layer_metrics(rep: Rep) -> dict:
    """Self time per layer from the spans of one traced run.

    Self time is a span's duration minus that of its direct children; the
    traced wall (spawn to the end of cli.main) minus all layer self times
    is cli.self_s: import, argument parsing and the CLI's own code.
    """
    info = rep.child.info
    names, spans = info["span_names"], info["spans"]
    children = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    total, self_ns, calls = (defaultdict(int) for _ in range(3))
    for i, (code, start, end, _) in enumerate(spans):
        total[names[code]] += end - start
        self_ns[names[code]] += end - start - children[i]
        calls[names[code]] += 1
    link_steps = sum(r["links"] * r["steps"] for r in info["runs"])

    def per_call_us(name, work=None):
        work = calls[name] if work is None else work
        return total[name] / work / 1e3 if work else 0.0

    def self_s(name):
        return self_ns[name] / 1e9

    m = {"scenario.load_s": self_s("scenario.load"),
         "ctm.init_s": self_s("ctm.init"),
         "ctm.inits": calls["ctm.init"],
         "ctm.run_self_s": self_s("ctm.run"),
         "ctm.step_self_s": self_s("ctm.step"),
         "ctm.step_us": per_call_us("ctm.step"),
         "ctm.step_us_per_link": per_call_us("ctm.step", link_steps),
         "ctm.junction_s": self_s("ctm.junction"),
         "ctm.junction_calls": calls["ctm.junction"],
         "validation.validate_spec_s": self_s("validation.validate_spec"),
         "validation.detect_s": self_s("validation.detect"),
         "validation.detect_calls": calls["validation.detect"],
         "poincare.classify_s": self_s("poincare.classify"),
         "poincare.classify_us": per_call_us("poincare.classify"),
         "poincare.classify_calls": calls["poincare.classify"],
         "bifurcation.sweep_s": self_s("bifurcation.sweep"),
         "bifurcation.boundaries_s": self_s("bifurcation.boundaries"),
         "io.rows_s": self_s("io.rows"),
         "io.write_s": self_s("io.write"),
         "io.bytes": rep.out_bytes}
    m["trace.wall_s"] = rep.main_wall_s
    m["cli.self_s"] = rep.main_wall_s - sum(self_ns.values()) / 1e9
    return m


SELF_TIMES = ("scenario.load_s", "ctm.init_s", "ctm.run_self_s",
              "ctm.step_self_s", "ctm.junction_s",
              "validation.validate_spec_s", "validation.detect_s",
              "poincare.classify_s", "bifurcation.sweep_s",
              "bifurcation.boundaries_s", "io.rows_s", "io.write_s",
              "cli.self_s")


def measure(workload, seed: int, seconds: float, trace: bool, tmp: Path,
            deadline: float) -> dict:
    bench = Bench(workload, seed, tmp, deadline)
    bench.warm_up()
    result = {"inputs": bench.inputs, "scenario": bench.scenario}
    if not trace:
        reps = repeat(lambda i: bench.rep("probe"), seconds, MIN_REPS,
                      deadline)
        check_identity(reps)
        result["metrics"] = end_to_end(reps)
    else:
        # Alternate which side of each traced/untraced pair runs first.
        pairs = repeat(lambda i: [bench.rep(m) for m in (
            ("probe", "trace") if i % 2 == 0 else ("trace", "probe"))],
            seconds, 1, deadline)
        reps = [r for pair in pairs for r in pair]
        check_identity(reps)
        traced = sorted((r for r in reps if r.mode == "trace" and r.ok),
                        key=lambda r: r.main_wall_s)
        plain = [r.main_wall_s for r in reps if r.mode == "probe" and r.ok]
        metrics = {}
        if traced:
            # The traced run of median wall, so its self times add up.
            result["trace_rep"] = traced[(len(traced) - 1) // 2]
            metrics = layer_metrics(result["trace_rep"])
        if traced and plain:
            metrics["trace.overhead_frac"] = (
                median(r.main_wall_s for r in traced) / median(plain) - 1.0)
        metrics["ctm.py_calls_per_step"] = 0.0
        if workload.simulates:
            bench.probes += 1
            calls = spawn("calls", [bench.scenario], tmp, "calls", deadline)
            if calls.rc == 0 and calls.info:
                metrics["ctm.py_calls_per_step"] = \
                    calls.info["py_calls_per_step"]
            else:
                bench.probe_failures.append(
                    f"calls pass: exit {calls.rc}: {calls.stderr[-300:]}")
        result["metrics"] = metrics
    result["reps"] = reps
    result["probes"] = bench.probes
    result["probe_failures"] = bench.probe_failures
    return result


# ---------------------------------------------------------------------------
# Records and report.
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def resolved(info: dict) -> dict:
    """dt, steps and links the CLI resolved, over all its simulations."""
    runs = info["runs"]
    return {key: sorted({r[key] for r in runs})
            for key in ("dt", "steps", "links")} | {
        "simulations": len(runs), "sweep_points": info["sweep_points"]}


def reference_key(workload: str, inputs: dict) -> str:
    return f"{workload} {json.dumps(inputs, sort_keys=True)}"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2:.4f}, q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def report(workload, seed, trace, result, attempted, failed,
           identical) -> list[str]:
    reps, m = result["reps"], result["metrics"]
    lines = [f"dmflow benchmark: workload {workload.name}, seed {seed}, "
             f"trace {int(trace)}, inputs {result['inputs']}"]
    for r in reps:
        state = "ok" if r.ok else "FAILED: " + "; ".join(r.outcome.problems)
        lines.append(f"  run {r.index} [{r.mode}] wall {r.wall_s:.4f} s "
                     f"exit {r.child.rc}: {state}")
    lines += [f"  {p}" for p in result["probe_failures"]]
    notes = sorted({n for r in reps for n in r.outcome.notes})
    if notes:
        lines.append("  theory disagreements reported by the CLI: "
                     + ", ".join(notes))
    if not trace:
        walls = [r.wall_s for r in reps if r.ok]
        rate = "link_steps_per_s" if workload.simulates else "xi_points_per_s"
        lines += [
            f"  wall_s           {m['wall_s']:.4f} s  ({quartiles(walls)})",
            f"  setup_s          {m['setup_s']:.4f} s",
            f"  {rate:<16} {m['work_per_s']:.1f} 1/s",
            f"  peak_rss_mb      {m['peak_rss_mb']:.2f} MB",
            f"  pass_frac        {m['pass_frac']:.4f} frac",
        ]
    else:
        for name in SELF_TIMES:
            lines.append(f"  {name:<28} {m.get(name, 0.0):.4f} s")
        total = sum(m.get(name, 0.0) for name in SELF_TIMES)
        lines.append(f"  self times sum to {total:.4f} s = trace.wall_s "
                     f"{m.get('trace.wall_s', 0.0):.4f} s")
        for name in sorted(set(m) - set(SELF_TIMES)):
            lines.append(f"  {name:<28} {m[name]:.6g}")
    lines += [f"  error_rate       {failed / max(attempted, 1):.4f} frac"
              f"  ({failed} of {attempted} invocations failed)",
              f"  outputs_identical {identical}"]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's output hashes as reference")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "dmflow" / "cli.py").is_file() or \
            not (ROOT / DM_SCENARIO).is_file():
        print(f"no dmflow source checkout around {BENCH}: need "
              f"src/dmflow and {DM_SCENARIO}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace),
                         tmp, started + HARD_LIMIT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    reps = result["reps"]
    attempted = len(reps) + result["probes"]
    failed = sum(not r.ok for r in reps) + len(result["probe_failures"])
    hashes = reps[0].hashes if reps else None
    key = reference_key(workload.name, result["inputs"])
    references = (json.loads(REFERENCE.read_text(encoding="utf-8"))
                  if REFERENCE.is_file() else {})
    if args.record_reference and hashes and not failed:
        references[key] = hashes
        REFERENCE.write_text(json.dumps(references, indent=1,
                                        sort_keys=True) + "\n",
                             encoding="utf-8")
    identical = (None if key not in references or hashes is None
                 else references[key] == hashes)

    metrics = {m["name"]: {"value": result["metrics"].get(m["name"], 0.0),
                           "unit": m["unit"]} for m in declared}
    lines = report(workload, args.seed, args.trace, result, attempted,
                   failed, identical)
    runs = [r for r in reps if r.child.info]
    record = {
        "workload": workload.name, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds,
        "inputs": result["inputs"], "scenario": result["scenario"],
        "git_commit": git_commit(),
        "versions": runs[0].child.info["versions"] if runs else None,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "cpu_count": os.cpu_count(), "cpu_model": cpu_model(),
                    "loadavg_before": load_before,
                    "loadavg_after": os.getloadavg()},
        "resolved": resolved(runs[0].child.info) if runs else None,
        "runs": [{"index": r.index, "mode": r.mode, "exit_code": r.child.rc,
                  "wall_s": r.wall_s, "setup_s": r.setup_s,
                  "peak_rss_mb": r.child.max_rss_bytes / 1e6,
                  "work": r.outcome.work, "passed": r.outcome.passed,
                  "judged": r.outcome.judged, "notes": r.outcome.notes,
                  "problems": r.outcome.problems, "outputs": r.hashes}
                 for r in reps],
        "probe_failures": result["probe_failures"],
        "attempted": attempted, "failed": failed,
        "error_rate": failed / max(attempted, 1),
        "outputs_identical": identical,
        "metrics": metrics, "report": lines,
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if "trace_rep" in result:
        rep = result["trace_rep"]
        names = rep.child.info["span_names"]
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "run"],
            "spawn_ns": rep.child.start_ns,
            "spans": [[names[c], s, e, p, rep.index]
                      for c, s, e, p in rep.child.info["spans"]]}),
            encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
