"""Where a fresh CLI process spends its time: set-up, work and exit.

    python tools/cli_phases.py [-n N] [--checkout DIR ...] ARGS...

Runs `perfbench/child.py probe INFO ARGS` of each checkout (default: the
one holding this script) N times in fresh interpreters, alternating
between the checkouts, with the environment the benchmark gives its
children.  Each run is split at the two stamps the child writes:

  setup  spawn to the first `Simulation.run` or sweep (`first_call_ns`)
  work   from there to the return of `cli.main` (`main_end_ns`)
  exit   from there to the end of the process: writing the child's info
         file and the interpreter's shutdown

A command with no run or sweep (`analyze`, `orbit`) has no first call, so
its set-up and work are one phase, `setup+work`.  ARGS without `--out`
get one in a temporary directory.  The report gives the median and the
quartiles of each phase in ms; its last line is one JSON object with the
keys args, runs and checkouts (checkout -> phase -> median, q1, q3).
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict[str, str]:
    """The benchmark's child environment, from this checkout's run.py."""
    pins = runpy.run_path(str(ROOT / "perfbench" / "run.py"))["CHILD_ENV"]
    env = {**os.environ, **pins}
    env.pop("PYTHONPATH", None)
    return env


def phases(checkout: Path, args: list[str], info: Path,
           env: dict[str, str]) -> dict[str, float]:
    """One probe run of `args` in `checkout`: its phases in ms."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "child.py"), "probe",
         str(info), *args],
        cwd=checkout, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    end = time.monotonic_ns()
    try:
        stamps = json.loads(info.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        raise SystemExit(f"{checkout}: the child wrote no info file "
                         f"(exit {proc.returncode}):\n{proc.stderr}") from None
    first, main_end = stamps["first_call_ns"], stamps["main_end_ns"]
    if first is None:
        split = {"setup+work": main_end - start}
    else:
        split = {"setup": first - start, "work": main_end - first}
    split["exit"] = end - main_end
    return {name: ns / 1e6 for name, ns in split.items()}


def summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-n", type=int, default=15,
                        help="runs per checkout (default 15)")
    parser.add_argument("--checkout", type=Path, action="append",
                        help="source checkout to run; repeat to alternate")
    parser.add_argument("args", nargs=argparse.REMAINDER,
                        help="the CLI arguments, e.g. simulate FILE")
    opts = parser.parse_args(argv)
    if opts.n < 1 or not opts.args:
        parser.error("need -n >= 1 and the CLI arguments")
    checkouts = [c.resolve() for c in opts.checkout or [ROOT]]
    env = child_env()
    times = {c: {} for c in checkouts}
    with tempfile.TemporaryDirectory(prefix="cli_phases.") as tmp:
        args = opts.args
        if "--out" not in args:
            args = [*args, "--out", str(Path(tmp) / "out")]
        for i in range(opts.n):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for k, checkout in enumerate(order):
                info = Path(tmp) / f"{i}.{k}.info.json"
                for name, ms in phases(checkout, args, info, env).items():
                    times[checkout].setdefault(name, []).append(ms)
    result = {str(c): {name: summary(values) for name, values in
                       times[c].items()} for c in checkouts}
    print(" ".join(opts.args))
    for checkout, split in result.items():
        print(f"{checkout}, {opts.n} run(s):")
        for name, s in split.items():
            print(f"  {name:<10} median {s['median']:8.2f} ms  "
                  f"(q1 {s['q1']:.2f}, q3 {s['q3']:.2f})")
    print(json.dumps({"args": opts.args, "runs": opts.n,
                      "checkouts": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
