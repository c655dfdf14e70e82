"""CSV and JSON emitters.

All numbers are written with repr (shortest round-tripping form), CSV uses
comma separators, dot decimals, a header row and LF line endings, and no
output carries timestamps, so identical inputs produce byte-identical
files.

Every float column is formatted once per distinct bit pattern, the text
repeated, and every integer index with str: an 80-link ring's 80 000
out-fluxes hold only a few thousand distinct values, and a sweep's v*
takes one value on each side of the open band.  Bits, not float values,
pick the text, because 0.0 == -0.0 prints two ways and a NaN equals
nothing.  A NaN prints as `nan` in `run.csv`; in `sweep.csv` it marks a
cell with no value and is left blank.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .poincare import StabilityClass

if TYPE_CHECKING:
    from .bifurcation import SweepTable
    from .ctm import RunRecord
    from .validation import ValidationResult

__all__ = [
    "write_csv",
    "write_json",
    "orbit_rows",
    "cobweb_rows",
    "sweep_rows",
    "run_rows",
    "run_payload",
    "validation_payload",
]


# Rows of `write_csv` joined per write.  Against one whole-file string this
# lowered the peak RSS of `simulate` on the 80-link ring from 49 to 39 MiB
# and of a 1e-5 sweep from 73 to 57 MiB, at the same write time; larger
# chunks wrote the sweep more slowly.
_CHUNK_ROWS = 4096


def _reprs(values: np.ndarray | list[float], nan: str = "nan") -> list[str]:
    """repr of each float of a 1-D array or list, formatted once per
    distinct bit pattern; a NaN reads `nan`."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    floats = distinct.view(np.float64)
    text = np.array([repr(x) for x in floats.tolist()], dtype=object)
    text[np.isnan(floats)] = nan
    return text.take(inverse).tolist()


def write_csv(path: str | Path, header: Iterable[str],
              columns: Iterable[list[str]]) -> None:
    """Write the header and the columns (cells from the *_rows builders),
    joined and written `_CHUNK_ROWS` rows at a time, so that no text of
    the whole file is ever held."""
    rows = map(",".join, zip(*columns))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            f.write("\n".join(chunk) + "\n")


def write_json(path: str | Path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8", newline="\n")


# The *_rows builders return (header, columns): one list of formatted
# cells per column, ready for write_csv.

def orbit_rows(orbit: list[float]) -> tuple[list[str], list[list[str]]]:
    return ["step", "v"], [list(map(str, range(len(orbit)))),
                           _reprs(orbit)]


def cobweb_rows(segments) -> tuple[list[str], list[list[str]]]:
    header = ["segment", "x0", "y0", "x1", "y1"]
    return header, [list(map(str, range(len(segments))))] + [
        _reprs([seg[end][axis] for seg in segments])
        for end in (0, 1) for axis in (0, 1)]


def sweep_rows(table: SweepTable) -> tuple[list[str], list[list[str]]]:
    """Sweep cells, blank where the table holds NaN (no value)."""
    header = ["xi", "v_star", "stability", "v_minus", "v_plus"]
    labels = np.empty(len(table), dtype=object)
    for member in StabilityClass:
        # Members compare by identity, so this calls no Python per row.
        labels[table.stability == member] = member.value
    xi, v_star, v_minus, v_plus = (
        _reprs(column, nan="") for column in
        (table.xi, table.v_star, table.v_minus, table.v_plus))
    return header, [xi, v_star, labels.tolist(), v_minus, v_plus]


def run_rows(record: RunRecord) -> tuple[list[str], list[list[str]]]:
    """Long-format section flux series: one row per (time, link)."""
    header = ["t", "section", "flux"]
    names = sorted(record.outflux)
    flux = np.array([record.outflux[n] for n in names], dtype=np.float64)
    times = np.array(_reprs(record.times), dtype=object)
    return header, [times.repeat(len(names)).tolist(),
                    names * len(record.times),
                    _reprs(flux.T.ravel())]           # (time, link) order


def run_payload(record: RunRecord) -> dict:
    return {
        "dt": record.dt,
        "times": record.times.tolist(),
        "outflux": {n: xs.tolist() for n, xs in sorted(record.outflux.items())},
        "vehicles": record.vehicles.tolist(),
        "conservation_error": record.conservation_error,
    }


def validation_payload(result: ValidationResult) -> dict:
    report = result.report
    osc = result.oscillation
    return {
        "spec": {
            "c0": result.spec.c0, "c1": result.spec.c1,
            "c2": result.spec.c2, "c3": result.spec.c3,
            "beta": result.spec.beta, "xi": result.spec.xi,
        },
        "predicted": {
            "regime": report.regime.value,
            "stability": report.stability.value,
            "fixed_point": report.fixed_point,
            "period2": asdict(report.period2) if report.period2 else None,
        },
        "measured": {
            "verdict": osc.verdict.value,
            "value": osc.value,
            "low": osc.low,
            "high": osc.high,
            "period_estimate": osc.period_estimate,
        },
        "agrees": result.agrees,
        "v_star_rel_error": result.v_star_rel_error,
        "extrema_rel_errors": (list(result.extrema_rel_errors)
                               if result.extrema_rel_errors else None),
    }
