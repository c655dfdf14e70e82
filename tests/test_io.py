"""The run and sweep emitters against their per-element definition.

`run_rows` and `sweep_rows` format each distinct bit pattern of a float
column once; every cell must still be the `repr` of its own float,
including the values where formatting by float value would go wrong
(0.0 == -0.0, NaN equals nothing) and those where `repr` switches notation
(1e16 and 1e-4).  A sweep cell that holds NaN, no value, is blank.
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmflow import io
from dmflow.bifurcation import SweepTable
from dmflow.ctm import RunRecord
from dmflow.poincare import StabilityClass


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SPECIAL = [
    0.0, -0.0, math.inf, -math.inf,
    from_bits(0x7FF8000000000000),          # NaN, two payloads
    from_bits(0x7FF8000000000123),
    from_bits(0xFFF8000000000000),          # NaN with the sign bit
    5e-324, -5e-324, 2.225073858507201e-308,        # subnormals
    *[math.nextafter(x, y) for x in (1e16, 1e-4) for y in (0.0, math.inf)],
    1e16, -1e16, 1e-4, -1e-4,
]
values = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


@st.composite
def records(draw):
    """Records whose fluxes repeat a small pool of values, as a run's do."""
    names = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                          min_size=1, max_size=4, unique=True))
    steps = draw(st.integers(0, 12))
    pool = draw(st.lists(values, min_size=1, max_size=8))
    pick = st.lists(st.sampled_from(pool), min_size=steps, max_size=steps)
    times = np.array(draw(st.lists(values, min_size=steps, max_size=steps)))
    outflux = {name: np.array(draw(pick), dtype=np.float64)
               for name in names}
    return RunRecord(0.045, times, outflux, np.array(draw(pick)),
                     draw(values), draw(values))


def reference_rows(record: RunRecord) -> list[list[str]]:
    """One cell at a time: repr of each float, rows by time, then link."""
    names = sorted(record.outflux)
    rows = [(repr(t), name, repr(float(record.outflux[name][i])))
            for i, t in enumerate(record.times.tolist()) for name in names]
    return [list(column) for column in zip(*rows)] or [[], [], []]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(records())
def test_run_rows_match_per_element_repr(record):
    header, columns = io.run_rows(record)
    assert header == ["t", "section", "flux"]
    assert columns == reference_rows(record)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_reprs_match_per_element_repr(data):
    pool = data.draw(st.lists(values, min_size=1, max_size=8))
    floats = data.draw(st.lists(st.sampled_from(pool), max_size=30))
    column = np.array(floats, dtype=np.float64)
    assert io._reprs(column) == [repr(x) for x in column.tolist()]
    assert io._reprs(column, nan="") == [
        "" if math.isnan(x) else repr(x) for x in column.tolist()]


@st.composite
def tables(draw):
    """Sweep tables whose float columns repeat a small pool, NaN among it."""
    n = draw(st.integers(0, 20))
    pool = draw(st.lists(values, min_size=1, max_size=6)) + [math.nan]
    column = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    classes = st.lists(st.sampled_from(StabilityClass), min_size=n,
                       max_size=n)
    stability = np.empty(n, dtype=object)
    stability[:] = draw(classes)
    return SweepTable(np.array(draw(column)), np.array(draw(column)),
                      stability, np.array(draw(column)),
                      np.array(draw(column)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tables())
def test_sweep_rows_match_per_element_cells(table):
    def cells(column):
        return ["" if math.isnan(x) else repr(x) for x in column.tolist()]

    header, columns = io.sweep_rows(table)
    assert header == ["xi", "v_star", "stability", "v_minus", "v_plus"]
    assert columns == [cells(table.xi), cells(table.v_star),
                       [s.value for s in table.stability],
                       cells(table.v_minus), cells(table.v_plus)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(values, max_size=12))
def test_orbit_and_cobweb_rows_match_per_element_cells(orbit):
    # The same float may sit at several indices, as on a settled orbit.
    orbit = orbit + orbit[:3]
    header, columns = io.orbit_rows(orbit)
    assert header == ["step", "v"]
    assert columns == [[str(i) for i in range(len(orbit))],
                       [repr(x) for x in orbit]]
    segments = [((a, a), (a, b)) for a, b in zip(orbit, orbit[1:])]
    header, columns = io.cobweb_rows(segments)
    assert header == ["segment", "x0", "y0", "x1", "y1"]
    assert columns == [[str(i) for i in range(len(segments))]] + [
        [repr(seg[end][axis]) for seg in segments]
        for end in (0, 1) for axis in (0, 1)]


def test_distinct_bit_patterns_keep_their_own_text():
    nans = [from_bits(0x7FF8000000000000), from_bits(0x7FF8000000000123)]
    flux = np.array([0.0, -0.0, *nans, 0.0, -0.0, math.inf, 1e16,
                     math.nextafter(1e16, 0.0), 1e-4,
                     math.nextafter(1e-4, 0.0)])
    record = RunRecord(0.5, np.arange(1.0, len(flux) + 1.0), {"a": flux},
                       flux, 0.0, 0.0)
    _, (_, _, cells) = io.run_rows(record)
    assert cells == ["0.0", "-0.0", "nan", "nan", "0.0", "-0.0", "inf",
                     "1e+16", "9999999999999998.0", "0.0001",
                     "9.999999999999999e-05"]


def test_zero_step_record_writes_the_header_only(tmp_path):
    empty = np.empty(0)
    record = RunRecord(0.045, empty, {"b": empty, "a": empty}, empty,
                       0.0, 0.0)
    io.write_csv(tmp_path / "run.csv", *io.run_rows(record))
    assert (tmp_path / "run.csv").read_bytes() == b"t,section,flux\n"


@settings(max_examples=50, deadline=None, derandomize=True)
@given(records())
def test_run_payload_matches_per_element_floats(record):
    expected = {
        "dt": record.dt,
        "times": [float(t) for t in record.times],
        "outflux": {n: [float(x) for x in xs]
                    for n, xs in sorted(record.outflux.items())},
        "vehicles": [float(x) for x in record.vehicles],
        "conservation_error": record.conservation_error,
    }
    assert (json.dumps(io.run_payload(record), indent=2)
            == json.dumps(expected, indent=2))


@pytest.mark.parametrize("n_rows", [0, 1, io._CHUNK_ROWS, io._CHUNK_ROWS + 1])
def test_csv_chunks_write_the_bytes_of_one_joined_text(n_rows, tmp_path):
    header = ["t", "section", "flux"]
    columns = [[f"{i}.5" for i in range(n_rows)], ["a"] * n_rows,
               [repr(-0.0 if i % 2 else i / 3) for i in range(n_rows)]]
    io.write_csv(tmp_path / "run.csv", header, columns)
    joined = "\n".join([",".join(header), *map(",".join, zip(*columns))])
    assert (tmp_path / "run.csv").read_bytes() == (joined + "\n").encode()
