"""Committed configs still give the answers recorded in tests/golden/.

Text cells must match exactly and numbers within ULPS units in the last
place, so that the test holds across numpy's SIMD paths and LAPACK builds
while any real move of an answer fails it.  Re-record with
``tests/record_goldens.py``.
"""

import csv
import io
import json
import math
import struct

import pytest

from record_goldens import GOLDEN, GOLDEN_DIR, run_config

ULPS = 4


def ulps(a, b):
    """Distance of two floats in units in the last place; inf if one is NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0
    if math.isnan(a) or math.isnan(b):
        return math.inf
    # the bit patterns of IEEE doubles, as signed integers, order like the values
    ia, ib = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    ia, ib = (i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF) for i in (ia, ib))
    return abs(ia - ib)


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def cell_problem(where, got, want):
    """None if two cells agree: text exactly, numbers within ULPS."""
    if isinstance(got, str):
        got_num, want_num = _number(got), _number(want)
        if got_num is None or want_num is None:
            return None if got == want else f"{where}: {got!r} != {want!r}"
        got, want = got_num, want_num
    elif not (type(got) is float and type(want) is float):
        return None if got == want and type(got) is type(want) else f"{where}: {got!r} != {want!r}"
    d = ulps(got, want)
    return None if d <= ULPS else f"{where}: {got!r} != {want!r} ({d} ulps)"


def csv_problems(name, got, want):
    rows = [list(csv.reader(io.StringIO(text))) for text in (got, want)]
    if len(rows[0]) != len(rows[1]):
        return [f"{name}: {len(rows[0])} lines, golden {len(rows[1])}"]
    header = rows[1][0]
    problems = [] if rows[0][0] == header else [f"{name}: header {rows[0][0]} != {header}"]
    for r, (g_row, w_row) in enumerate(zip(rows[0][1:], rows[1][1:]), start=1):
        if len(g_row) != len(w_row):
            problems.append(f"{name} row {r}: {len(g_row)} cells, golden {len(w_row)}")
            continue
        problems += [p for c, (g, w) in enumerate(zip(g_row, w_row))
                     if (p := cell_problem(f"{name} row {r} column {header[c]}", g, w))]
    return problems


def json_problems(where, got, want):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in json_problems(f"{where}.{k}", got[k], want[k])]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in json_problems(f"{where}[{i}]", g, w)]
    problem = cell_problem(where, got, want)
    return [problem] if problem else []


@pytest.mark.parametrize("config", GOLDEN)
def test_committed_config_reproduces_its_goldens(config, tmp_path):
    got = run_config(config, tmp_path)
    want = {p.name: p.read_bytes().decode("utf-8")
            for p in sorted((GOLDEN_DIR / config).iterdir())}
    assert sorted(got) == sorted(want)
    problems = []
    for name, text in want.items():
        if name.endswith(".csv"):
            problems += csv_problems(name, got[name], text)
        else:
            problems += json_problems(name, json.loads(got[name]), json.loads(text))
    assert not problems, "\n".join(problems[:20])


def test_ulps_and_cells():
    assert ulps(1.0, 1.0 + 2**-52) == 1
    assert ulps(-0.0, 0.0) == 0
    assert ulps(5e-324, -5e-324) == 2
    assert ulps(float("nan"), 1.0) == math.inf
    assert cell_problem("c", "1.0000000000000004", "1") is None
    assert "(5 ulps)" in cell_problem("c", "1.0000000000000011", "1")
    assert cell_problem("c", "nan", "nan") is None
    assert cell_problem("c", "x", "y") == "c: 'x' != 'y'"
    assert cell_problem("c", 3, 3.0) is not None
    assert json_problems("r.json", {"a": [1.0, 2.0]}, {"a": [1.0, 2.5]}) == [
        "r.json.a[1]: 2.0 != 2.5 (1125899906842624 ulps)"]
