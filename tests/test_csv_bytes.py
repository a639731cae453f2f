"""Grid dumps and power-curve CSVs frozen from an earlier version, byte for byte.

The files are read back by other programs, so a change to how a row is
formatted is a change of format, even where every number is kept.  A
change that moves these bytes on purpose refreezes them by running this
file as a script from the root of the checkout, and says in
``CHANGES.md`` what moved:

    PYTHONPATH=src python tests/test_csv_bytes.py
"""

import io
import json
from pathlib import Path

import pytest

import corank

FROZEN = Path(__file__).with_name("data") / "frozen_csv.json"

# (n, d, symmetrize); every one of these grids has tie-break points, and
# the d = 3 one has -0.0 coordinates
GRIDS = [(23, 2, True), (23, 2, False), (27, 3, True), (19, 4, False)]

# a delta of 1e-17 and an unrounded frequency pin the float format
CURVE = {"study": "two_sample", "law": "t3", "sizes": [6, 6],
         "deltas": [0.0, 1e-17, 0.7], "methods": ["co", "hotelling"],
         "n_replications": 7, "master_seed": 5}


def _grid_text(n, d, symmetrize):
    spec = corank.make_spec(n, d, symmetrize=symmetrize)
    buf = io.StringIO()
    corank.grid_to_csv(corank.build_grid(spec, tie_break_seed=n), buf)
    return buf.getvalue()


def _curve_text():
    buf = io.StringIO()
    corank.run_power_study(corank.SimConfig.from_dict(CURVE)).to_csv(buf)
    return buf.getvalue()


def _key(n, d, symmetrize):
    return f"grid_{n}_{d}_{int(symmetrize)}"


def _texts():
    out = {_key(*case): _grid_text(*case) for case in GRIDS}
    out["curve"] = _curve_text()
    return out


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN.read_text())


@pytest.mark.parametrize("case", GRIDS, ids=[_key(*case) for case in GRIDS])
def test_grid_csv_bytes_are_frozen(frozen, case):
    assert _grid_text(*case) == frozen[_key(*case)]


def test_power_curve_csv_bytes_are_frozen(frozen):
    assert _curve_text() == frozen["curve"]


if __name__ == "__main__":
    FROZEN.write_text(json.dumps(_texts(), indent=1) + "\n")
