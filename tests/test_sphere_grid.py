import io

import numpy as np
import pytest

from corank import (
    GridSpec,
    InvalidSpecError,
    build_grid,
    factorize,
    grid_to_csv,
    make_spec,
    unit_directions,
)
from oracles import grid_from_csv


def test_factorize_balanced_square():
    assert factorize(100) == (10, 10, 0)
    assert factorize(400) == (20, 20, 0)


def test_factorize_explicit_pair():
    assert factorize(126, n_r=7, n_s=18) == (7, 18, 0)


def test_factorize_small_remainder():
    assert factorize(5) == (2, 2, 1)


def test_factorize_balanced_matches_enumeration():
    # the scan picks the first n_r below floor(sqrt(n)) whose remainder
    # is admissible; re-derive that choice by brute enumeration
    for n in range(4, 300):
        n_r, n_s, n_0 = factorize(n)
        assert n == n_r * n_s + n_0
        assert 0 <= n_0 < min(n_r, n_s)
        expected = None
        for cand in range(int(np.sqrt(n)), 0, -1):
            cs = n // cand
            if n - cand * cs < min(cand, cs):
                expected = (cand, cs, n - cand * cs)
                break
        assert (n_r, n_s, n_0) == expected


def test_factorize_even_directions_variant():
    assert factorize(50, even_n_s=True) == (6, 8, 2)
    assert factorize(6, even_n_s=True) == (3, 2, 0)
    for n in (20, 37, 100, 126, 401):
        n_r, n_s, n_0 = factorize(n, even_n_s=True)
        assert n_s % 2 == 0
        assert n == n_r * n_s + n_0
        assert 0 <= n_0 < min(n_r, n_s)


def test_factorize_rejects_bad_input():
    with pytest.raises(InvalidSpecError):
        factorize(1)
    with pytest.raises(InvalidSpecError):
        factorize(13, n_r=3, n_s=3)  # n_0 = 4 >= min


def test_spec_validation():
    with pytest.raises(InvalidSpecError):
        GridSpec(n=10, d=2, n_r=3, n_s=3, n_0=0, symmetrize=False)  # 3*3 != 10
    with pytest.raises(InvalidSpecError):
        GridSpec(n=12, d=2, n_r=4, n_s=3, n_0=0, symmetrize=True)  # odd n_s
    spec = make_spec(50, 2, symmetrize=True)
    assert (spec.n_r, spec.n_s, spec.n_0) == (6, 8, 2)


def test_unit_directions_d2_square():
    dirs = unit_directions(4, 2, symmetrize=True)
    # equispaced at pi/2, antipodal pairs; compare as a set up to rotation
    angles = np.sort(np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2 * np.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    assert np.allclose(gaps, np.pi / 2, atol=1e-12)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


def test_unit_directions_symmetrized_sum_is_exactly_zero():
    for n_s in (2, 6, 8, 50):
        dirs = unit_directions(n_s, 2, symmetrize=True)
        total = dirs.sum(axis=0)
        assert total[0] == 0.0 and total[1] == 0.0


def test_unit_directions_d3_moments():
    dirs = unit_directions(1000, 3)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
    # coordinate means of the uniform sphere law are 0 with variance 1/3
    band = 3.0 / np.sqrt(3.0 * 1000)
    assert np.abs(dirs.mean(axis=0)).max() < band


def test_unit_directions_high_dimension():
    for d in (4, 6):
        dirs = unit_directions(500, d, symmetrize=True)
        assert dirs.shape == (500, d)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        assert np.array_equal(dirs[1::2], -dirs[0::2])
        assert np.abs(dirs.mean(axis=0)).max() < 3.0 / np.sqrt(d * 500)


def test_unit_directions_rejects_bad_dimension():
    with pytest.raises(InvalidSpecError):
        unit_directions(4, 0)
    with pytest.raises(InvalidSpecError):
        unit_directions(5, 2, symmetrize=True)  # odd count cannot pair up


def test_build_grid_two_radii_on_a_line():
    spec = GridSpec(n=4, d=2, n_r=2, n_s=2, n_0=0, symmetrize=True)
    grid = build_grid(spec)
    got = {tuple(np.round(p, 12)) for p in grid.points}
    third = 1.0 / 3.0
    expected = {(third, 0.0), (2 * third, 0.0), (-third, -0.0), (-2 * third, -0.0)}
    assert {(round(a, 12), round(abs(b), 12)) for a, b in got} == {
        (round(a, 12), round(abs(b), 12)) for a, b in expected
    }


def test_build_grid_origin_for_single_leftover():
    spec = GridSpec(n=5, d=2, n_r=2, n_s=2, n_0=1, symmetrize=True)
    grid = build_grid(spec)
    norms = np.linalg.norm(grid.points, axis=1)
    assert (norms == 0.0).sum() == 1
    assert (~grid.is_tiebreak).all()
    assert grid.rank_values()[norms == 0.0] == 0.0


def test_build_grid_radius_multiset():
    spec = GridSpec(n=13, d=2, n_r=3, n_s=4, n_0=1, symmetrize=True)
    grid = build_grid(spec)
    norms = np.round(np.linalg.norm(grid.points, axis=1), 12)
    counts = {v: int((norms == v).sum()) for v in np.unique(norms)}
    assert counts == {0.0: 1, 0.25: 4, 0.5: 4, 0.75: 4}


def test_build_grid_tiebreak_points():
    spec = GridSpec(n=50, d=2, n_r=6, n_s=8, n_0=2, symmetrize=True)
    grid = build_grid(spec, tie_break_seed=3)
    tb = grid.points[grid.is_tiebreak]
    assert tb.shape[0] == 2
    assert np.allclose(np.linalg.norm(tb, axis=1), 1.0 / (2 * 7), atol=1e-12)
    assert np.all(grid.rank_values()[grid.is_tiebreak] == 0.5)
    # drawn without replacement from the direction set
    units = tb / np.linalg.norm(tb, axis=1)[:, None]
    dots = units @ grid.directions.T
    assert np.allclose(dots.max(axis=1), 1.0, atol=1e-12)
    assert not np.allclose(units[0], units[1])


def test_build_grid_deterministic():
    spec = make_spec(50, 2, symmetrize=True)
    a = build_grid(spec, tie_break_seed=11)
    b = build_grid(spec, tie_break_seed=11)
    c = build_grid(spec, tie_break_seed=12)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_grid_radius_counts_and_norm_bound():
    for n in (36, 100, 126):
        spec = make_spec(n, 2, symmetrize=True)
        grid = build_grid(spec)
        regular = ~grid.is_tiebreak & (grid.radius_index > 0)
        for r in range(1, spec.n_r + 1):
            assert (grid.radius_index[regular] == r).sum() == spec.n_s
        norms = np.linalg.norm(grid.points, axis=1)
        assert norms.max() <= spec.n_r / (spec.n_r + 1) + 1e-15
        assert norms.max() < 1.0


def test_symmetrized_grid_sums_to_zero():
    for n in (36, 100, 400):
        grid = build_grid(make_spec(n, 2, symmetrize=True))
        total = grid.points.sum(axis=0)
        assert np.abs(total).max() < 1e-12 * n


def test_grid_csv_round_trip(tmp_path):
    grid = build_grid(make_spec(50, 2, symmetrize=True), tie_break_seed=5)
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    back = grid_from_csv(path)
    assert np.array_equal(back.points, grid.points)
    assert np.array_equal(back.radius_index, grid.radius_index)
    assert np.array_equal(back.direction_index, grid.direction_index)
    assert np.array_equal(back.is_tiebreak, grid.is_tiebreak)


def test_grid_csv_accepts_file_object():
    grid = build_grid(make_spec(36, 2, symmetrize=True))
    buf = io.StringIO()
    grid_to_csv(grid, buf)
    text = buf.getvalue()
    assert text.splitlines()[0].startswith("x1,x2,radius_index")
    assert len(text.splitlines()) == 37
