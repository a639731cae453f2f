"""Score functions and the chi-square helpers behind them.

Closed-form oracles: for d=2 the chi-square cdf is 1 - exp(-x/2), so
the d=2 van der Waerden score is sqrt(-2*log(1-r)); for d=1 the quantile
is ndtri((1+p)/2)**2.  mpmath supplies high-precision incomplete-gamma
values for the general-d spot checks.
"""

import numpy as np
import pytest
from scipy.special import gammaincc, ndtri
from scipy.stats import chi2

import corank
from corank import (
    InvalidInputError,
    InvalidScoreError,
    VectorScore,
    build_grid,
    chi_sq_quantile,
    chi_sq_sf,
    custom_score,
    elliptical_rank_test,
    estimate_score_cov,
    get_score,
    make_spec,
    sign_score,
    two_sample_test,
    van_der_waerden_score,
    wilcoxon_score,
)
from oracles import chi_sq_cdf


def test_chi_sq_cdf_closed_form_d2():
    xs = np.array([0.0, 0.5, 1.0, 3.0, 10.0])
    assert np.allclose(chi_sq_cdf(2, xs), 1.0 - np.exp(-xs / 2.0), atol=1e-14)


def test_chi_sq_sf_at_zero_is_one():
    for d in (1, 2, 5, 20):
        assert chi_sq_sf(d, 0.0) == 1.0


def test_chi_sq_sf_is_the_gamma_tail_for_scalars_and_arrays():
    rng = np.random.default_rng(39)
    x = rng.exponential(10.0, 200)
    for d in (1, 2, 3, 8):
        want = gammaincc(d / 2.0, x / 2.0)
        assert np.array_equal(chi_sq_sf(d, x), want)
        assert np.array_equal([chi_sq_sf(d, float(v)) for v in x], want)
        assert np.array_equal(chi_sq_sf(d, list(x)), want)
    assert np.isnan(chi_sq_sf(2, np.nan))
    assert np.isnan(chi_sq_sf(2, np.array([1.0, np.nan]))[1])
    for bad in (-1e-300, np.float64(-2.0), np.array([3.0, -1.0]), [-1]):
        with pytest.raises(InvalidInputError):
            chi_sq_sf(2, bad)
    with pytest.raises(InvalidInputError):
        chi_sq_sf(0, 1.0)


def test_chi_sq_spot_values_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for d, x in ((1, 0.3), (2, 5.9915), (3, 1.0), (7, 12.5), (20, 31.4)):
        want = float(mp.gammainc(d / 2.0, 0, x / 2.0, regularized=True))
        assert chi_sq_cdf(d, x) == pytest.approx(want, abs=1e-12)


def test_chi_sq_quantile_oracles():
    assert chi_sq_quantile(2, 0.95) == pytest.approx(5.991464547107982, abs=1e-9)
    assert chi_sq_quantile(2, 0.95) == pytest.approx(-2.0 * np.log(0.05), abs=1e-10)
    assert chi_sq_quantile(1, 0.5) == pytest.approx(0.454936423119573, abs=1e-9)
    assert chi_sq_quantile(1, 0.5) == pytest.approx(ndtri(0.75) ** 2, abs=1e-10)


@pytest.mark.parametrize(
    "d, p", [(3, 1.0 - 1e-12), (4, 1.0 - 1e-6), (3, 1e-10), (2, 0.95)]
)
def test_chi_sq_quantile_precision_against_mpmath(d, p):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        # bisect the 50-digit regularized lower gamma at the exact double p
        level, lo, hi = mp.mpf(p), mp.mpf(0), mp.mpf(100)
        for _ in range(240):
            mid = (lo + hi) / 2
            if mp.gammainc(mp.mpf(d) / 2, 0, mid, regularized=True) < level:
                lo = mid
            else:
                hi = mid
        want = float(lo + hi)  # 2 * the root of P(d/2, h) = p
    assert abs(chi_sq_quantile(d, p) - want) <= 1e-14 * want


def test_chi_sq_quantile_sf_round_trip():
    for d in range(1, 21):
        for p in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
            q = chi_sq_quantile(d, p)
            assert chi_sq_sf(d, q) == pytest.approx(1.0 - p, abs=1e-8)


def test_chi_sq_rejects_bad_arguments():
    for bad in (0.0, 1.0, np.nan):
        with pytest.raises(InvalidInputError):
            chi_sq_quantile(2, bad)
        with pytest.raises(InvalidInputError):
            chi_sq_quantile(2, np.array([0.5, bad, 0.25]))
    with pytest.raises(InvalidInputError):
        chi_sq_quantile(0, 0.5)
    with pytest.raises(InvalidInputError):
        chi_sq_sf(2, -1.0)


def test_sign_score_is_constant_one():
    score = sign_score()
    for r in (0.0, 0.3, 0.999):
        assert score.evaluate(r) == 1.0
    assert score.norm_sq() == 1.0


def test_wilcoxon_score_is_identity():
    score = wilcoxon_score()
    assert score.evaluate(0.5) == 0.5
    assert score.norm_sq() == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_van_der_waerden_closed_form_d2():
    score = van_der_waerden_score(2)
    assert score.evaluate(0.95) == pytest.approx(np.sqrt(-2.0 * np.log(0.05)), abs=1e-9)
    assert score.evaluate(0.95) == pytest.approx(2.4477468306808166, abs=1e-9)
    rs = np.linspace(0.01, 0.99, 23)
    assert np.allclose(score.evaluate(rs), np.sqrt(-2.0 * np.log1p(-rs)), atol=1e-9)
    assert score.norm_sq() == 2.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_van_der_waerden_vectorized_matches_scalar_and_scipy(d):
    n_r = 12
    arr = np.array([0, 3, 3, 1, 0, 7, n_r, n_r, 5, 3], dtype=float) / (n_r + 1)
    score = van_der_waerden_score(d)
    vals = score.evaluate(arr)
    assert np.array_equal(vals, [score.evaluate(r) for r in arr])
    assert vals[0] == vals[4] == 0.0
    want = np.sqrt(chi2.ppf(arr, d))
    assert np.all(np.abs(vals - want) <= 1e-14 * want)
    assert isinstance(chi_sq_quantile(d, arr[1]), float)
    assert chi_sq_quantile(d, arr[1:4]).shape == (3,)


def test_van_der_waerden_norm_matches_dimension():
    for d in (1, 2, 4, 7):
        assert van_der_waerden_score(d).norm_sq() == float(d)


def test_score_evaluate_domain():
    score = wilcoxon_score()
    with pytest.raises(InvalidInputError):
        score.evaluate(1.0)
    with pytest.raises(InvalidInputError):
        score.evaluate(-0.01)


def test_van_der_waerden_clamps_near_one_with_warning():
    score = van_der_waerden_score(2)
    with pytest.warns(UserWarning):
        v = score.evaluate(1.0 - 1e-15)
    assert np.isfinite(v)
    assert v == pytest.approx(score.evaluate(1.0 - 1e-12), rel=1e-12)


def test_scores_are_nondecreasing():
    rs = np.linspace(0.0, 0.99, 200)
    for score in (wilcoxon_score(), van_der_waerden_score(2), van_der_waerden_score(5)):
        vals = score.evaluate(rs)
        assert np.all(np.diff(vals) >= 0.0)


def test_custom_score_constant():
    for fn in (lambda r: np.ones_like(np.asarray(r, dtype=float)), lambda r: 1.0):
        score = custom_score(fn)
        assert score.evaluate(0.7) == 1.0
        assert np.array_equal(score.evaluate(np.array([0.0, 0.5])), [1.0, 1.0])
        assert score.norm_sq() == pytest.approx(1.0, rel=1e-9)
    # a constant J is the sign score
    rng = np.random.default_rng(161)
    x, y = rng.standard_normal((20, 2)), rng.standard_normal((20, 2)) + 0.3
    got = two_sample_test(x, y, custom_score(lambda r: 1.0))
    assert got.statistic == two_sample_test(x, y, "sign").statistic
    wrong = custom_score(lambda r: np.ones(3), norm_sq=1.0)
    with pytest.raises(InvalidScoreError, match="shape"):
        wrong.evaluate(np.array([0.0, 0.5]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["custom", "vector"])
@pytest.mark.parametrize("method", ["co", "elliptical"])
def test_nonfinite_score_values_are_rejected(bad, kind, method):
    # a NaN used to come back as a NaN statistic and p-value, an inf as
    # a RuntimeWarning from 0 * inf at the origin
    rng = np.random.default_rng(20)
    x, y = rng.standard_normal((20, 2)), rng.standard_normal((20, 2))
    if kind == "custom":
        score = custom_score(lambda r: np.where(r > 0.5, bad, r), norm_sq=1 / 3)
    else:
        score = VectorScore(
            lambda pts: np.where((pts * pts).sum(axis=1, keepdims=True) > 0.25, bad, pts),
            np.eye(2) / 6,
        )
    with pytest.raises(InvalidScoreError, match="non-finite"):
        if method == "co":
            two_sample_test(x, y, score)
        else:
            elliptical_rank_test([x, y], score)


def test_custom_score_norm_matches_standard_kinds():
    quad = custom_score(lambda r: np.asarray(r, dtype=float))
    assert quad.norm_sq() == pytest.approx(1.0 / 3.0, rel=1e-9)
    vdw2 = custom_score(lambda r: np.sqrt(chi_sq_quantile(2, r)) if np.isscalar(r)
                        else np.array([np.sqrt(chi_sq_quantile(2, v)) for v in np.atleast_1d(r)]))
    assert vdw2.norm_sq() == pytest.approx(2.0, rel=1e-6)


def test_custom_score_divergent_integral_rejected():
    with pytest.raises(InvalidScoreError):
        custom_score(lambda r: 1.0 / (1.0 - np.asarray(r, dtype=float)))


def test_vector_score_hand_values():
    def vector_score(score, rank, sign, n_r):
        return score.evaluate(rank / (n_r + 1)) * sign

    w = wilcoxon_score()
    v = vector_score(w, 2.0, np.array([1.0, 0.0]), 2)
    assert np.allclose(v, [2.0 / 3.0, 0.0], atol=1e-15)
    z = vector_score(w, 0.0, np.array([0.0, 0.0]), 2)
    assert np.array_equal(z, [0.0, 0.0])
    vdw = van_der_waerden_score(2)
    v5 = vector_score(vdw, 5.0, np.array([0.0, 1.0]), 10)
    assert v5[0] == 0.0
    assert v5[1] == pytest.approx(np.sqrt(chi_sq_quantile(2, 5.0 / 11.0)), abs=1e-10)


def test_get_score_names():
    assert get_score("sign", 2).kind == "sign"
    assert get_score("wilcoxon", 3).kind == "wilcoxon"
    assert get_score("vdw", 4).norm_sq() == 4.0
    with pytest.raises(InvalidScoreError):
        get_score("spearman", 2)
    # passing a ready-made score through is allowed
    w = wilcoxon_score()
    assert get_score(w, 2) is w


def test_unhashable_score_name_is_a_score_error():
    with pytest.raises(InvalidScoreError, match="vdw"):
        get_score(["vdw"], 2)
    rng = np.random.default_rng(5)
    with pytest.raises(InvalidScoreError):
        two_sample_test(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)),
                        score=["vdw"])


def test_score_cov_spherical_form():
    w = wilcoxon_score()
    cov = w.score_cov(2)
    assert np.allclose(cov, np.eye(2) / 6.0, atol=1e-15)
    s = sign_score()
    assert np.allclose(s.score_cov(3), np.eye(3) / 3.0, atol=1e-15)


def test_vector_score_hook_with_estimated_covariance():
    grid = build_grid(make_spec(400, 2, symmetrize=True))
    # the identity map on ball points is exactly the wilcoxon vector
    # score J(r) s = r s, whose covariance integral is I/6 in d=2
    est = estimate_score_cov(lambda pts: pts, grid)
    assert np.allclose(est, np.eye(2) / 6.0, atol=0.01)
    vs = VectorScore(lambda pts: pts, est)
    assert vs.score_cov(2, grid).shape == (2, 2)
    assert np.allclose(vs.score_cov(2, grid), est, atol=1e-15)
