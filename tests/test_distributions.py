"""Error-law construction and sampling."""

import numpy as np
import pytest
from scipy import stats as sps

from corank import InvalidInputError, InvalidSpecError, make_law, sample, shift
from corank.distributions import MixtureLaw, SkewTLaw

NAMED = ["gauss", "t1", "t3", "mix2gauss", "mix2cauchy", "ushape", "sshape"]


def test_all_named_laws_resolve_and_sample():
    for name in NAMED + ["skewt3"]:
        law = make_law(name)
        assert law.name == name
        assert law.d == 2
        z = sample(law, 25, seed=0)
        assert z.shape == (25, 2)
        assert np.isfinite(z).all()


def test_skewt_df_suffix_parsing():
    assert make_law("skewt3").df == 3.0
    assert make_law("skewt1.1").df == 1.1
    for bad in ("skewt", "skewt-1", "cauchy", "skewtx", "SKEWT3", "skewt0", "skewt0.0"):
        with pytest.raises(InvalidSpecError):
            make_law(bad)


def test_sampling_is_reproducible():
    law = make_law("mix2cauchy")
    a = sample(law, 100, seed=123)
    b = sample(law, 100, seed=123)
    assert np.array_equal(a, b)
    c = sample(law, 100, seed=124)
    assert not np.array_equal(a, c)


def test_generator_seed_accepted():
    law = make_law("gauss")
    a = sample(law, 40, seed=np.random.default_rng(9))
    b = sample(law, 40, seed=np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_sample_rejects_empty():
    with pytest.raises(InvalidInputError):
        sample(make_law("gauss"), 0)


def test_gauss_correlation_and_variance():
    z = sample(make_law("gauss"), 10000, seed=1)
    assert np.corrcoef(z.T)[0, 1] == pytest.approx(0.25, abs=0.01)
    assert np.allclose(z.var(axis=0, ddof=1), 1.0, atol=0.05)


def test_mix2gauss_is_centered():
    z = sample(make_law("mix2gauss"), 10000, seed=2)
    assert np.abs(z.mean(axis=0)).max() < 0.02


def test_t1_medians_near_zero():
    z = sample(make_law("t1"), 10000, seed=3)
    assert np.abs(np.median(z, axis=0)).max() < 0.05


def test_mixture_component_frequencies():
    z, idx = sample(make_law("mix2gauss"), 10000, seed=4, return_components=True)
    assert z.shape == (10000, 2)
    assert set(np.unique(idx)) <= {0, 1}
    freq = (idx == 0).mean()
    se = np.sqrt(0.25 * 0.75 / 10000)
    assert abs(freq - 0.25) < 3 * se


def test_component_means_separate_mixture():
    z, idx = sample(make_law("mix2gauss"), 20000, seed=5, return_components=True)
    assert z[idx == 0, 0].mean() == pytest.approx(0.75, abs=0.05)
    assert z[idx == 1, 0].mean() == pytest.approx(-0.25, abs=0.05)


def test_shift_pin_and_round_trip():
    assert np.array_equal(shift([[1.0, 2.0]], 0.5), [[1.5, 2.5]])
    z = sample(make_law("sshape"), 50, seed=6)
    assert np.allclose(shift(shift(z, 0.3), -0.3), z, atol=1e-12)
    assert np.array_equal(shift(z, 0.0), z)


def test_flat_skewt_marginals_are_student_t():
    # zero slant collapses the skew construction to an elliptical t;
    # with unit scale diagonal each marginal is standard t(3)
    flat = SkewTLaw(
        name="flat",
        slant=np.zeros(2),
        scale=np.array([[1.0, -0.5], [-0.5, 1.0]]),
        shift=np.zeros(2),
        df=3.0,
    )
    for seed in (42, 4242):
        z = sample(flat, 10000, seed=seed)
        for j in (0, 1):
            assert sps.kstest(z[:, j], sps.t(3).cdf).pvalue > 0.01


def test_skewt_slant_skews_first_coordinate():
    z = sample(make_law("skewt3"), 20000, seed=7)
    # slant (5, -3): right-skewed first coordinate, left-skewed second
    assert sps.skew(z[:, 0]) > 0.2
    assert sps.skew(z[:, 1]) < -0.2


def test_student_tails_are_heavier():
    g = np.abs(sample(make_law("gauss"), 20000, seed=8)).max()
    t = np.abs(sample(make_law("t1"), 20000, seed=8)).max()
    assert t > 10 * g


def test_mixture_law_dimension_property():
    law = make_law("ushape")
    assert isinstance(law, MixtureLaw)
    assert law.d == 2
    assert len(law.components) == 3
    assert sum(c.weight for c in law.components) == pytest.approx(1.0, abs=1e-15)
