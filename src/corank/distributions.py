"""Bivariate error laws for the simulation studies.

Named laws (all centered unless noted, d = 2):

=============  =====================================================
name           law
=============  =====================================================
gauss          normal, unit variances, correlation 1/4
t1, t3         elliptical Student t with the same scaling, 1 or 3 df
mix2gauss      two normals, weights (1/4, 3/4), banana-shaped
mix2cauchy     the same mixture with 1-df t components
ushape         three-component normal mixture, U-shaped
sshape         three-component normal mixture, S-shaped
skewt<nu>      skew-t, slant (5, -3), scale correlation -1/2, nu df
=============  =====================================================

Student components are generated as ``mu + (A z) sqrt(nu) / sqrt(s)``
with ``A A' `` the scaling matrix, ``z`` standard normal and ``s``
chi-square(nu); the skew-t flips a latent normal by the sign of a
correlated scalar and divides by an independent chi factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidSpecError


@dataclass(frozen=True)
class Component:
    weight: float
    mean: np.ndarray
    chol: np.ndarray  # lower factor of the scaling matrix
    df: float | None = None  # None is Gaussian


@dataclass(frozen=True)
class MixtureLaw:
    """Finite mixture of Gaussian or elliptical-t components."""

    name: str
    components: tuple = field(repr=False)

    @property
    def d(self):
        return self.components[0].mean.shape[0]

    def _draw(self, n, rng):
        weights = np.array([c.weight for c in self.components])
        idx = rng.choice(len(self.components), size=n, p=weights)
        z = rng.standard_normal((n, self.d))
        out = np.empty((n, self.d))
        for j, comp in enumerate(self.components):
            mask = idx == j
            x = z[mask] @ comp.chol.T
            if comp.df is not None:
                s = rng.chisquare(comp.df, size=int(mask.sum()))
                x = x * np.sqrt(comp.df / s)[:, None]
            out[mask] = comp.mean + x
        return out, idx


@dataclass(frozen=True)
class SkewTLaw:
    """Azzalini-type skew-t: sign-flipped correlated normal over a chi."""

    name: str
    slant: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    df: float

    @property
    def d(self):
        return self.slant.shape[0]

    def _draw(self, n, rng):
        alpha = self.slant
        omega = self.scale
        delta = omega @ alpha / math.sqrt(1.0 + alpha @ omega @ alpha)
        top = np.concatenate([[1.0], delta])
        bottom = np.column_stack([delta[:, None], omega])
        big = np.vstack([top[None, :], bottom])
        chol = np.linalg.cholesky(big)
        latent = rng.standard_normal((n, self.d + 1)) @ chol.T
        z = np.sign(latent[:, :1]) * latent[:, 1:]
        w = rng.chisquare(self.df, size=n)
        return self.shift + z * np.sqrt(self.df / w)[:, None], np.zeros(n, dtype=int)


def _comp(weight, mean, scale, df=None):
    scale = np.asarray(scale, dtype=float)
    return Component(
        weight=weight,
        mean=np.asarray(mean, dtype=float),
        chol=np.linalg.cholesky(scale),
        df=df,
    )


_BASE_SCALE = [[1.0, 0.25], [0.25, 1.0]]
_MIX2_MEANS = ([0.75, 0.0], [-0.25, 0.0])
_MIX2_SCALES = ([[1.0, 2 / 3], [2 / 3, 1.0]], [[1.0, -2 / 3], [-2 / 3, 1.0]])
_ROOT38 = math.sqrt(3.0 / 8.0)


def _mix2(name, df):
    return MixtureLaw(
        name=name,
        components=(
            _comp(0.25, _MIX2_MEANS[0], _MIX2_SCALES[0], df),
            _comp(0.75, _MIX2_MEANS[1], _MIX2_SCALES[1], df),
        ),
    )


_FIXED_LAWS = {
    "gauss": lambda: MixtureLaw(
        name="gauss", components=(_comp(1.0, [0.0, 0.0], _BASE_SCALE),)
    ),
    "t1": lambda: MixtureLaw(
        name="t1", components=(_comp(1.0, [0.0, 0.0], _BASE_SCALE, df=1.0),)
    ),
    "t3": lambda: MixtureLaw(
        name="t3", components=(_comp(1.0, [0.0, 0.0], _BASE_SCALE, df=3.0),)
    ),
    "mix2gauss": lambda: _mix2("mix2gauss", None),
    "mix2cauchy": lambda: _mix2("mix2cauchy", 1.0),
    "ushape": lambda: MixtureLaw(
        name="ushape",
        components=(
            _comp(0.5, [0.0, 0.0], [[2.0, 0.0], [0.0, 0.125]]),
            _comp(0.25, [-3.0, 1.0], [[0.5, -1 / 3], [-1 / 3, 0.5]]),
            _comp(0.25, [3.0, 1.0], [[0.5, 1 / 3], [1 / 3, 0.5]]),
        ),
    ),
    "sshape": lambda: MixtureLaw(
        name="sshape",
        components=(
            _comp(1 / 3, [-4.5, -0.5], [[1.5, -_ROOT38], [-_ROOT38, 1.0]]),
            _comp(1 / 3, [0.0, -0.5], [[1.5, _ROOT38], [_ROOT38, 1.0]]),
            _comp(1 / 3, [4.5, 1.0], [[1.5, -_ROOT38], [-_ROOT38, 1.0]]),
        ),
    ),
}


def make_law(name):
    """Resolve a law by name; "skewt" takes its df as a suffix."""
    if name in _FIXED_LAWS:
        return _FIXED_LAWS[name]()
    match = re.fullmatch(r"skewt(\d+(?:\.\d+)?)", name)
    if match:
        df = float(match.group(1))
        if df <= 0.0:
            raise InvalidSpecError(f"law {name!r}: skew-t df must be > 0")
        return SkewTLaw(
            name=name,
            slant=np.array([5.0, -3.0]),
            scale=np.array([[1.0, -0.5], [-0.5, 1.0]]),
            shift=np.zeros(2),
            df=df,
        )
    raise InvalidSpecError(
        f"unknown law {name!r}; expected one of {sorted(_FIXED_LAWS)} or skewt<df>"
    )


def sample(law, n, seed=None, return_components=False):
    """Draw ``n`` observations from a law.

    Parameters
    ----------
    law : MixtureLaw or SkewTLaw
    n : int
    seed : int, sequence of int, or numpy Generator, optional
    return_components : bool
        Also return the mixture component index per observation.

    Returns
    -------
    (n, d) ndarray, or (samples, component_indices) if requested.
    Bit-identical for identical seeds.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got n={n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    out, idx = law._draw(n, rng)
    if return_components:
        return out, idx
    return out


def shift(samples, delta):
    """Add the same offset ``delta`` to every coordinate."""
    samples = np.asarray(samples, dtype=float)
    return samples + float(delta)
