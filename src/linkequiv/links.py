"""The four binary-regression links: probit, compit, cauchit, logit.

Each link pairs a CDF ``F`` (the inverse link, mapping a linear predictor
to a success probability) with a quantile function ``g = F^-1`` (the link
itself) and a density ``f = F'``:

==========  ==========================  ==========================
link        F(u)                        g(v)
==========  ==========================  ==========================
probit      Phi(u)                      Phi^-1(v)
compit      1 - exp(-exp(u))            log(-log(1 - v))
cauchit     arctan(u)/pi + 1/2          tan(pi*(v - 1/2))
logit       1 / (1 + exp(-u))           log(v / (1 - v))
==========  ==========================  ==========================

CDF outputs are clamped to ``[CLAMP_EPS, 1 - CLAMP_EPS]`` so downstream
log-likelihoods never evaluate ``log(0)``.  The clamp pins the extreme
tails (probit beyond |u| ~ 7.94, the compit upper tail beyond u ~ 3.54);
everywhere else values are accurate to double precision.

The density ``f`` and its slope ``f'`` come from one function per link
that computes both from shared intermediates (phi for probit, ``exp(t)``
for compit, ``1 + u^2`` for cauchit, the logistic CDF for logit);
``density`` and ``density_prime`` return its two halves, and the MLE
solver takes both from one call, right after ``cdf`` has checked the
linear predictor.

All functions accept scalars or arrays and are pure, so they are safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import erfc, ndtri

from .errors import DomainError

__all__ = [
    "LinkKind",
    "CLAMP_EPS",
    "cdf",
    "quantile",
    "density",
    "density_prime",
    "logistic_normal_scale",
]

CLAMP_EPS = 1e-15

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# exp() overflows past ~709.8; anything this large is saturated anyway
_EXP_CAP = 700.0


class LinkKind(Enum):
    """The four links, in the conventional order."""

    PROBIT = "probit"
    COMPIT = "compit"
    CAUCHIT = "cauchit"
    LOGIT = "logit"

    def __str__(self) -> str:
        return self.value


def _probit_cdf(u):
    return 0.5 * erfc(-u / _SQRT2)


def _compit_cdf(u):
    # -expm1 keeps full relative precision in the lower tail
    return -np.expm1(-np.exp(np.minimum(u, _EXP_CAP)))


def _cauchit_cdf(u):
    return np.arctan(u) / math.pi + 0.5


def _logit_cdf(u):
    # tanh form is overflow-free on the whole real line
    return 0.5 * (1.0 + np.tanh(0.5 * u))


_CDF = {
    LinkKind.PROBIT: _probit_cdf,
    LinkKind.COMPIT: _compit_cdf,
    LinkKind.CAUCHIT: _cauchit_cdf,
    LinkKind.LOGIT: _logit_cdf,
}


def _compit_quantile(v):
    return np.log(-np.log1p(-v))


def _cauchit_quantile(v):
    return np.tan(math.pi * (v - 0.5))


def _logit_quantile(v):
    return np.log(v) - np.log1p(-v)


_QUANTILE = {
    LinkKind.PROBIT: ndtri,
    LinkKind.COMPIT: _compit_quantile,
    LinkKind.CAUCHIT: _cauchit_quantile,
    LinkKind.LOGIT: _logit_quantile,
}


def _probit_densities(u):
    phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return phi, -u * phi


def _compit_densities(u):
    t = np.minimum(u, _EXP_CAP)
    e = np.exp(t)
    f = np.exp(t - e)
    return f, f * (1.0 - e)


def _cauchit_densities(u):
    s = 1.0 + u * u
    return 1.0 / (math.pi * s), -2.0 * u / (math.pi * s ** 2)


def _logit_densities(u):
    lam = _logit_cdf(u)
    f = lam * (1.0 - lam)
    return f, f * (1.0 - 2.0 * lam)


_DENSITIES = {
    LinkKind.PROBIT: _probit_densities,
    LinkKind.COMPIT: _compit_densities,
    LinkKind.CAUCHIT: _cauchit_densities,
    LinkKind.LOGIT: _logit_densities,
}


def _finite_array(value, name):
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must be finite")
    return arr


def _like_input(result, value):
    if np.ndim(value) == 0:
        return float(result)
    return result


def cdf(link: LinkKind, u):
    """Success probability F(u), clamped to the open unit interval."""
    arr = _finite_array(u, "u")
    out = np.clip(_CDF[link](arr), CLAMP_EPS, 1.0 - CLAMP_EPS)
    return _like_input(out, u)


def quantile(link: LinkKind, v):
    """The link value g(v) = F^-1(v) for probabilities strictly in (0, 1)."""
    arr = _finite_array(v, "v")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("v must lie strictly between 0 and 1")
    return _like_input(_QUANTILE[link](arr), v)


def density(link: LinkKind, u):
    """The density f(u) = F'(u)."""
    arr = _finite_array(u, "u")
    return _like_input(_DENSITIES[link](arr)[0], u)


def density_prime(link: LinkKind, u):
    """The density slope f'(u), which enters the observed information."""
    arr = _finite_array(u, "u")
    return _like_input(_DENSITIES[link](arr)[1], u)


def logistic_normal_scale() -> float:
    """The factor sqrt(pi/8) that rescales a standard logistic variate to
    approximately standard normal; equivalently the slope ratio that makes
    the two CDFs agree at the origin to first order."""
    return math.sqrt(math.pi / 8.0)
