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

All functions accept scalars or arrays and are pure, so they are safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import erfc

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


# Acklam's rational approximation to the inverse normal CDF
# (relative error < 1.2e-9 before refinement).
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def _acklam_tail(q):
    num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
    den = (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
    return num / den


def _probit_quantile(v):
    x = np.empty_like(v)
    lo = v < _P_LOW
    hi = v > _P_HIGH
    mid = ~(lo | hi)
    if np.any(mid):
        q = v[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        x[mid] = num * q / den
    if np.any(lo):
        x[lo] = _acklam_tail(np.sqrt(-2.0 * np.log(v[lo])))
    if np.any(hi):
        x[hi] = -_acklam_tail(np.sqrt(-2.0 * np.log1p(-v[hi])))
    # one Newton step against the exact CDF sharpens the rational
    # approximation to near machine precision; skipped where the normal
    # density underflows (|x| > ~37).  The residual Phi(x) - v is formed
    # on whichever tail has full relative precision: for v > 1/2 it is
    # (1-v) - Q(x) with Q the upper-tail probability, and 1-v is exact
    # there by the Sterbenz lemma.
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    safe = pdf > 1e-300
    upper = v > 0.5
    residual = np.where(
        upper,
        (1.0 - v) - 0.5 * erfc(x / _SQRT2),
        _probit_cdf(x) - v,
    )
    x[safe] -= residual[safe] / pdf[safe]
    return x


def _compit_quantile(v):
    return np.log(-np.log1p(-v))


def _cauchit_quantile(v):
    return np.tan(math.pi * (v - 0.5))


def _logit_quantile(v):
    return np.log(v) - np.log1p(-v)


_QUANTILE = {
    LinkKind.PROBIT: _probit_quantile,
    LinkKind.COMPIT: _compit_quantile,
    LinkKind.CAUCHIT: _cauchit_quantile,
    LinkKind.LOGIT: _logit_quantile,
}


def _probit_density(u):
    return _INV_SQRT_2PI * np.exp(-0.5 * u * u)


def _compit_density(u):
    t = np.minimum(u, _EXP_CAP)
    return np.exp(t - np.exp(t))


def _cauchit_density(u):
    return 1.0 / (math.pi * (1.0 + u * u))


def _logit_density(u):
    lam = _logit_cdf(u)
    return lam * (1.0 - lam)


_DENSITY = {
    LinkKind.PROBIT: _probit_density,
    LinkKind.COMPIT: _compit_density,
    LinkKind.CAUCHIT: _cauchit_density,
    LinkKind.LOGIT: _logit_density,
}


def _probit_density_prime(u):
    return -u * _probit_density(u)


def _compit_density_prime(u):
    t = np.minimum(u, _EXP_CAP)
    return np.exp(t - np.exp(t)) * (1.0 - np.exp(t))


def _cauchit_density_prime(u):
    return -2.0 * u / (math.pi * (1.0 + u * u) ** 2)


def _logit_density_prime(u):
    lam = _logit_cdf(u)
    return lam * (1.0 - lam) * (1.0 - 2.0 * lam)


_DENSITY_PRIME = {
    LinkKind.PROBIT: _probit_density_prime,
    LinkKind.COMPIT: _compit_density_prime,
    LinkKind.CAUCHIT: _cauchit_density_prime,
    LinkKind.LOGIT: _logit_density_prime,
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
    out = _QUANTILE[link](np.atleast_1d(arr).astype(float))
    if np.ndim(v) == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def density(link: LinkKind, u):
    """The density f(u) = F'(u)."""
    arr = _finite_array(u, "u")
    return _like_input(_DENSITY[link](arr), u)


def density_prime(link: LinkKind, u):
    """The density slope f'(u), used by the observed information."""
    arr = _finite_array(u, "u")
    return _like_input(_DENSITY_PRIME[link](arr), u)


def logistic_normal_scale() -> float:
    """The factor sqrt(pi/8) that rescales a standard logistic variate to
    approximately standard normal; equivalently the slope ratio that makes
    the two CDFs agree at the origin to first order."""
    return math.sqrt(math.pi / 8.0)
