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

CDF outputs are clamped to ``[CLAMP_EPS, 1 - CLAMP_EPS]``.  The clamp
pins the extreme tails (probit beyond |u| ~ 7.94, the compit upper tail
beyond u ~ 3.54) of the public CDF, of ``gen`` and of the classifier;
everywhere else values are accurate to double precision.  The
likelihood does not use the clamp.

The density ``f`` and its slope ``f'`` come from one function per link
that computes both from shared intermediates (phi for probit, ``exp(t)``
for compit, ``1 + u^2`` for cauchit, the logistic CDF for logit);
``density`` and ``density_prime`` return its two halves.

The MLE solver reads two private functions per link.  ``_LOG_TERMS``
maps a linear predictor eta and the response sign s = 2y - 1 to each
observation's exact log-likelihood term, log F(eta) where y = 1 and
log(1 - F(eta)) where y = 0, with no clamp.  For the symmetric links
1 - F(eta) = F(-eta), so the term is log F(t) at t = s*eta.  Probit
forms it from one erfc per element, e = Phi(-|t|): log(e) below t = 0
and log1p(-e) above it, with ``log_ndtr`` only below t = -37, where e
nears the subnormal range.  Cauchit forms it from one arctan per
element, b = pi*F(-|t|) = arctan(1/|t|), which is exact in both tails
and is pi/2 where 1/|t| overflows: log(b/pi) below t = 0 and
log1p(-b/pi) above it.  ``_WEIGHTS`` turns what that pass kept
into the score weight u = dl/deta and the information weight
w = -d2l/deta2, so the solver never evaluates eta, F or the log twice
for one point.  Both stay finite and accurate in both tails, out to
|eta| = 1e300; only compit caps eta at 700 inside ``exp``, as its CDF
does.

All functions accept scalars or arrays and are pure, so they are safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np
from scipy.special import erfc, log_ndtr, ndtri

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
_LOG_INV_SQRT_2PI = -0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

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
    # 0.5*u*u overflows past |u| ~ 1.9e154, where exp(-inf) gives the exact 0
    with np.errstate(over="ignore"):
        phi = _INV_SQRT_2PI * np.exp(-0.5 * u * u)
    return phi, -u * phi


def _compit_densities(u):
    t = np.minimum(u, _EXP_CAP)
    e = np.exp(t)
    f = np.exp(t - e)
    return f, f * (1.0 - e)


def _cauchit_densities(u):
    # pi*s**2 overflows past |u| ~ 8.7e76 and pi*s past ~7.6e153: the slope
    # and then the density come out -0 and 0, the one-line formulas' values
    # (the true ones underflow only past ~6e107 and ~2.5e161); -2u itself
    # overflows past ~9e307, so u is capped where the slope is +-0 already
    with np.errstate(over="ignore"):
        s = 1.0 + u * u
        return 1.0 / (math.pi * s), -2.0 * np.clip(u, -1e300, 1e300) / (math.pi * s ** 2)


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


# Log-likelihood terms and their eta-derivatives.  Each _LOG_TERMS entry
# maps (eta, s) to a tuple whose first array is the per-element term and
# whose other arrays are what the link's _WEIGHTS entry needs besides s;
# the solver keeps the tuple of every accepted point, so the weights cost
# no second pass over eta.  With lam = f(t)/F(t), a symmetric link's
# term log F(t) has u = s*lam and w = lam*(lam - f'(t)/f(t)).

# The probit lam = phi(t)/Phi(t) is exp(log phi(t) - term).  Below
# t = -5, where lam + t ~ -1/t cancels, both come from the continued
# fraction lam + t = 1/(z + 2/(z + 3/(z + ...))), z = -t, whose first 32
# levels are exact to double precision there.
_PROBIT_TAIL = -5.0
_MILLS_LEVELS = 32


# log Phi(t) is log(e) below t = 0 and log1p(-e) above it, from one
# e = Phi(-|t|) = erfc(|t|/sqrt 2)/2.  Below t = -37, where e nears the
# subnormal range, log_ndtr takes over.
_PROBIT_DEEP = -37.0


def _probit_log_terms(eta, s):
    t = s * eta
    # scipy.special ufuncs are called on whole arrays, never with where=:
    # erfc(a, out=o, where=m) aborted the process with "double free or
    # corruption" (scipy 1.17.1, numpy 2.4.6)
    e = 0.5 * erfc(np.abs(t) / _SQRT2)
    # e is 0 far out in the lower tail, where log_ndtr replaces log(e)
    with np.errstate(divide="ignore"):
        term = np.where(t < 0.0, np.log(e), np.log1p(-e))
    deep = t < _PROBIT_DEEP
    if deep.any():
        term[deep] = log_ndtr(t[deep])
    return term, t


def _probit_weights(s, term, t):
    lam = np.exp(_LOG_INV_SQRT_2PI - 0.5 * t * t - term)
    lam_t = lam + t
    tail = t < _PROBIT_TAIL
    if tail.any():
        z = -t[tail]
        acc = np.zeros_like(z)
        for level in range(_MILLS_LEVELS, 1, -1):
            acc = level / (z + acc)
        lam_t[tail] = 1.0 / (z + acc)
        lam[tail] = z + lam_t[tail]
    # f'/f = -t
    return s * lam, lam * lam_t


def _logit_log_terms(eta, s):
    # log F(t) = -log(1 + exp(-t)), written overflow-free
    t = s * eta
    return (-(np.maximum(-t, 0.0) + np.log1p(np.exp(-np.abs(t)))),)


def _logit_weights(s, term):
    # lam = 1 - F(t) and f'/f = 1 - 2F(t), so w = F(t) * lam
    lam = -np.expm1(term)
    return s * lam, np.exp(term) * lam


def _cauchit_log_terms(eta, s):
    t = s * eta
    # b = pi*F(-|t|) = arctan(1/|t|) is exact in both tails, where
    # arctan(t)/pi + 1/2 is not, and is cheaper than arctan2(1, |t|); where
    # 1/|t| overflows, t = 0 included, it is arctan(inf) = pi/2.  a = pi*F(t)
    with np.errstate(divide="ignore", over="ignore"):
        b = np.arctan(1.0 / np.abs(t))
    lower = t < 0.0
    a = np.where(lower, b, math.pi - b)
    return np.where(lower, np.log(b) - _LOG_PI, np.log1p(b * (-1.0 / math.pi))), t, a


def _cauchit_weights(s, term, t, a):
    # lam = 1/((1 + t^2) a) and f'/f = -2t/(1 + t^2) = -2ta*lam; w can be
    # negative, so the cauchit information can be indefinite
    ta = t * a
    lam = 1.0 / (a + t * ta)
    return s * lam, lam * (lam * (1.0 + 2.0 * ta))


# log F(eta) = log(1 - exp(-e)), e = exp(eta), keeps full relative
# precision as log1p(-exp(-e)) above e = log 2 and as log(-expm1(-e))
# below it; each form sees e clipped to its own range, so that neither
# takes log(0).  Below eta = -40, log F(eta) equals eta to double
# precision.
_LOG2 = math.log(2.0)
_COMPIT_LOW = -40.0
_COMPIT_LOW_EXP = math.exp(_COMPIT_LOW)
# below e = 0.05, lam - 1 + e = e/2 + e^2/12 - e^4/720 + e^6/30240 + ...
# (lam = e/expm1(e), the Bernoulli series) replaces the cancelling form
_COMPIT_SERIES = 0.05


def _compit_log_terms(eta, s):
    eta = np.minimum(eta, _EXP_CAP)
    ne = -np.exp(eta)
    upper = np.log1p(-np.exp(np.minimum(ne, -_LOG2)))
    lower = np.log(-np.expm1(np.minimum(ne, -_COMPIT_LOW_EXP)))
    log_f = np.where(ne < -_LOG2, upper, lower)
    low = eta < _COMPIT_LOW
    if low.any():
        log_f[low] = eta[low]
    # log(1 - F) = -e
    return np.where(s > 0.0, log_f, ne), eta, ne


def _compit_weights(s, term, eta, ne):
    one = s > 0.0
    # f/F where y = 1; where y = 0 it is about e and stays finite
    lam = np.exp(eta + ne - term)
    # f'/f = 1 - e
    gap = lam - 1.0 - ne
    small = one & (ne > -_COMPIT_SERIES)
    if small.any():
        x = -ne[small]
        x2 = x * x
        gap[small] = x * (0.5 + x * (1.0 / 12.0 + x2 * (-1.0 / 720.0 + x2 / 30240.0)))
    # where y = 0 the term is -e: u = -e and w = e
    return np.where(one, lam, ne), np.where(one, lam * gap, -ne)


_LOG_TERMS = {
    LinkKind.PROBIT: _probit_log_terms,
    LinkKind.COMPIT: _compit_log_terms,
    LinkKind.CAUCHIT: _cauchit_log_terms,
    LinkKind.LOGIT: _logit_log_terms,
}

_WEIGHTS = {
    LinkKind.PROBIT: _probit_weights,
    LinkKind.COMPIT: _compit_weights,
    LinkKind.CAUCHIT: _cauchit_weights,
    LinkKind.LOGIT: _logit_weights,
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
    """The density slope f'(u).  The solver does not use it: its score and
    information weights come from the log-space terms (``_WEIGHTS``)."""
    arr = _finite_array(u, "u")
    return _like_input(_DENSITIES[link](arr)[1], u)


def logistic_normal_scale() -> float:
    """The factor sqrt(pi/8) that rescales a standard logistic variate to
    approximately standard normal; equivalently the slope ratio that makes
    the two CDFs agree at the origin to first order."""
    return math.sqrt(math.pi / 8.0)
