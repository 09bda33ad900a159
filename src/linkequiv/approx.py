"""Closed-form small-coefficient estimators for univariate no-intercept models.

Expanding the score around beta = 0 and keeping the linear term gives,
for every link, the same sample statistic scaled by a link constant:

    kernel(x, y) = (2*sum(x*y) - sum(x)) / sum(x^2)

    logit estimate   = 2 * kernel
    probit estimate  = C1 / (2*C2) * kernel   (C1 = 0.797885, C2 = 0.31831)
    cauchit estimate = pi / 2 * kernel

so probit/logit = C1/(4*C2) ~ 0.6267 (often quoted rounded to 0.625) and
cauchit/logit = pi/4 exactly, independent of the sample.  The module
constants C1 ~ sqrt(2/pi) and C2 ~ 1/pi are kept in their conventional
6- and 5-digit decimal forms rather than computed from pi, so printed
ratios match the published decimal arithmetic; the analytic identities
are exercised in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equiv import _scaled
from .errors import ArgumentError, DegenerateSampleError
from .fit import _check_entries

__all__ = [
    "UnivariateSample",
    "shared_kernel",
    "beta_cf_logit",
    "beta_cf_probit",
    "beta_cf_cauchit",
    "ratio_identities",
]

# the probit expansion constants, C1 ~ sqrt(2/pi) and C2 ~ 1/pi
C1 = 0.797885
C2 = 0.31831


@dataclass(frozen=True)
class UnivariateSample:
    """A single real predictor with a 0/1 response."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape[0] < 1:
            raise ArgumentError("x must be a non-empty vector")
        if y.shape != x.shape:
            raise ArgumentError("x and y must have equal length")
        _check_entries(x, y)
        # shared_kernel scales x by a power of two before squaring, so its
        # sum of squares is zero only where every x is
        if not x.any():
            raise DegenerateSampleError("sum of squared predictors is zero")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


def shared_kernel(s: UnivariateSample) -> float:
    """(2*sum(x*y) - sum(x)) / sum(x^2), the factor common to all three
    closed-form estimators.

    Evaluated as sum(x*(2y - 1))/sum(x^2), which is the same quantity
    but makes flipping every y to 1-y negate the result exactly, with x
    scaled by a power of two (``equiv._scaled``), so that neither sum
    overflows or underflows.  A kernel beyond the double range, as
    subnormal x give, is +-inf.
    """
    x, e = _scaled(s.x)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.sum(x * (2.0 * s.y - 1.0)) / np.sum(x * x), -e))


def beta_cf_logit(s: UnivariateSample) -> float:
    """Closed-form logit estimate, 2 * kernel."""
    return 2.0 * shared_kernel(s)


def beta_cf_probit(s: UnivariateSample) -> float:
    """Closed-form probit estimate, C1/(2*C2) * kernel."""
    return C1 / (2.0 * C2) * shared_kernel(s)


def beta_cf_cauchit(s: UnivariateSample) -> float:
    """Closed-form cauchit estimate, pi/2 * kernel."""
    return 0.5 * math.pi * shared_kernel(s)


def ratio_identities() -> dict[str, float]:
    """The sample-free proportionality constants between the estimators."""
    return {
        "probit_over_logit": C1 / (4.0 * C2),
        "cauchit_over_logit": math.pi / 4.0,
    }
