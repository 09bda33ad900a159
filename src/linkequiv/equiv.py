"""Monte-Carlo harnesses for structural and predictive equivalence.

``structural_sim`` runs the nested R x S experiment: for each outer
replicate, S datasets are drawn at once and fitted under logit and
under probit, one stacked solve per link, and the probit slope
estimates are regressed on the logit ones; the OLS slope theta,
intercept tau, correlation rho and R^2 of each outer replicate are
collected.  ``predictive_sim`` and ``ic_compare`` replay R paired
train/test splits (every link sees the identical partition sequence)
and summarize test errors or AIC/BIC over them.  Both read the
paired-split pass of ``concord``, which fits each link to a block of
training sets in one stacked solve and reports the test error, AIC and
BIC of every replicate under every link.

Everything is keyed by (seed, replicate index) streams, so results do
not depend on execution order or worker count.  Replicate r of the
structural experiment draws its S response rows (and, for a gaussian
design, its S rows of x) from the single streams ``(seed, r, "y")`` and
``(seed, r, "x")``; ``generate_dataset(cfg, seed, r)`` is row 0 of that
draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# _ic_replicate is bound here as well because the benchmark tracer
# (perfbench/spans.py) looks it up as equiv._ic_replicate.
from .concord import SplitPlan, _ic_replicate, _paired_pass  # noqa: F401
from .errors import ArgumentError, DegenerateSampleError, ExperimentError, _check_count
from .fit import Dataset, _fit_links
from .links import LinkKind, cdf
from .parallel import replicate_map
from .rng import substream

__all__ = [
    "Equispaced",
    "Gaussian",
    "GenConfig",
    "SummaryStats",
    "OlsLine",
    "ThetaReport",
    "TestErrorReport",
    "IcReport",
    "generate_dataset",
    "ols_simple",
    "structural_sim",
    "summarize",
    "predictive_sim",
    "ic_compare",
]


@dataclass(frozen=True)
class Equispaced:
    """Design with x equally spaced over [lo, hi], endpoints included."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ArgumentError("equispaced design needs lo < hi")


@dataclass(frozen=True)
class Gaussian:
    """Design with x drawn i.i.d. Normal(mean, sd^2)."""

    mean: float
    sd: float

    def __post_init__(self):
        if not self.sd > 0.0:
            raise ArgumentError("gaussian design needs sd > 0")


@dataclass(frozen=True)
class GenConfig:
    """Recipe for a synthetic univariate dataset: the x design, the true
    link, true intercept/slope and the sample size."""

    design: Equispaced | Gaussian
    truth_link: LinkKind
    beta0: float
    beta1: float
    n: int

    def __post_init__(self):
        _check_count(self.n, "n", 2)
        if not isinstance(self.design, (Equispaced, Gaussian)):
            raise ArgumentError("design must be Equispaced or Gaussian")


@dataclass(frozen=True)
class SummaryStats:
    """The nine replication statistics, in the conventional table order
    median, mean, sd, skewness, kurtosis, cv, IQR, min, max."""

    median: float
    mean: float
    sd: float
    skewness: float
    kurtosis: float
    cv: float
    iqr: float
    min: float
    max: float

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in STAT_ORDER}


STAT_ORDER = tuple(f.name for f in fields(SummaryStats))


@dataclass(frozen=True)
class OlsLine:
    """Simple least-squares line of ys on xs with its correlation."""

    tau: float
    theta: float
    rho: float
    r2: float


@dataclass(frozen=True)
class ThetaReport:
    """Per-replicate OLS slope/intercept/correlation of probit estimates
    on logit estimates.  NaN rows mark replicates with fewer than three
    surviving fit pairs; ``dropped`` counts pairs lost to failed fits."""

    theta_hats: np.ndarray
    tau_hats: np.ndarray
    rho_hats: np.ndarray
    r_squared: np.ndarray
    dropped: np.ndarray
    theta_summary: SummaryStats | None


@dataclass(frozen=True)
class TestErrorReport:
    """Raw per-replicate test errors for one link plus their summary."""

    values: np.ndarray
    stats: SummaryStats
    n_failed: int


@dataclass(frozen=True)
class IcReport:
    """Raw per-replicate AIC/BIC of the training fits for one link."""

    aic: np.ndarray
    bic: np.ndarray
    aic_stats: SummaryStats
    bic_stats: SummaryStats
    n_failed: int


def _draw(cfg: GenConfig, seed: int, path: tuple, S: int) -> tuple[np.ndarray, np.ndarray]:
    """The x values and S response rows of one stacked draw.

    x is the (n,) equispaced grid shared by every row, or an (S, n)
    gaussian draw from the ``(seed, *path, "x")`` stream; the (S, n)
    responses come from the ``(seed, *path, "y")`` stream.  A stream fills
    the rows in order, so row 0 of an S-row draw is the 1-row draw.
    """
    if isinstance(cfg.design, Equispaced):
        x = np.linspace(cfg.design.lo, cfg.design.hi, cfg.n)
    else:
        x = substream(seed, *path, "x").normal(cfg.design.mean, cfg.design.sd, (S, cfg.n))
    probs = cdf(cfg.truth_link, cfg.beta0 + cfg.beta1 * x)
    y = (substream(seed, *path, "y").random((S, cfg.n)) < probs).astype(float)
    return x, y


def generate_dataset(cfg: GenConfig, seed: int, replicate: int) -> Dataset:
    """Draw one dataset.  The result is a pure function of
    (cfg, seed, replicate), and is row 0 of that replicate's stacked
    draw."""
    x, y = _draw(cfg, seed, (int(replicate),), 1)
    return Dataset.univariate(x.reshape(-1), y[0])


def _scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` times 2^-e, and e, the binary exponent of their largest
    |value|.  The scaling is exact and puts that value in [0.5, 1), so
    the sums of products and powers formed from the scaled values neither
    overflow nor underflow."""
    e = int(np.frexp(np.max(np.abs(values)))[1])
    return np.ldexp(values, -e), e


def ols_simple(xs, ys) -> OlsLine:
    """Least-squares line of ys on xs with Pearson correlation and
    r2 = rho^2.  Requires length >= 3 and variation in both variables.
    The sums are formed on xs and ys each scaled by a power of two
    (``_scaled``), so any finite scale gives the same line."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ArgumentError("xs and ys must be equal-length vectors")
    if x.size < 3:
        raise ArgumentError("need at least 3 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ArgumentError("inputs must be finite")
    (x, ex), (y, ey) = _scaled(x), _scaled(y)
    xbar = x.mean()
    ybar = y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    syy = float(np.sum((y - ybar) ** 2))
    sxy = float(np.sum((x - xbar) * (y - ybar)))
    if sxx == 0.0:
        raise DegenerateSampleError("xs has zero variance")
    if syy == 0.0:
        raise DegenerateSampleError("ys is constant; correlation undefined")
    theta = sxy / sxx
    rho = sxy / math.sqrt(sxx * syy)
    return OlsLine(tau=float(np.ldexp(ybar - theta * xbar, ey)),
                   theta=float(np.ldexp(theta, ey - ex)), rho=rho, r2=rho * rho)


def _structural_replicate(args) -> tuple[float, float, float, float, int]:
    cfg, S, seed, r = args
    x, y = _draw(cfg, seed, (r,), S)
    return _slope_line(x[..., None], y, intercept=cfg.beta0 != 0.0)


def _slope_line(predictors, responses, intercept: bool) -> tuple[float, float, float, float, int]:
    """(theta, tau, rho, r2, dropped) of the probit slopes on the logit
    slopes over the S rows of one stacked draw, each link fitted in one
    stacked solve, probit from the start ``fit._fit_links`` gives it.
    Rows whose logit or probit fit fails are dropped pairwise; fewer than
    three surviving pairs give NaN statistics."""
    fits = _fit_links((LinkKind.LOGIT, LinkKind.PROBIT), intercept, predictors, responses)
    logit, probit = fits[LinkKind.LOGIT], fits[LinkKind.PROBIT]
    keep = logit.ok & probit.ok
    dropped = int(keep.size - keep.sum())
    nan = float("nan")
    if keep.sum() < 3:
        return nan, nan, nan, nan, dropped
    try:
        line = ols_simple(logit.coefficients[keep, -1], probit.coefficients[keep, -1])
    except DegenerateSampleError:
        return nan, nan, nan, nan, dropped
    return line.theta, line.tau, line.rho, line.r2, dropped


def structural_sim(
    cfg: GenConfig, R: int, S: int, seed: int, jobs: int = 1
) -> ThetaReport:
    """The nested R x S slope-estimation experiment.

    With ``cfg.beta0 == 0`` the fitted models drop the intercept (the
    setting in which the closed-form theory is stated); otherwise both
    models carry intercepts and the slope coefficients are paired.
    Within a replicate, datasets whose logit or probit fit fails are
    dropped pairwise.
    """
    _check_count(R, "R", 1)
    _check_count(S, "S", 3)
    tasks = [(cfg, S, seed, r) for r in range(R)]
    rows = replicate_map(_structural_replicate, tasks, jobs=jobs)
    theta, tau, rho, r2, dropped = np.array(rows).T
    valid = theta[np.isfinite(theta)]
    if valid.size == 0:
        raise ExperimentError("every replicate was invalid")
    summary = summarize(valid) if valid.size >= 2 else None
    return ThetaReport(
        theta_hats=theta,
        tau_hats=tau,
        rho_hats=rho,
        r_squared=r2,
        dropped=dropped.astype(int),
        theta_summary=summary,
    )


def summarize(values) -> SummaryStats:
    """The nine replication statistics of a vector.

    Conventions: median averages the two central order statistics for
    even length; sd uses the n-1 divisor; skewness and kurtosis use 1/n
    central moments, with kurtosis left non-excess (a normal sample
    scores about 3); cv is 100*sd/mean, reported as NaN when the mean is
    zero; quartiles interpolate linearly between order statistics.  The
    moments are formed on the values scaled by a power of two
    (``_scaled``), so any finite scale gives the same statistics.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ArgumentError("need a vector of at least 2 values")
    if not np.all(np.isfinite(arr)):
        raise ArgumentError("values must be finite")
    scaled, e = _scaled(arr)
    mean = float(scaled.mean())
    sd = float(scaled.std(ddof=1))
    centered = scaled - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    if m2 > 0.0:
        skewness = m3 / m2**1.5
        kurtosis = m4 / (m2 * m2)
    else:
        skewness = float("nan")
        kurtosis = float("nan")
    cv = 100.0 * sd / mean if mean != 0.0 else float("nan")
    q1, q3 = np.quantile(arr, [0.25, 0.75])
    return SummaryStats(
        median=float(np.median(arr)),
        mean=float(np.ldexp(mean, e)),
        sd=float(np.ldexp(sd, e)),
        skewness=skewness,
        kurtosis=kurtosis,
        cv=cv,
        iqr=float(q3 - q1),
        min=float(arr.min()),
        max=float(arr.max()),
    )


def _summary_pass(data: Dataset, links: tuple, plan: SplitPlan, jobs: int) -> tuple:
    """Test errors, AICs and BICs of the paired pass as (R, L) arrays, and
    the (R, L) mask of the replicates whose training fit succeeded (NaN in
    all three arrays otherwise).  A summary needs at least 2 replications,
    and at least 2 usable replicates under every link."""
    if plan.replications < 2:
        raise ArgumentError("summaries need at least 2 replications")
    te, aic, bic = _paired_pass(data, links, plan, intercept=True, jobs=jobs)
    usable = np.isfinite(te)
    for j, link in enumerate(links):
        if usable[:, j].sum() < 2:
            raise ExperimentError(f"{link}: fewer than 2 usable replicates")
    return te, aic, bic, usable


def predictive_sim(
    data: Dataset,
    links,
    plan: SplitPlan,
    jobs: int = 1,
) -> dict[LinkKind, TestErrorReport]:
    """Paired predictive comparison: every link, with an intercept, is
    fitted and scored on the identical split sequence, and its R test
    errors are summarized.
    """
    links = tuple(links)
    te, _, _, usable = _summary_pass(data, links, plan, jobs)
    return {
        link: TestErrorReport(
            values=te[:, j].copy(),
            stats=summarize(te[usable[:, j], j]),
            n_failed=int((~usable[:, j]).sum()),
        )
        for j, link in enumerate(links)
    }


def ic_compare(
    data: Dataset,
    links,
    plan: SplitPlan,
    jobs: int = 1,
) -> dict[LinkKind, IcReport]:
    """AIC/BIC of each per-replicate training fit, per link with an
    intercept, using the same paired split sequence as
    ``predictive_sim``."""
    links = tuple(links)
    _, aic, bic, usable = _summary_pass(data, links, plan, jobs)
    return {
        link: IcReport(
            aic=aic[:, j].copy(),
            bic=bic[:, j].copy(),
            aic_stats=summarize(aic[usable[:, j], j]),
            bic_stats=summarize(bic[usable[:, j], j]),
            n_failed=int((~usable[:, j]).sum()),
        )
        for j, link in enumerate(links)
    }
