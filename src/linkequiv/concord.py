"""Classifiers, zero-one test error, train/test splitting and
sign-disagreement measurement.

A fitted model classifies through the majority rule
``h(x) = (1 + sign(F(eta(x)) - 1/2)) / 2`` with the convention
``sign(0) = +1``, so a predicted probability of exactly one half maps to
class 1.  Classification therefore depends on the coefficients only
through the sign of the linear predictor for symmetric links, which is
why positively proportional probit and logit classifiers never disagree.

Every train/test split of n rows trains on ceil(2n/3) of them, drawn
at random from the ``(seed, r, "split")`` stream, and tests on the rest;
n must be at least 3, so that both parts are non-empty.  Each part lists
its rows ordered by response, then by each predictor column in turn.

``_paired_pass`` is the paired-split study behind ``average_test_error``
and ``equiv``'s ``predictive_sim`` and ``ic_compare``: the R replicates
are cut into as few contiguous blocks as bound a block's memory, however
many workers there are; a block draws each of its splits once, fits
each link to all of its equal-size training sets in one stacked solve
and scores all of its test sets with one ``cdf`` call per link.  Its
result is a dict of named (R, L) arrays, one row per replicate and one
column per link: ``test_error``, ``aic`` and ``bic``.  The pass orders
the rows once, so every row of a stack holds its y = 0 rows and then its
y = 1 rows, each sorted by x: the link kernels' selects and branches then
run in long runs instead of at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ExperimentError, _check_count, _check_interval
from .fit import Dataset, ModelSpec, StackFit, _aic_bic, _fit_links, _model_matrix
from .links import LinkKind, cdf
from .parallel import replicate_map
from .rng import substream

__all__ = [
    "Classifier",
    "SplitPlan",
    "ConcordanceMatrix",
    "AverageTestError",
    "predict_prob",
    "classify",
    "test_error",
    "split",
    "average_test_error",
    "concordance_rate",
    "sign_disagreement_grid",
]


@dataclass(frozen=True)
class Classifier:
    """A model specification plus a concrete coefficient vector."""

    spec: ModelSpec
    coefficients: np.ndarray

    def __post_init__(self):
        beta = np.asarray(self.coefficients, dtype=float)
        if beta.ndim != 1:
            raise ArgumentError("coefficients must be a vector")
        if not np.all(np.isfinite(beta)):
            raise ArgumentError("coefficients must be finite")
        if beta.size < self.spec.coefficient_count(0):
            raise ArgumentError("a model with an intercept needs at least one coefficient")
        object.__setattr__(self, "coefficients", beta)

    @property
    def n_features(self) -> int:
        return self.coefficients.size - self.spec.coefficient_count(0)


@dataclass(frozen=True)
class SplitPlan:
    """How to resample train/test partitions: R replications keyed to a
    seed.  Every split of n rows trains on ceil(2n/3) of them."""

    replications: int
    seed: int

    def __post_init__(self):
        _check_count(self.replications, "replications", 1)


@dataclass(frozen=True)
class ConcordanceMatrix:
    """Pairwise disagreement fractions, symmetric with a zero diagonal."""

    links: tuple[LinkKind, ...]
    rates: np.ndarray


@dataclass(frozen=True)
class AverageTestError:
    """Mean test error with the per-replicate vector (NaN marks a
    replicate whose fit failed) and the count of such failures."""

    ate: float
    per_replicate: np.ndarray
    n_failed: int


def _points_matrix(c: Classifier, x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2 or pts.shape[1] != c.n_features:
        raise ArgumentError(
            f"points must have {c.n_features} features, got shape {np.shape(x)}"
        )
    return pts, single


def predict_prob(c: Classifier, x):
    """F(eta(x)) for a single point (1-d) or a matrix of row points."""
    pts, single = _points_matrix(c, x)
    # cdf refuses an eta that overflows with a DomainError, so the overflow
    # itself is not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        eta = _model_matrix(pts, c.spec.intercept) @ c.coefficients
    prob = cdf(c.spec.link, eta)
    return float(prob[0]) if single else prob


def classify(c: Classifier, x):
    """Majority-rule class label(s); probability one half maps to 1."""
    prob = predict_prob(c, x)
    if np.ndim(prob) == 0:
        return int(prob >= 0.5)
    return (prob >= 0.5).astype(int)


def test_error(c: Classifier, test: Dataset) -> float:
    """Fraction of test rows whose predicted class differs from y."""
    labels = classify(c, test.predictors)
    return float(np.mean(labels != test.response))


def _n_train(n: int) -> int:
    """Training rows of every split of n rows: ceil(2n/3), which leaves at
    least one test row once n is 3 or more."""
    if n < 3:
        raise ArgumentError("need at least 3 rows to split")
    return (2 * n + 2) // 3


def _row_order(data: Dataset) -> np.ndarray:
    """The dataset's row indices ordered by response, then by each
    predictor column in turn; ties keep their row order."""
    return np.lexsort(np.vstack([data.predictors.T[::-1], data.response]))


def _split_indices(order: np.ndarray, plan: SplitPlan,
                   replicates) -> tuple[np.ndarray, np.ndarray]:
    """Training and test row indices, (B, ceil(2n/3)) and (B, n - ceil(2n/3)),
    of the B ``replicates`` of the n rows that ``order`` lists, each row in
    that order.  A replicate's training rows are the first ceil(2n/3) of
    its stream's permutation, drawn once as a mask."""
    n = order.size
    n_train = _n_train(n)
    train = np.zeros((len(replicates), n), dtype=bool)
    for b, r in enumerate(replicates):
        train[b, substream(plan.seed, r, "split").permutation(n)[:n_train]] = True
    in_order = train[:, order]
    ordered = np.broadcast_to(order, in_order.shape)
    return ordered[in_order].reshape(-1, n_train), ordered[~in_order].reshape(-1, n - n_train)


def split(data: Dataset, plan: SplitPlan, r: int) -> tuple[Dataset, Dataset]:
    """Replicate ``r`` of the random train/test partition.

    ceil(2n/3) of the n rows train and the rest, at least one, test;
    the partition is a pure function of (plan.seed, r) and identical for
    every caller.  Each part lists its rows ordered by response, then by
    each predictor column in turn, as the paired-split pass fits them.
    """
    train_idx, test_idx = _split_indices(_row_order(data), plan, (r,))
    return data.subset(train_idx[0]), data.subset(test_idx[0])


# Most elements of a block's stacked training model matrix (replicates x
# training rows x coefficients).  A block's solve holds about a dozen arrays
# of that size or of its (replicates x rows) part, so this keeps a block
# near 6 MB however large R is; from about 33,000 training rows on, a
# block is a single replicate.
_BLOCK_ELEMENTS = 1 << 16


def _ate_replicate(link: LinkKind, fit: StackFit, points: np.ndarray,
                   labels: np.ndarray) -> np.ndarray:
    """Test error of each row of a stacked training fit under ``link`` on
    its own test set, (B, m, k) model matrices with (B, m) labels, scored
    with one ``cdf`` call; NaN where that row's fit failed.  A failed row is
    scored at zero coefficients, so every row takes the same path."""
    ok = fit.ok
    coefficients = np.where(ok[:, None], fit.coefficients, 0.0)
    eta = (points @ coefficients[:, :, None])[..., 0]
    errors = np.mean((cdf(link, eta) >= 0.5) != labels, axis=1)
    errors[~ok] = np.nan
    return errors


def _ic_replicate(fit: StackFit, n: int) -> tuple[np.ndarray, np.ndarray]:
    """AIC and BIC of each row of a stacked training fit on n rows; NaN
    where that row's fit failed.  A fitted row that did not converge is
    reported too."""
    return _aic_bic(fit.loglik, fit.coefficients.shape[1], n)


def _paired_block(args) -> dict[str, np.ndarray]:
    """The named (B, L) arrays of B consecutive replicates under L links:
    ``test_error``, ``aic`` and ``bic`` of each replicate's training fit.
    Each split is drawn once, and one fancy index each gathers all B
    training sets and all B test sets, their rows in the pass's ``order``;
    every training set has the same number of rows, so each link is fitted
    to all B of them in one stacked solve (``fit._fit_links``: logit first,
    from its linear-discriminant start, then probit and cauchit from its
    fit) and scores all B test sets at once."""
    data, order, links, plan, intercept, replicates = args
    train, test = _split_indices(order, plan, replicates)
    predictors, responses = data.predictors[train], data.response[train]
    points, labels = _model_matrix(data.predictors[test], intercept), data.response[test]
    fits = _fit_links(links, intercept, predictors, responses)
    out = {name: np.empty((len(replicates), len(links))) for name in ("test_error", "aic", "bic")}
    for j, link in enumerate(links):
        # the scorers stay functions of their own because perfbench/spans.py
        # traces them by name
        out["test_error"][:, j] = _ate_replicate(link, fits[link], points, labels)
        out["aic"][:, j], out["bic"][:, j] = _ic_replicate(fits[link], train.shape[1])
    return out


def _paired_pass(
    data: Dataset, links, plan: SplitPlan, intercept: bool, jobs: int
) -> dict[str, np.ndarray]:
    """The named arrays of ``_paired_block`` for every replicate's training
    fit under every link: each an (R, L) array, NaN where a training fit
    failed.

    The R replicates are cut into contiguous blocks, one
    ``replicate_map`` task each: as few as keep every block's stacked
    training data within ``_BLOCK_ELEMENTS``.  ``jobs`` never sets the
    block count: it goes to ``replicate_map``, whose pool-size rule
    decides how many workers run the blocks, so a pass that fits in one
    block runs in this process and starts no pool.  On a 2-vCPU host
    that paid for a 50-replicate block of 500 rows and was even at 98
    replicates; on a host with more free cores, splitting one block
    across workers may be faster (README, ``--jobs``).  Every block is
    shipped the data once, and a command starts at most one process
    pool.
    Stacked rows never interact, so the result does not depend on the
    blocking.  The rows are ordered once, by ``_row_order``, for every
    block.  The blocks' arrays are joined by name, so a block's new array
    reaches every reader of the pass unchanged.
    """
    n_train = _n_train(data.n)
    if data.response.min() == data.response.max():
        raise ArgumentError("response must contain both classes")
    R = plan.replications
    elements = R * n_train * (data.p + int(intercept))
    blocks = min(R, max(1, math.ceil(elements / _BLOCK_ELEMENTS)))
    order = _row_order(data)
    tasks = [
        (data, order, tuple(links), plan, intercept,
         range(R * b // blocks, R * (b + 1) // blocks))
        for b in range(blocks)
    ]
    parts = replicate_map(_paired_block, tasks, jobs=jobs)
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def average_test_error(spec: ModelSpec, data: Dataset, plan: SplitPlan) -> AverageTestError:
    """Mean zero-one test error over ``plan.replications`` random splits.

    Replicates whose training fit fails (separable resample, singular
    information) are recorded as NaN and excluded from the mean.  This is
    the one-link case of the paired-split pass.
    """
    values = _paired_pass(data, (spec.link,), plan, spec.intercept, jobs=1)["test_error"][:, 0]
    valid = values[np.isfinite(values)]
    if valid.size == 0:
        raise ExperimentError("every replicate failed to fit")
    return AverageTestError(
        ate=float(valid.mean()),
        per_replicate=values,
        n_failed=int(values.size - valid.size),
    )


def concordance_rate(c1: Classifier, c2: Classifier, points) -> float:
    """Fraction of points on which the two classifiers disagree."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ArgumentError("points must be a non-empty matrix of rows")
    return float(np.mean(classify(c1, pts) != classify(c2, pts)))


def _check_grid(a: float, b: float, s) -> None:
    """Reject a grid of ``s`` points on [a, b] unless a < b, the width
    b - a is finite and ``s`` is an integer of at least 2."""
    _check_interval(a, b, "interval")
    _check_count(s, "s", 2)


def sign_disagreement_grid(
    links,
    a: float,
    b: float,
    s: int,
    mode: str = "equispaced",
    seed: int = 0,
) -> ConcordanceMatrix:
    """Tabulate how often sign(F(u) - 1/2) differs between links over
    ``s`` points of [a, b], either equally spaced or drawn uniformly."""
    links = tuple(links)
    if not links:
        raise ArgumentError("need at least one link")
    _check_grid(a, b, s)
    if mode == "equispaced":
        points = np.linspace(a, b, s)
    elif mode == "uniform_random":
        points = substream(seed, "sign-grid").uniform(a, b, s)
    else:
        raise ArgumentError("mode must be 'equispaced' or 'uniform_random'")
    above = np.array([cdf(link, points) >= 0.5 for link in links])
    rates = (above[:, None] != above[None]).mean(axis=-1)
    return ConcordanceMatrix(links=links, rates=rates)
