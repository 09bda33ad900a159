"""Maximum-likelihood estimation of binary regression coefficients.

One solver fits a stack of S datasets at once: S response rows over a
shared (n, k) model matrix or over one matrix per row.  ``fit_stack``
fits one link, ``fit_mle`` is ``fit_stack`` on one row, packed into a
``FitResult``.  Rows never interact, so a row ends exactly where it
would alone.

The likelihood is exact: a likelihood pass evaluates each observation's
term log F(eta) or log(1 - F(eta)) in log space, with no clamp; for the
symmetric links that is log F(t) at t = (2y - 1)*eta, which probit forms
from one erfc per element (see ``links``).  A derivative pass turns the per-element
arrays that a likelihood pass left into the score and the observed
information, with no second eta, F or log evaluation.

The method is Newton ascent on the observed information with step
halving: every accepted step does not decrease the log-likelihood, and
line-search probes are likelihood passes only.  The solver is one loop
over the states of the running rows only: each row carries its own
point, log terms and line-search step, every pass of the loop probes
each running row once at its own step, so no row waits for another's
halvings, and a row that stops writes its outcome out and leaves the
state, so it is not evaluated again.  The solver keeps the per-element
arrays of each row's accepted point, so the row's next score and
information come from the probe that accepted it.  A row that refuses
its probe keeps its point and log terms bit for bit, so the next pass
gives it the same direction again, at half the step; an accepted probe
sets the step back to 1.  Where the Newton direction does not point
uphill (the cauchit information can be indefinite) the step falls back
to the gradient.  A row stops when its
Newton decrement g'd, d being the ridge-damped Newton direction, lies in
[0, ``SOLVER_TOL``].  Near the optimum the full step gains about half
the decrement, and unlike the score, the decrement does not change when
a predictor is rescaled (Boyd and Vandenberghe, Convex Optimization,
9.5).  That pass's full step is the row's last, taken only if the
log-likelihood does not fall.  A row also stops at the constant
``MAX_ITERATIONS`` iterations.  One batched solve gives the directions
of every row in a pass; a row whose information is not finite or exactly
singular, or whose linear predictor is not finite, fails alone.  A row
whose response takes a single value has no maximum: it enters the solver
with every other row and leaves at the stop site before its first pass.
A failure is one integer code per row, whose exception class and message
``_FAILURES`` names: the solver's entry, the solve and the likelihood
pass give the codes, the row writes its code out with its other fields
where it leaves the solver, and ``StackFit.errors`` is built from the
codes once, at the end.  ``_fit_links`` is the one way into the solver,
with the one start rule: logit first, each row of a model with an
intercept from its linear-discriminant estimate
(``_discriminant_start``), each probit or cauchit row from its factor
(``_LOGIT_FACTOR``) times that row's logit fit where it converged, every
other row from zero.  A start depends only on its own row, so a run is
reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, LinkEquivError, NumericalError, SeparationError
from .links import _LOG_TERMS, _WEIGHTS, LinkKind, logistic_normal_scale

__all__ = [
    "Dataset",
    "ModelSpec",
    "FitResult",
    "log_likelihood",
    "score",
    "observed_information",
    "fit_mle",
    "StackFit",
    "fit_stack",
    "information_criteria",
    "WARN_SEPARATION",
    "WARN_MAX_ITERATIONS",
]

# Newton decrement at which a row stops: much below it, the gain of a
# full step (about half the decrement) falls under the rounding of the
# log-likelihood
SOLVER_TOL = 1e-12
MAX_ITERATIONS = 100
MAX_HALVINGS = 30
RIDGE = 1e-10

# |coefficient| on standardized predictor scale beyond which the data
# look separable
SEPARATION_BOUND = 30.0

# A row that fails is recorded as one code, 0 for a row that did not;
# ``_FAILURES`` names the exception class and message of each code.
_SINGLE_VALUED, _NOT_FINITE, _INFORMATION_NOT_FINITE, _SINGULAR = 1, 2, 3, 4
_FAILURES = {
    _SINGLE_VALUED: (SeparationError, "response takes a single value; coefficients diverge"),
    _NOT_FINITE: (DomainError, "linear predictor must be finite"),
    _INFORMATION_NOT_FINITE: (NumericalError, "observed information is not finite"),
    _SINGULAR: (NumericalError, "information matrix is singular even after ridge damping"),
}

WARN_SEPARATION = "separation_suspected"
WARN_MAX_ITERATIONS = "max_iterations_reached"


@dataclass(frozen=True)
class Dataset:
    """An n x p predictor matrix, a 0/1 response vector and feature names.

    ``p = 0`` (an empty predictor matrix) describes intercept-only data.
    A 1-d ``predictors`` argument is treated as a single column.
    """

    predictors: np.ndarray
    response: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.asarray(self.predictors, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ArgumentError("predictors must be a vector or a 2-d matrix")
        if X.shape[0] < 1:
            raise ArgumentError("dataset needs at least one row")
        y = np.asarray(self.response, dtype=float)
        if y.shape != (X.shape[0],):
            raise ArgumentError("response length must match the number of rows")
        _check_entries(X, y)
        names = self.names
        if names is None:
            names = tuple(f"x{j + 1}" for j in range(X.shape[1]))
        names = tuple(str(label) for label in names)
        if len(names) != X.shape[1]:
            raise ArgumentError("need one name per predictor column")
        object.__setattr__(self, "predictors", X)
        object.__setattr__(self, "response", y)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.predictors.shape[0]

    @property
    def p(self) -> int:
        return self.predictors.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows picked by a boolean mask of length n or by integer
        indices."""
        idx = np.asarray(indices)
        if idx.dtype == bool:
            if idx.shape != (self.n,):
                raise ArgumentError(f"a row mask needs shape ({self.n},)")
        elif idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise ArgumentError("rows must be picked by a boolean mask or integer indices")
        elif not np.all((-self.n <= idx) & (idx < self.n)):
            raise ArgumentError(f"row indices must lie in [-{self.n}, {self.n})")
        return Dataset(self.predictors[idx], self.response[idx], self.names)

    @classmethod
    def univariate(cls, x, y) -> "Dataset":
        return cls(np.asarray(x, dtype=float).reshape(-1, 1), y, ("x",))

    @classmethod
    def intercept_only(cls, y) -> "Dataset":
        y = np.asarray(y, dtype=float)
        return cls(np.empty((y.shape[0], 0)), y, ())


@dataclass(frozen=True)
class ModelSpec:
    """Link choice plus whether the linear predictor carries an intercept."""

    link: LinkKind
    intercept: bool = True

    def coefficient_count(self, p: int) -> int:
        return p + 1 if self.intercept else p

    def coefficient_names(self, data: Dataset) -> tuple[str, ...]:
        if self.intercept:
            return ("intercept",) + data.names
        return data.names


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients with likelihood, information criteria and
    convergence diagnostics."""

    coefficients: np.ndarray
    loglik: float
    aic: float
    bic: float
    iterations: int
    converged: bool
    warnings: tuple[str, ...]
    n_obs: int


@dataclass(frozen=True)
class StackFit:
    """Per-row outcome of a stacked solve over S datasets: coefficients
    (S, k), and log-likelihood, iterations and convergence verdict (the
    Newton decrement rule) of shape (S,).  ``errors[i]`` holds the
    exception that stopped row i, whose numeric fields are then NaN, or
    None."""

    coefficients: np.ndarray
    loglik: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    errors: tuple[LinkEquivError | None, ...]

    @property
    def ok(self) -> np.ndarray:
        """Mask of the rows that were fitted."""
        return np.array([e is None for e in self.errors], dtype=bool)


def _failure(code: int) -> LinkEquivError:
    """A new exception for a row that failed with ``code``."""
    kind, message = _FAILURES[code]
    return kind(message)


def _check_entries(predictors: np.ndarray, responses: np.ndarray) -> None:
    """Reject non-finite predictors and responses other than 0/1."""
    if not np.all(np.isfinite(predictors)):
        raise ArgumentError("predictor entries must be finite")
    if not np.all((responses == 0.0) | (responses == 1.0)):
        raise ArgumentError("response entries must be 0/1")


def _model_matrix(predictors: np.ndarray, intercept: bool) -> np.ndarray:
    """Predictors of shape (..., n, p), with a leading column of ones
    when ``intercept`` is set."""
    if intercept:
        ones = np.ones(predictors.shape[:-1] + (1,))
        return np.concatenate([ones, predictors], axis=-1)
    return predictors


def _checked_beta(spec: ModelSpec, beta, data: Dataset) -> np.ndarray:
    b = np.asarray(beta, dtype=float)
    expected = spec.coefficient_count(data.p)
    if b.shape != (expected,):
        raise ArgumentError(
            f"coefficient vector has length {b.size}, model expects {expected}"
        )
    if not np.all(np.isfinite(b)):
        raise ArgumentError("coefficients must be finite")
    return b


def _likelihood(link: LinkKind, Xt: np.ndarray, sign: np.ndarray, beta: np.ndarray):
    """Log-likelihood of each row of a stack, and what its derivatives need.

    ``Xt`` is a transposed (k, n) model matrix shared by every row or an
    (S, k, n) stack of them, ``sign`` holds (S, n) response signs 2y - 1 and
    ``beta`` (S, k) coefficients.  Returns ``(ll, parts)``: ``ll`` of shape
    (S,), and ``parts`` the per-element arrays of the link's log terms,
    the first of them the terms themselves, which ``_derivatives`` turns
    into the score and information.  Every product is a batched matmul,
    so each row comes out exactly as it would on its own.  A row whose
    eta is not finite gets a NaN ``ll``, and the log terms of a zero
    eta, which no caller reads.
    """
    eta = (beta[:, None, :] @ Xt)[:, 0, :]
    # a sum of squares is finite only if every eta is: one dot product
    # clears the stack, and only a stack that fails it is searched by row
    overflow = None
    if not np.isfinite(np.vdot(eta, eta)):
        overflow = ~np.isfinite(eta).all(axis=1)
        eta[overflow] = 0.0
    parts = _LOG_TERMS[link](eta, sign)
    ll = parts[0].sum(axis=-1)
    if overflow is not None:
        ll[overflow] = np.nan
    return ll, parts


def _derivatives(link: LinkKind, Xt: np.ndarray, sign: np.ndarray, parts) -> tuple:
    """Score (S, k) and observed information (S, k, k) of the rows whose
    ``_likelihood`` pass left ``parts``."""
    u, w = _WEIGHTS[link](sign, *parts)
    g = (Xt @ u[:, :, None])[:, :, 0]
    # where a row's products overflow, +inf and -inf sum to NaN; the
    # solver then drops that row as having non-finite information (both
    # callers run under an errstate that ignores the warning)
    H = (Xt * w[:, None, :]) @ np.swapaxes(Xt, -1, -2)
    return g, H


def _one_row(spec: ModelSpec, beta, data: Dataset):
    """The transposed model matrix and response signs of one dataset as
    ``_stack_input`` lays out a one-row stack, and its likelihood pass at
    ``beta``; raises ``DomainError`` where eta is not finite."""
    b = _checked_beta(spec, beta, data)
    _, Xt, sign = _stack_input(spec.intercept, data.predictors, data.response[None])
    with np.errstate(over="ignore", invalid="ignore"):
        ll, parts = _likelihood(spec.link, Xt, sign, b[None])
    if np.isnan(ll[0]):
        raise _failure(_NOT_FINITE)
    return Xt, sign, ll, parts


def log_likelihood(spec: ModelSpec, beta, data: Dataset) -> float:
    """Bernoulli log-likelihood sum(y*log(pi) + (1-y)*log(1-pi)) with
    pi = F(eta), each term evaluated in log space without a clamp; it is
    -inf only where a term overflows the double range."""
    return float(_one_row(spec, beta, data)[2][0])


# far-tail weights are formed from intermediates that overflow and are
# then replaced, so the warnings would be about values that are not used
@np.errstate(over="ignore", invalid="ignore")
def _score_and_information(spec: ModelSpec, beta, data: Dataset):
    Xt, sign, _, parts = _one_row(spec, beta, data)
    g, H = _derivatives(spec.link, Xt, sign, parts)
    return g[0], H[0]


def score(spec: ModelSpec, beta, data: Dataset) -> np.ndarray:
    """Gradient of the log-likelihood,
    sum_i (y_i - pi_i) * f(eta_i) / (pi_i * (1 - pi_i)) * xtilde_i, with
    each weight formed in log space, so it stays exact where pi_i rounds
    to 0 or 1."""
    return _score_and_information(spec, beta, data)[0]


def observed_information(spec: ModelSpec, beta, data: Dataset) -> np.ndarray:
    """Negative Hessian of the log-likelihood at ``beta``, from the same
    log-space pass as ``score``."""
    return _score_and_information(spec, beta, data)[1]


def _solve_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solutions x of a stack of systems A x = b, (S, k, k) and (S, k),
    and the (S,) failure codes of the rows: ``_INFORMATION_NOT_FINITE``
    where A is not finite, ``_SINGULAR`` where it meets a zero LU pivot,
    and 0 where the row solves.  A failed row's x is NaN.  One batched
    solve serves the stack unless a row is not finite or the solve
    raises; then each row is solved alone, to the same bits as in the
    batched solve, so a row's x does not depend on the others.  ``A`` is
    left as it was."""
    code = np.zeros(len(A), dtype=int)
    if np.isfinite(A).all():
        try:
            return np.linalg.solve(A, b[..., None])[..., 0], code
        except np.linalg.LinAlgError:
            pass
    x = np.full(b.shape, np.nan)
    for i, (a_i, b_i) in enumerate(zip(A, b)):
        if not np.isfinite(a_i).all():
            code[i] = _INFORMATION_NOT_FINITE
            continue
        try:
            x[i] = np.linalg.solve(a_i, b_i)
        except np.linalg.LinAlgError:
            code[i] = _SINGULAR
    return x, code


def _directions(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton directions (H + ridge)^-1 g of a stack and the failure code
    of each row, as ``_solve_rows`` gives them: a row fails when its
    information is not finite or its damped information is exactly
    singular, and its direction is then NaN."""
    return _solve_rows(H + RIDGE * np.eye(g.shape[1]), g)


# an overflow touches only its own row, which then fails or refuses its
# probe, so it is not warned about
@np.errstate(over="ignore", invalid="ignore")
def _newton(link: LinkKind, stack: tuple, start: np.ndarray) -> StackFit:
    """The solver behind ``_fit_links``, on a stack that ``_stack_input``
    laid out, from the (S, k) points ``start``.

    Every row of the stack enters the solver's state, which then covers
    the running rows only: ``live`` maps each position of its arrays to a
    stack row, and a per-row ``Xt`` and the response signs are cut down
    with it.  A first likelihood pass evaluates every row at its start,
    and each row then carries its point, log-likelihood, log terms,
    line-search step and iteration count, nothing else.  Every pass of the
    loop turns the log terms of every live row into its score,
    information, direction and decrement verdict, and probes every live
    row at its own step in one likelihood pass.  The probe's arrays become
    the state, and the rows that did not take their probe copy their old
    point, log-likelihood and log terms back bit for bit, so no point is
    evaluated twice and the next pass gives such a row the same direction
    and verdict again.  A row's step is 1 after an accepted probe and
    halves after a refused one.  A row stops after the probe of its
    decrement-rule pass, after an accepted probe that moves no
    coefficient, when its halvings run out or at ``MAX_ITERATIONS``
    iterations: at the top of the next pass it writes its outcome into the
    stack and leaves the state, and is not evaluated again.  A row fails
    with ``_SINGLE_VALUED`` where ``_stack_input`` marks its response
    single-valued, with the code that ``_directions`` gives it, or with
    ``_NOT_FINITE`` where its linear predictor is not finite at its start
    or at a probe (``_likelihood`` gives it a NaN log-likelihood); at
    entry ``_SINGLE_VALUED`` takes precedence.  A row failed by
    ``_directions`` probes its own point with a zero direction.  A failed
    row stops after that probe, before its first pass if it fails at
    entry, and the one stop site writes its code with NaN numeric fields;
    ``StackFit.errors`` is built from the codes at return.  Rows never
    wait for each other, so the stack makes as many likelihood passes as
    its slowest row would alone.  In the usual pass every row's Newton
    direction points uphill and every row takes its probe; such a pass
    does no more than that, and the gradient fallback, the failure codes
    of probes and the copying back of refused rows run only in a pass
    where some row needs them.
    """
    single, X, s = stack
    S, k = single.size, X.shape[-2]
    failure = np.zeros(S, dtype=int)
    coefficients = np.full((S, k), np.nan)
    loglik = np.full(S, np.nan)
    iterations = np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)
    live, b = np.arange(S), start
    l, parts = _likelihood(link, X, s, b)
    step = np.ones(S)
    taken = np.zeros(S, dtype=int)
    # a single-valued row, and a row whose start overflows, stops before
    # its first pass
    code = np.where(single, _SINGLE_VALUED, np.where(np.isnan(l), _NOT_FINITE, 0))
    stop = code > 0
    verdict = np.zeros(S, dtype=bool)
    while True:
        if stop.any():
            # the one place a row leaves: a failed row's numeric fields are NaN
            rows, ok = live[stop], code[stop] == 0
            coefficients[rows] = np.where(ok[:, None], b[stop], np.nan)
            loglik[rows] = np.where(ok, l[stop], np.nan)
            iterations[rows], converged[rows] = taken[stop], verdict[stop] & ok
            failure[rows] = code[stop]
            keep = ~stop
            live, s, b, l, step, taken = (state[keep] for state in (live, s, b, l, step, taken))
            parts = [part[keep] for part in parts]
            X = X if X.ndim == 2 else X[keep]
        if not live.size:
            break
        g, H = _derivatives(link, X, s, parts)
        newton, code = _directions(H, g)
        decrement = (g * newton).sum(axis=1)
        # a direction that is not finite, a failed row's NaN among them,
        # gives a decrement that is not; the usual pass, every decrement
        # positive and finite, takes every Newton direction
        direction = newton
        if not ((decrement > 0.0) & (decrement < np.inf)).all():
            # the cauchit information can be indefinite: where the Newton
            # direction does not point uphill, take the gradient instead
            uphill = np.isfinite(newton).all(axis=1) & (decrement > 0.0)
            direction = np.where(uphill[:, None], newton, g)
            # a failed row probes its own point, which it does not leave
            direction[code > 0] = 0.0
        # the decrement rule: this pass's probe is the row's last
        verdict = (decrement >= 0.0) & (decrement <= SOLVER_TOL)
        candidate = b + step[:, None] * direction
        c_l, c_parts = _likelihood(link, X, s, candidate)
        # ties are accepted: near the optimum the true gain rounds below
        # the float resolution of the log-likelihood; an accepted step that
        # moves no coefficient is a stall
        accepted = c_l >= l
        moved = accepted & (candidate != b).any(axis=1)
        if moved.all():
            # the usual pass: every row takes its probe
            b, l, parts = candidate, c_l, c_parts
            taken += 1
            step.fill(1.0)
            stop = verdict | (taken >= MAX_ITERATIONS)
            continue
        # a probe whose eta is not finite fails its row (NaN refuses it)
        code[np.isnan(c_l)] = _NOT_FINITE
        stay = ~moved
        candidate[stay], c_l[stay] = b[stay], l[stay]
        for new, old in zip(c_parts, parts):
            new[stay] = old[stay]
        b, l, parts = candidate, c_l, c_parts
        taken += moved
        step = np.where(stay, 0.5 * step, 1.0)
        stop = ((code > 0) | verdict | (stay & (accepted | (step < 0.5 ** MAX_HALVINGS)))
                | (taken >= MAX_ITERATIONS))
    return StackFit(
        coefficients=coefficients,
        loglik=loglik,
        iterations=iterations,
        converged=converged,
        errors=tuple(_failure(c) if c else None for c in failure.tolist()),
    )


def fit_stack(spec: ModelSpec, predictors, responses) -> StackFit:
    """Fit S datasets under one link in one batched solve.

    ``responses`` is an (S, n) array of 0/1 rows; ``predictors`` is an
    (n, p) matrix shared by every row or an (S, n, p) stack, one matrix
    per row.  Row i starts by the rule of ``_fit_links`` and ends where
    ``fit_mle`` ends on dataset i, for every link.  It has converged when
    its Newton decrement fell in [0, ``SOLVER_TOL``], and stops at
    ``MAX_ITERATIONS`` iterations at the latest.  A row whose fit fails
    (single-valued response in a model with any coefficient, information
    not finite or exactly singular, a linear predictor that is not finite
    at its start or at a probe) gets NaN fields and its exception in
    ``StackFit.errors``; the other rows are unaffected.
    """
    return _fit_links((spec.link,), spec.intercept, predictors, responses)[spec.link]


def _stack_input(intercept: bool, predictors, responses) -> tuple:
    """A stack as ``_newton`` takes it, once ``fit_stack``'s checks pass:
    ``(single, Xt, sign)`` over all S rows, where ``single`` masks the rows
    whose response takes a single value in a model with any coefficient
    (they enter the solver and leave at its stop site before the first
    pass), ``Xt`` is the transposed model matrix, shared (k, n) or one
    (k, n) per row, and ``sign`` the (S, n) response signs 2y - 1."""
    Y = np.asarray(responses, dtype=float)
    P = np.asarray(predictors, dtype=float)
    if Y.ndim != 2 or Y.size == 0:
        raise ArgumentError("responses must be a non-empty (S, n) array")
    if P.ndim not in (2, 3) or P.shape[-2] != Y.shape[1] or (
        P.ndim == 3 and P.shape[0] != Y.shape[0]
    ):
        raise ArgumentError("predictors must be (n, p) or (S, n, p) to match (S, n) responses")
    _check_entries(P, Y)
    # the evaluator's weighted sums run along the contiguous rows of Xt
    Xt = np.ascontiguousarray(np.swapaxes(_model_matrix(P, intercept), -1, -2))
    single = (Y.all(axis=1) | ~Y.any(axis=1)) & (Xt.shape[-2] > 0)
    return single, Xt, 2.0 * Y - 1.0


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _discriminant_start(Xt: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """The linear-discriminant estimate of the logit coefficients, (S, k),
    of each row of a stack whose transposed model matrix ``Xt`` has the
    intercept row first, from its (S, n) response signs 2y - 1.  With
    class means mu0 and mu1 of the predictors and their within-class
    covariance Sw, pooled over n - 2, the slope is Sw^-1 (mu1 - mu0) and
    the intercept log(n1) - log(n0) - (mu1 + mu0)'slope/2.  That is the
    logistic MLE when each class is normal with a shared covariance (Efron
    1975, JASA 70), and with no predictors it is the MLE log(n1/n0).  A
    row whose Sw is singular, or whose estimate is not finite, gets zero;
    so does a single-class row, which then leaves the solver at its stop
    site before the first pass.  Each row is summed along its own elements
    and solved alone, so its start is the same bits whether it is
    computed alone or in a stack."""
    one = (sign > 0.0)[:, None, :]
    X = Xt[..., 1:, :]
    n = sign.shape[1]
    n1 = one.sum(axis=-1)
    n0 = n - n1
    mu1 = np.where(one, X, 0.0).sum(axis=-1) / n1
    mu0 = np.where(one, 0.0, X).sum(axis=-1) / n0
    centred = X - np.where(one, mu1[..., None], mu0[..., None])
    within = centred @ np.swapaxes(centred, -1, -2) / (n - 2)
    slope = _solve_rows(within, mu1 - mu0)[0]
    # log(n1) - log(n0), unlike log(n1/n0), negates exactly when y -> 1 - y
    intercept = (np.log(n1) - np.log(n0)
                 - 0.5 * ((mu1 + mu0) * slope).sum(axis=-1, keepdims=True))
    start = np.concatenate([intercept, slope], axis=1)
    start[~np.isfinite(start).all(axis=1)] = 0.0
    return start


# probit and cauchit coefficients are about these factors times the logit
# ones on the same data (the paper's structural equivalence)
_LOGIT_FACTOR = {LinkKind.PROBIT: logistic_normal_scale(), LinkKind.CAUCHIT: math.pi / 4.0}


def _fit_links(links, intercept: bool, predictors, responses) -> dict[LinkKind, StackFit]:
    """The fits of one stack under each link, the stack checked and laid
    out once: the one way into ``_newton``.  Logit goes first; in a model
    with an intercept its rows start at their linear-discriminant estimate
    (``_discriminant_start``).  A probit or cauchit row starts at its
    link's factor times that row's logit coefficients where the logit fit
    converged.  Every other row starts at zero.  A start depends only on
    its own row, so blocking does not change any fit."""
    stack = _stack_input(intercept, predictors, responses)
    _, Xt, sign = stack
    fits: dict[LinkKind, StackFit] = {}
    for link in sorted(links, key=lambda link: link is not LinkKind.LOGIT):
        start = np.zeros((sign.shape[0], Xt.shape[-2]))
        logit = fits.get(LinkKind.LOGIT)
        if link is LinkKind.LOGIT and intercept:
            start = _discriminant_start(Xt, sign)
        elif logit is not None and link in _LOGIT_FACTOR:
            # a converged row's coefficients are finite; a failed row's are
            # NaN, and it is not converged
            start = np.where(logit.converged[:, None],
                             _LOGIT_FACTOR[link] * logit.coefficients, 0.0)
        fits[link] = _newton(link, stack, start)
    return fits


def _separation_suspected(spec: ModelSpec, beta: np.ndarray, data: Dataset) -> bool:
    """Whether any |coefficient|, scaled by its model-matrix column's sd,
    exceeds ``SEPARATION_BOUND``; a column with sd 0, such as the
    intercept's, keeps its coefficient's own scale."""
    sds = _model_matrix(data.predictors, spec.intercept).std(axis=0)
    return bool(np.any(np.abs(beta) * np.where(sds > 0.0, sds, 1.0) > SEPARATION_BOUND))


def fit_mle(spec: ModelSpec, data: Dataset) -> FitResult:
    """Maximize the log-likelihood and return the stationary point.

    This is ``fit_stack`` on the single response row.  Convergence is
    declared when the Newton decrement g'd drops to ``SOLVER_TOL``.
    Identical inputs produce bit-identical coefficients.  A
    suspected-separation condition, or a fit that reaches
    ``MAX_ITERATIONS`` unconverged, is reported through
    ``FitResult.warnings`` rather than by aborting, so replication
    harnesses survive pathological resamples.

    Raises ``SeparationError`` when a model with any coefficient sees a
    single-valued response, ``NumericalError`` when the damped
    information matrix is not finite or is exactly singular, and
    ``DomainError`` when a probe's linear predictor is not finite.
    """
    return _fit_result(spec, fit_stack(spec, data.predictors, data.response[None]), data)


def _fit_result(spec: ModelSpec, fit: StackFit, data: Dataset) -> FitResult:
    """The ``FitResult`` of a one-row ``StackFit`` of ``data`` under
    ``spec``, with its warnings; raises the row's error if it failed."""
    if fit.errors[0] is not None:
        raise fit.errors[0]
    beta = fit.coefficients[0]
    ll = float(fit.loglik[0])
    iterations = int(fit.iterations[0])
    converged = bool(fit.converged[0])
    warnings = []
    if iterations >= MAX_ITERATIONS and not converged:
        warnings.append(WARN_MAX_ITERATIONS)
    if _separation_suspected(spec, beta, data):
        warnings.append(WARN_SEPARATION)
    aic, bic = _aic_bic(ll, beta.size, data.n)
    return FitResult(
        coefficients=beta,
        loglik=ll,
        aic=aic,
        bic=bic,
        iterations=iterations,
        converged=converged,
        warnings=tuple(warnings),
        n_obs=data.n,
    )


def _aic_bic(loglik: float, k: int, n: int) -> tuple[float, float]:
    """AIC = 2k - 2*loglik and BIC = k*log(n) - 2*loglik of a fit with k
    coefficients on n rows."""
    return 2.0 * k - 2.0 * loglik, k * math.log(n) - 2.0 * loglik


def information_criteria(fit: FitResult, n: int) -> dict[str, float]:
    """AIC = 2k - 2*loglik and BIC = k*log(n) - 2*loglik."""
    if n < 1:
        raise ArgumentError("information criteria need n >= 1 rows")
    if not fit.converged:
        raise ArgumentError("information criteria require a converged fit")
    aic, bic = _aic_bic(fit.loglik, fit.coefficients.size, n)
    return {"aic": aic, "bic": bic}
