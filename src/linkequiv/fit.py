"""Maximum-likelihood estimation of binary regression coefficients.

One solver fits a stack of S datasets at once: S response rows over a
shared (n, k) model matrix or over one matrix per row.  ``fit_stack`` is
its only entry; ``fit_mle`` is ``fit_stack`` on one row, packed into a
``FitResult``.  Rows never interact, so a row ends exactly where it
would alone.

The likelihood is exact: a likelihood pass evaluates each observation's
term log F(eta) or log(1 - F(eta)) in log space, with no clamp; for the
symmetric links that is log F(t) at t = (2y - 1)*eta, one transcendental
per element (see ``links``).  A derivative pass turns the per-element
arrays that a likelihood pass left into the score and the observed
information, with no second eta, F or log evaluation.

The method is Newton ascent on the observed information with step
halving: every accepted step does not decrease the log-likelihood, and
line-search probes are likelihood passes only.  The solver is one loop
over per-row states: each row carries its own point, log terms,
direction and line-search step, and every pass of the loop probes each
running row once at its own step, so no row waits for another's
halvings.  The solver keeps the per-element arrays of each row's
accepted point, so the row's next score and information come from the
probe that accepted it.  Where the Newton direction does not point
uphill (the cauchit information can be indefinite) the step falls back
to the gradient.  A row stops when its Newton decrement g'd, d being the
ridge-damped Newton direction, lies in [0, ``SOLVER_TOL``].  Near the
optimum the full step gains about half the decrement, and unlike the
score, the decrement does not change when a predictor is rescaled (Boyd
and Vandenberghe, Convex Optimization, 9.5).  That pass's full step is
the row's last, taken only if the log-likelihood does not fall.  A row
whose response takes a single value has no maximum and is refused before
the loop.  Iterates start from zero, which keeps runs reproducible bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, LinkEquivError, NumericalError, SeparationError
from .links import _LOG_TERMS, _WEIGHTS, LinkKind

__all__ = [
    "Dataset",
    "ModelSpec",
    "FitResult",
    "design_matrix",
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
    grad_norm: float
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


def _check_entries(predictors: np.ndarray, responses: np.ndarray) -> None:
    """Reject non-finite predictors and responses other than 0/1."""
    if not np.all(np.isfinite(predictors)):
        raise ArgumentError("predictor entries must be finite")
    if not np.all((responses == 0.0) | (responses == 1.0)):
        raise ArgumentError("response entries must be exactly 0 or 1")


def _model_matrix(predictors: np.ndarray, intercept: bool) -> np.ndarray:
    """Predictors of shape (..., n, p), with a leading column of ones
    when ``intercept`` is set."""
    if intercept:
        ones = np.ones(predictors.shape[:-1] + (1,))
        return np.concatenate([ones, predictors], axis=-1)
    return predictors


def design_matrix(spec: ModelSpec, data: Dataset) -> np.ndarray:
    """The model matrix, with a leading column of ones when an intercept
    is requested."""
    return _model_matrix(data.predictors, spec.intercept)


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


def _transposed(model_matrix: np.ndarray) -> np.ndarray:
    """The (..., k, n) layout the evaluator works in: its weighted sums
    then run along contiguous rows."""
    return np.ascontiguousarray(np.swapaxes(model_matrix, -1, -2))


def _likelihood(link: LinkKind, Xt: np.ndarray, sign: np.ndarray, beta: np.ndarray):
    """Log-likelihood of each row of a stack, and what its derivatives need.

    ``Xt`` is a transposed (k, n) model matrix shared by every row or an
    (S, k, n) stack of them, ``sign`` holds (S, n) response signs 2y - 1 and
    ``beta`` (S, k) coefficients.  Returns ``(ll, parts)``: ``ll`` of shape
    (S,), and ``parts`` the per-element arrays of the link's log terms,
    the first of them the terms themselves, which ``_derivatives`` turns
    into the score and information.  Every product is a batched matmul,
    so each row comes out exactly as it would on its own.
    """
    eta = (beta[:, None, :] @ Xt)[:, 0, :]
    if not np.isfinite(eta).all():
        raise DomainError("linear predictor must be finite")
    parts = _LOG_TERMS[link](eta, sign)
    return parts[0].sum(axis=-1), parts


def _derivatives(link: LinkKind, Xt: np.ndarray, sign: np.ndarray, parts) -> tuple:
    """Score (S, k) and observed information (S, k, k) of the rows whose
    ``_likelihood`` pass left ``parts``."""
    u, w = _WEIGHTS[link](sign, *parts)
    g = (Xt @ u[:, :, None])[:, :, 0]
    # where a row's products overflow, +inf and -inf sum to NaN; the
    # solver then drops that row as having non-finite information
    with np.errstate(invalid="ignore"):
        H = (Xt * w[:, None, :]) @ np.swapaxes(Xt, -1, -2)
    return g, H


def _one_row(spec: ModelSpec, beta, data: Dataset):
    """The transposed model matrix, response signs and coefficients of one
    dataset as a one-row stack."""
    b = _checked_beta(spec, beta, data)
    return _transposed(design_matrix(spec, data)), 2.0 * data.response[None] - 1.0, b[None]


def log_likelihood(spec: ModelSpec, beta, data: Dataset) -> float:
    """Bernoulli log-likelihood sum(y*log(pi) + (1-y)*log(1-pi)) with
    pi = F(eta), each term evaluated in log space without a clamp; it is
    -inf only where a term overflows the double range."""
    ll, _ = _likelihood(spec.link, *_one_row(spec, beta, data))
    return float(ll[0])


def _score_and_information(spec: ModelSpec, beta, data: Dataset):
    Xt, sign, b = _one_row(spec, beta, data)
    _, parts = _likelihood(spec.link, Xt, sign, b)
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


def _directions(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """Newton directions (H + ridge)^-1 g of a stack, and the reason each
    failed row fails, keyed by its position: its information is not
    finite, or its damped information is singular.  A failed row's
    direction is NaN."""
    k = g.shape[1]
    damped = H + RIDGE * np.eye(k)
    finite = np.isfinite(damped).all(axis=(1, 2))
    failures = {int(i): "observed information is not finite" for i in np.flatnonzero(~finite)}
    # solve the failed rows as identity systems, so that they cannot
    # disturb the batched solve of the others
    damped[~finite] = np.eye(k)
    rhs = np.where(finite[:, None], g, 0.0)[..., None]
    try:
        direction = np.linalg.solve(damped, rhs)[..., 0]
    except np.linalg.LinAlgError:
        direction = np.empty_like(g)
        for i in range(g.shape[0]):
            try:
                direction[i] = np.linalg.solve(damped[i:i + 1], rhs[i:i + 1])[0, :, 0]
            except np.linalg.LinAlgError:
                failures[i] = "information matrix is singular even after ridge damping"
    direction[list(failures)] = np.nan
    return direction, failures


def _newton(link: LinkKind, Xt: np.ndarray, Y: np.ndarray, max_iter: int) -> StackFit:
    """The solver behind ``fit_stack``, on validated input: ``Xt`` is the
    transposed model matrix, (k, n) or (S, k, n), and ``Y`` the (S, n)
    responses.

    A first likelihood pass evaluates every row at zero.  Each row then
    carries its own line-search step, 0 while it sits at a new point.
    Every pass of the loop first turns the log terms that the rows at
    step 0 left into their score, information and direction, and sets
    their step to 1; then it probes every running row at its own step in
    one likelihood pass.  An accepted probe that moves the row becomes
    its point, with its log-likelihood and log terms, so no point is
    evaluated twice; a rejected one halves the row's step.  A row stops
    after the probe of its decrement-rule pass, after an accepted probe
    that moves no coefficient, when its halvings run out or at
    ``max_iter`` iterations, and is not evaluated again.  A row that fails
    is recorded in ``errors``.  Rows never wait for each other, so the
    stack makes as many likelihood passes as its slowest row would alone.
    """
    sign = 2.0 * Y - 1.0
    S, k = Y.shape[0], Xt.shape[-2]

    def stack_of(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The model matrices and response signs of ``rows``; with every
        row, the stack's own arrays, uncopied."""
        if rows.size == S:
            return Xt, sign
        return (Xt if Xt.ndim == 2 else Xt[rows]), sign[rows]

    errors: list[LinkEquivError | None] = [None] * S
    if k:
        for i in np.flatnonzero(Y.all(axis=1) | ~Y.any(axis=1)):
            errors[i] = SeparationError("response takes a single value; coefficients diverge")
    running = np.array([e is None for e in errors])
    beta = np.zeros((S, k))
    direction = np.zeros((S, k))
    iterations = np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)
    step = np.zeros(S)
    ll = np.full(S, np.nan)
    rows = np.flatnonzero(running)
    ll[rows], first = _likelihood(link, *stack_of(rows), beta[rows])
    # the log terms of every row's current point
    parts = [np.zeros(sign.shape) for _ in first]
    for kept, new in zip(parts, first):
        kept[rows] = new
    running &= max_iter > 0
    while running.any():
        fresh = np.flatnonzero(running & (step == 0.0))
        if fresh.size:
            g, H = _derivatives(link, *stack_of(fresh), [kept[fresh] for kept in parts])
            newton, failures = _directions(H, g)
            for pos, reason in failures.items():
                errors[fresh[pos]] = NumericalError(reason)
                running[fresh[pos]] = False
            decrement = np.sum(g * newton, axis=1)
            # the cauchit information can be indefinite: where the Newton
            # direction does not point uphill, take the gradient instead
            uphill = np.isfinite(newton).all(axis=1) & (decrement > 0.0)
            direction[fresh] = np.where(uphill[:, None], newton, g)
            # the decrement rule: this pass's probe is the row's last
            converged[fresh] = (decrement >= 0.0) & (decrement <= SOLVER_TOL)
            step[fresh] = 1.0
        rows = np.flatnonzero(running)
        if not rows.size:
            break
        start = beta[rows]
        candidate = start + step[rows, None] * direction[rows]
        c_ll, c_parts = _likelihood(link, *stack_of(rows), candidate)
        # ties are accepted: near the optimum the true gain rounds below
        # the float resolution of the log-likelihood
        accepted = c_ll >= ll[rows]
        # an accepted step that moves no coefficient is a stall
        take = accepted & np.any(candidate != start, axis=1)
        taken = rows[take]
        beta[taken] = candidate[take]
        ll[taken] = c_ll[take]
        for kept, new in zip(parts, c_parts):
            kept[taken] = new[take]
        iterations[taken] += 1
        step[rows] = np.where(take, 0.0, 0.5 * step[rows])
        halved_out = step[rows] < 0.5 ** MAX_HALVINGS
        stop = converged[rows] | (~take & (accepted | halved_out)) | (iterations[rows] >= max_iter)
        running[rows[stop]] = False
    failed = np.array([e is not None for e in errors])
    beta[failed] = np.nan
    ll[failed] = np.nan
    return StackFit(
        coefficients=beta,
        loglik=ll,
        iterations=iterations,
        converged=converged,
        errors=tuple(errors),
    )


def fit_stack(
    spec: ModelSpec,
    predictors,
    responses,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> StackFit:
    """Fit S datasets in one batched solve.

    ``responses`` is an (S, n) array of 0/1 rows; ``predictors`` is an
    (n, p) matrix shared by every row or an (S, n, p) stack, one matrix
    per row.  Row i ends where ``fit_mle`` ends on dataset i, and has
    converged when its Newton decrement fell in [0, ``SOLVER_TOL``].  Each
    row line-searches at its own step, so the stack makes as many
    likelihood passes as its slowest row would alone.  A row whose fit
    fails (single-valued response in a model with any coefficient,
    information not finite or singular) gets NaN fields and its
    exception in ``StackFit.errors``; the other rows are unaffected.
    """
    Y = np.asarray(responses, dtype=float)
    P = np.asarray(predictors, dtype=float)
    if Y.ndim != 2 or Y.size == 0:
        raise ArgumentError("responses must be a non-empty (S, n) array")
    if P.ndim not in (2, 3) or P.shape[-2] != Y.shape[1] or (
        P.ndim == 3 and P.shape[0] != Y.shape[0]
    ):
        raise ArgumentError("predictors must be (n, p) or (S, n, p) to match (S, n) responses")
    _check_entries(P, Y)
    return _newton(spec.link, _transposed(_model_matrix(P, spec.intercept)), Y, max_iter)


def _separation_suspected(spec: ModelSpec, beta: np.ndarray, data: Dataset) -> bool:
    if beta.size == 0:
        return False
    scaled = np.abs(beta.copy())
    if data.p > 0:
        sds = data.predictors.std(axis=0)
        sds = np.where(sds > 0.0, sds, 1.0)
        if spec.intercept:
            scaled[1:] *= sds
        else:
            scaled *= sds
    return bool(np.any(scaled > SEPARATION_BOUND))


def fit_mle(
    spec: ModelSpec,
    data: Dataset,
    *,
    max_iter: int = MAX_ITERATIONS,
) -> FitResult:
    """Maximize the log-likelihood and return the stationary point.

    This is ``fit_stack`` on the single response row.  Convergence is
    declared when the Newton decrement g'd drops to ``SOLVER_TOL``;
    ``grad_norm``, the score infinity-norm at the returned coefficients,
    is a diagnostic only.
    Identical inputs produce bit-identical coefficients.  A
    suspected-separation or iteration-cap condition is reported through
    ``FitResult.warnings`` rather than by aborting, so replication
    harnesses survive pathological resamples.

    Raises ``SeparationError`` when a model with any coefficient sees a
    single-valued response, and ``NumericalError`` when the damped
    information matrix is not finite or cannot be solved.
    """
    stack = fit_stack(spec, data.predictors, data.response[None], max_iter=max_iter)
    if stack.errors[0] is not None:
        raise stack.errors[0]
    beta = stack.coefficients[0]
    ll = float(stack.loglik[0])
    iterations = int(stack.iterations[0])
    converged = bool(stack.converged[0])
    warnings = []
    if iterations >= max_iter and not converged:
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
        grad_norm=float(np.abs(score(spec, beta, data)).max(initial=0.0)),
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
