"""Maximum-likelihood estimation of binary regression coefficients.

One solver fits a stack of S datasets at once: S response rows over a
shared (n, k) model matrix or over one matrix per row.  ``fit_stack`` is
its only entry; ``fit_mle`` is ``fit_stack`` on one row, packed into a
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
point, log terms, direction and line-search step, every pass of the loop
probes each running row once at its own step, so no row waits for
another's halvings, and a row that stops writes its outcome out and
leaves the state, so it is not evaluated again.  The solver keeps the
per-element arrays of each row's accepted point, so the row's next score
and information come from the probe that accepted it.  Where the Newton
direction does not point uphill (the cauchit information can be
indefinite) the step falls back to the gradient.  A row stops when its
Newton decrement g'd, d being the ridge-damped Newton direction, lies in
[0, ``SOLVER_TOL``].  Near the optimum the full step gains about half
the decrement, and unlike the score, the decrement does not change when
a predictor is rescaled (Boyd and Vandenberghe, Convex Optimization,
9.5).  That pass's full step is the row's last, taken only if the
log-likelihood does not fall.  A row also stops at the constant
``MAX_ITERATIONS`` iterations.  One batched solve gives the directions
of every row in a pass; a row whose information is not finite or exactly
singular fails alone.  A row whose response takes a single value has no
maximum and is refused before the loop.  Iterates start from zero or
from the caller's ``start``, so a run is reproducible bit for bit.
``_fit_links`` fits logit first and starts each probit or cauchit row
from its factor (``links._LOGIT_FACTOR``) times that row's logit fit,
where that fit converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DomainError, LinkEquivError, NumericalError, SeparationError
from .links import _LOG_TERMS, _LOGIT_FACTOR, _WEIGHTS, LinkKind

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
    Xt = _transposed(_model_matrix(data.predictors, spec.intercept))
    return Xt, 2.0 * data.response[None] - 1.0, b[None]


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
    finite, or its damped information is exactly singular.  A failed
    row's direction is NaN.  When every row is finite, one batched solve
    serves the stack; only when a row is not finite or that solve meets
    a zero pivot are the failed rows found and solved as identity
    systems.  Either way each row is factored alone, so a row's direction
    does not depend on the others."""
    k = g.shape[1]
    damped = H + RIDGE * np.eye(k)
    finite = np.isfinite(damped).all(axis=(1, 2))
    if finite.all():
        try:
            return np.linalg.solve(damped, g[..., None])[..., 0], {}
        except np.linalg.LinAlgError:
            pass
    # failed rows are solved as identity systems, so that they cannot
    # disturb the batched solve of the others
    damped[~finite] = np.eye(k)
    # a zero sign marks a zero LU pivot, on which solve would raise
    singular = np.linalg.slogdet(damped)[0] == 0.0
    damped[singular] = np.eye(k)
    failures = {int(i): "observed information is not finite" for i in np.flatnonzero(~finite)}
    for i in np.flatnonzero(singular):
        failures[int(i)] = "information matrix is singular even after ridge damping"
    failed = ~finite | singular
    direction = np.linalg.solve(damped, np.where(failed[:, None], 0.0, g)[..., None])[..., 0]
    direction[failed] = np.nan
    return direction, failures


def _newton(link: LinkKind, Xt: np.ndarray, Y: np.ndarray, beta: np.ndarray) -> StackFit:
    """The solver behind ``fit_stack``, on validated input: ``Xt`` is the
    transposed model matrix, (k, n) or (S, k, n), ``Y`` the (S, n)
    responses and ``beta`` the (S, k) starting points.

    The solver's state covers the running rows only: ``live`` maps each
    position of its arrays to a stack row, and a per-row ``Xt`` and the
    response signs are cut down with it.  A first likelihood pass
    evaluates every row at its start.  Each row then carries its own
    line-search step, 0 while it sits at a new point.  Every pass of the
    loop turns the log terms of every live row into its score,
    information and direction, keeps the direction and the decrement
    verdict of the rows at step 0 and sets their step to 1; then it
    probes every live row at its own step in one likelihood pass.  The
    probe's arrays become the state, and the rows that did not take
    their probe copy their old point, log-likelihood and log terms back,
    so no point is evaluated twice; such a row halves its step.  A row
    stops after the probe of its decrement-rule pass, after an accepted
    probe that moves no coefficient, when its halvings run out or at
    ``MAX_ITERATIONS`` iterations: it writes its outcome into the stack
    and leaves the state, and is not evaluated again.  A row that
    ``_directions`` fails is recorded in ``errors`` and gets a zero
    direction, so its probe stalls and it leaves the same way.  Rows
    never wait for each other, so the stack makes as many likelihood
    passes as its slowest row would alone.
    """
    S, k = Y.shape[0], Xt.shape[-2]
    errors: list[LinkEquivError | None] = [None] * S
    single = (Y.all(axis=1) | ~Y.any(axis=1)) & (k > 0)
    for i in np.flatnonzero(single):
        errors[i] = SeparationError("response takes a single value; coefficients diverge")
    coefficients = np.full((S, k), np.nan)
    loglik = np.full(S, np.nan)
    iterations = np.zeros(S, dtype=int)
    converged = np.zeros(S, dtype=bool)
    # the running rows' state: position i holds stack row live[i]
    live = np.flatnonzero(~single)
    X = Xt if Xt.ndim == 2 else Xt[live]
    s = 2.0 * Y[live] - 1.0
    b = beta[live]
    l, parts = _likelihood(link, X, s, b)
    step = np.zeros(live.size)
    direction = np.zeros((live.size, k))
    verdict = np.zeros(live.size, dtype=bool)
    taken = np.zeros(live.size, dtype=int)
    while live.size:
        g, H = _derivatives(link, X, s, parts)
        newton, failures = _directions(H, g)
        for pos, reason in failures.items():
            errors[live[pos]] = NumericalError(reason)
        decrement = np.sum(g * newton, axis=1)
        # the cauchit information can be indefinite: where the Newton
        # direction does not point uphill, take the gradient instead
        uphill = np.isfinite(newton).all(axis=1) & (decrement > 0.0)
        turn = np.where(uphill[:, None], newton, g)
        turn[list(failures)] = 0.0
        fresh = step == 0.0
        direction = np.where(fresh[:, None], turn, direction)
        # the decrement rule: this pass's probe is the row's last
        verdict = np.where(fresh, (decrement >= 0.0) & (decrement <= SOLVER_TOL), verdict)
        step[fresh] = 1.0
        candidate = b + step[:, None] * direction
        c_l, c_parts = _likelihood(link, X, s, candidate)
        # ties are accepted: near the optimum the true gain rounds below
        # the float resolution of the log-likelihood
        accepted = c_l >= l
        # an accepted step that moves no coefficient is a stall
        stay = ~(accepted & np.any(candidate != b, axis=1))
        candidate[stay], c_l[stay] = b[stay], l[stay]
        for new, old in zip(c_parts, parts):
            new[stay] = old[stay]
        b, l, parts = candidate, c_l, c_parts
        taken += ~stay
        step = np.where(stay, 0.5 * step, 0.0)
        stop = (verdict | (stay & (accepted | (step < 0.5 ** MAX_HALVINGS)))
                | (taken >= MAX_ITERATIONS))
        if stop.any():
            rows = live[stop]
            coefficients[rows], loglik[rows] = b[stop], l[stop]
            iterations[rows], converged[rows] = taken[stop], verdict[stop]
            keep = ~stop
            live, s, b, l, step, direction, verdict, taken = (
                state[keep] for state in (live, s, b, l, step, direction, verdict, taken))
            parts = [part[keep] for part in parts]
            X = X if X.ndim == 2 else X[keep]
    failed = np.array([e is not None for e in errors])
    coefficients[failed], loglik[failed] = np.nan, np.nan
    return StackFit(
        coefficients=coefficients,
        loglik=loglik,
        iterations=iterations,
        converged=converged,
        errors=tuple(errors),
    )


def fit_stack(spec: ModelSpec, predictors, responses, start=None) -> StackFit:
    """Fit S datasets in one batched solve.

    ``responses`` is an (S, n) array of 0/1 rows; ``predictors`` is an
    (n, p) matrix shared by every row or an (S, n, p) stack, one matrix
    per row.  ``start`` is a finite (k,) point shared by every row or an
    (S, k) stack of them; without it every row starts at zero.  Row i
    ends where a one-row ``fit_stack`` from start i ends on dataset i
    (``fit_mle`` when that start is zero), and has
    converged when its Newton decrement fell in [0, ``SOLVER_TOL``]; a
    row stops unconverged at ``MAX_ITERATIONS`` iterations at the latest.
    Each row line-searches at its own step, so the stack makes as many
    likelihood passes as its slowest row would alone.  A row whose fit
    fails (single-valued response in a model with any coefficient,
    information not finite or exactly singular) gets NaN fields and its
    exception in ``StackFit.errors``; the other rows are unaffected.
    """
    Xt, Y = _stack_input(spec.intercept, predictors, responses)
    S, k = Y.shape[0], Xt.shape[-2]
    beta = np.zeros(k) if start is None else np.asarray(start, dtype=float)
    if beta.shape not in ((k,), (S, k)):
        raise ArgumentError(f"start must have shape ({k},) or ({S}, {k})")
    if not np.isfinite(beta).all():
        raise ArgumentError("start entries must be finite")
    return _newton(spec.link, Xt, Y, np.broadcast_to(beta, (S, k)))


def _stack_input(intercept: bool, predictors, responses) -> tuple[np.ndarray, np.ndarray]:
    """The transposed model matrix and the (S, n) responses of a stack,
    once ``fit_stack``'s checks pass."""
    Y = np.asarray(responses, dtype=float)
    P = np.asarray(predictors, dtype=float)
    if Y.ndim != 2 or Y.size == 0:
        raise ArgumentError("responses must be a non-empty (S, n) array")
    if P.ndim not in (2, 3) or P.shape[-2] != Y.shape[1] or (
        P.ndim == 3 and P.shape[0] != Y.shape[0]
    ):
        raise ArgumentError("predictors must be (n, p) or (S, n, p) to match (S, n) responses")
    _check_entries(P, Y)
    return _transposed(_model_matrix(P, intercept)), Y


def _fit_links(links, intercept: bool, predictors, responses) -> dict[LinkKind, StackFit]:
    """``fit_stack`` of the same stack under each link, logit first, with
    the stack checked and laid out once.  A probit or cauchit row starts at
    its link's factor times that row's logit coefficients where the logit
    fit converged, and at zero where it did not or logit is not among
    ``links``; every other row starts at zero.  A start depends only on
    its own row, so blocking does not change any fit."""
    Xt, Y = _stack_input(intercept, predictors, responses)
    fits: dict[LinkKind, StackFit] = {}
    for link in sorted(links, key=lambda link: link is not LinkKind.LOGIT):
        start = np.zeros((Y.shape[0], Xt.shape[-2]))
        logit = fits.get(LinkKind.LOGIT)
        if logit is not None and link in _LOGIT_FACTOR:
            # a converged row's coefficients are finite; a failed row's are
            # NaN, and it is not converged
            start = np.where(logit.converged[:, None],
                             _LOGIT_FACTOR[link] * logit.coefficients, 0.0)
        fits[link] = _newton(link, Xt, Y, start)
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
    single-valued response, and ``NumericalError`` when the damped
    information matrix is not finite or is exactly singular.
    """
    stack = fit_stack(spec, data.predictors, data.response[None])
    if stack.errors[0] is not None:
        raise stack.errors[0]
    beta = stack.coefficients[0]
    ll = float(stack.loglik[0])
    iterations = int(stack.iterations[0])
    converged = bool(stack.converged[0])
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
