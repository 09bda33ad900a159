"""Maximum-likelihood estimation of binary regression coefficients.

One solver fits a stack of S datasets at once: S response rows over a
shared (n, k) model matrix or over one matrix per row.  ``fit_stack`` is
its only entry; ``fit_mle`` is ``fit_stack`` on one row, packed into a
``FitResult``.  Rows never interact, so a row ends exactly where it
would alone.  Every likelihood evaluation is a single eta -> (F, f, f')
pass, made of one ``cdf`` call and one call that returns f and f'
together, and it yields the log-likelihood, the score and the observed
information of each row.

The method is Newton ascent on the observed information with step
halving; every accepted step does not decrease the log-likelihood.
Whenever the Newton direction fails to point uphill (the cauchit
likelihood is not concave, so its observed information can be
indefinite) the iteration falls back to plain gradient ascent with the
same backtracking rule.  Iterates always start from zero, which keeps
runs reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, LinkEquivError, NumericalError, SeparationError
from .links import _DENSITIES, CLAMP_EPS, LinkKind, cdf

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

SOLVER_TOL = 1e-8
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
        idx = np.asarray(indices, dtype=int)
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
    (S, k), log-likelihood, iterations, convergence verdict and score
    infinity-norm (S,).  ``errors[i]`` holds the exception that stopped
    row i, whose numeric fields are then NaN, or None."""

    coefficients: np.ndarray
    loglik: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    grad_norm: np.ndarray
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


def _evaluate(link: LinkKind, X: np.ndarray, Y: np.ndarray, beta: np.ndarray,
              derivatives: bool = True):
    """Log-likelihood of each row of a stack and, with ``derivatives``, its
    score and observed information, all from one eta -> (F, f, f') pass.

    ``X`` is an (n, k) model matrix shared by every row or an (S, n, k)
    stack of them, ``Y`` holds (S, n) boolean responses and ``beta`` (S, k)
    coefficients.  Returns ``(ll, g, H)`` of shapes (S,), (S, k) and
    (S, k, k); ``g`` and ``H`` are None without ``derivatives``.  Every
    product is a batched matmul, so each row comes out exactly as it
    would on its own.
    """
    eta = (X @ beta[..., None])[..., 0]
    pi = cdf(link, eta)
    # y*log(pi) + (1-y)*log(1-pi), term by term
    ll = np.where(Y, np.log(pi), np.log1p(-pi)).sum(axis=-1)
    if not derivatives:
        return ll, None, None
    # cdf has already checked that eta is finite
    f, fp = _DENSITIES[link](eta)
    q = pi * (1.0 - pi)
    resid = Y - pi
    # where the CDF clamp pins pi, the likelihood is locally flat in eta,
    # so those observations contribute nothing to the gradient or the
    # curvature (chain rule through the clamp)
    interior = (pi > CLAMP_EPS) & (pi < 1.0 - CLAMP_EPS)
    u = np.where(interior, resid * f / q, 0.0)
    w = f * f / q - resid * (fp * q - f * f * (1.0 - 2.0 * pi)) / (q * q)
    w = np.where(interior, w, 0.0)
    g = (u[..., None, :] @ X)[..., 0, :]
    H = np.swapaxes(X, -1, -2) @ (w[..., None] * X)
    return ll, g, H


def _evaluate_one(spec: ModelSpec, beta, data: Dataset, derivatives: bool):
    b = _checked_beta(spec, beta, data)
    return _evaluate(spec.link, design_matrix(spec, data), data.response[None] == 1.0,
                     b[None], derivatives)


def log_likelihood(spec: ModelSpec, beta, data: Dataset) -> float:
    """Bernoulli log-likelihood sum(y*log(pi) + (1-y)*log(1-pi)) with
    pi = F(eta); finite for any finite beta thanks to the CDF clamp."""
    ll, _, _ = _evaluate_one(spec, beta, data, derivatives=False)
    return float(ll[0])


def score(spec: ModelSpec, beta, data: Dataset) -> np.ndarray:
    """Gradient of the log-likelihood,
    sum_i (y_i - pi_i) * f(eta_i) / (pi_i * (1 - pi_i)) * xtilde_i,
    with clamped observations contributing zero."""
    _, g, _ = _evaluate_one(spec, beta, data, derivatives=True)
    return g[0]


def observed_information(spec: ModelSpec, beta, data: Dataset) -> np.ndarray:
    """Negative Hessian of the log-likelihood at ``beta``."""
    _, _, H = _evaluate_one(spec, beta, data, derivatives=True)
    return H[0]


def _directions(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton directions (H + ridge)^-1 g of a stack, and the mask of rows
    whose damped information is singular (their direction is NaN)."""
    damped = H + RIDGE * np.eye(g.shape[1])
    singular = np.zeros(g.shape[0], dtype=bool)
    try:
        return np.linalg.solve(damped, g[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        pass
    direction = np.full_like(g, np.nan)
    for i in range(g.shape[0]):
        try:
            direction[i] = np.linalg.solve(damped[i:i + 1], g[i:i + 1, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return direction, singular


def _newton(link: LinkKind, X: np.ndarray, Y: np.ndarray, has_predictors: bool,
            max_iter: int) -> StackFit:
    """The solver behind ``fit_stack``, on validated input.

    Each pass steps every unconverged row together: one evaluation at
    the full Newton step, then halvings for the rows whose
    log-likelihood fell, until each row is accepted or gives up.  A row
    that fails is recorded in ``errors`` and leaves the stack; the
    others go on exactly as they would alone.
    """
    Y = Y == 1.0
    S = Y.shape[0]
    k = X.shape[-1]
    shared = X.ndim == 2
    errors: list[LinkEquivError | None] = [None] * S
    if has_predictors:
        for i in np.flatnonzero(Y.all(axis=1) | ~Y.any(axis=1)):
            errors[i] = SeparationError(
                "response takes a single value; coefficients of a model with "
                "predictors diverge"
            )
    idx = np.array([i for i in range(S) if errors[i] is None], dtype=int)
    beta = np.zeros((S, k))
    ll = np.full(S, np.nan)
    g = np.zeros((S, k))
    H = np.zeros((S, k, k))
    iterations = np.zeros(S, dtype=int)

    def evaluate(rows, b, derivatives):
        return _evaluate(link, X if shared else X[rows], Y[rows], b, derivatives)

    if idx.size:
        ll[idx], g[idx], H[idx] = evaluate(idx, beta[idx], True)
    for _ in range(max_iter):
        idx = idx[np.abs(g[idx]).max(axis=1, initial=0.0) > SOLVER_TOL]
        if not idx.size:
            break
        Hi = H[idx]
        bad = ~np.isfinite(Hi).all(axis=(1, 2))
        if bad.any():
            for i in idx[bad]:
                errors[i] = NumericalError("observed information is not finite")
            idx, Hi = idx[~bad], Hi[~bad]
        gi = g[idx]
        direction, singular = _directions(Hi, gi)
        if singular.any():
            for i in idx[singular]:
                errors[i] = NumericalError(
                    "information matrix is singular even after ridge damping"
                )
            idx, gi, direction = idx[~singular], gi[~singular], direction[~singular]
        if not idx.size:
            break
        # the cauchit information can be indefinite: where the Newton
        # direction does not point uphill, take the gradient instead
        uphill = np.isfinite(direction).all(axis=1) & (np.sum(gi * direction, axis=1) > 0.0)
        if not uphill.all():
            direction[~uphill] = gi[~uphill]
        # ties are accepted: near the optimum the true gain rounds below
        # the float resolution of the log-likelihood, yet the full Newton
        # step still shrinks the gradient quadratically
        rows, start, start_ll = idx, beta[idx], ll[idx]
        Xp, Yp = (X if shared else X[idx]), Y[idx]
        moved = np.zeros(S, dtype=bool)
        stale = np.zeros(S, dtype=bool)
        step = 1.0
        for halving in range(MAX_HALVINGS + 1):
            candidate = start + step * direction
            c_ll, c_g, c_H = _evaluate(link, Xp, Yp, candidate, halving == 0)
            accepted = c_ll >= start_ll
            if not accepted.any():
                step *= 0.5
                continue
            # an accepted step that moves no coefficient is a stall
            take = accepted & np.any(candidate != start, axis=1)
            hit = rows[take]
            beta[hit] = candidate[take]
            ll[hit] = c_ll[take]
            moved[hit] = True
            if halving == 0:
                g[hit] = c_g[take]
                H[hit] = c_H[take]
            else:
                stale[hit] = True  # probed without derivatives
            if accepted.all():
                break
            keep = ~accepted
            rows, start, start_ll, direction = (
                rows[keep], start[keep], start_ll[keep], direction[keep])
            Yp = Yp[keep]
            if not shared:
                Xp = Xp[keep]
            step *= 0.5
        idx = np.flatnonzero(moved)
        iterations[idx] += 1
        if stale.any():
            stale = np.flatnonzero(stale)
            _, g[stale], H[stale] = evaluate(stale, beta[stale], True)
    grad_norm = np.abs(g).max(axis=1, initial=0.0)
    failed = np.array([e is not None for e in errors])
    beta[failed] = np.nan
    ll[failed] = np.nan
    grad_norm[failed] = np.nan
    return StackFit(
        coefficients=beta,
        loglik=ll,
        iterations=iterations,
        converged=grad_norm <= SOLVER_TOL,
        grad_norm=grad_norm,
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
    converged when its score infinity-norm is at most ``SOLVER_TOL``.  A
    row whose fit fails (single-valued response with predictors,
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
    return _newton(spec.link, _model_matrix(P, spec.intercept), Y, P.shape[-1] > 0, max_iter)


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
    declared when the score infinity-norm drops to ``SOLVER_TOL``.
    Identical inputs produce bit-identical coefficients.  A
    suspected-separation or iteration-cap condition is reported through
    ``FitResult.warnings`` rather than by aborting, so replication
    harnesses survive pathological resamples.

    Raises ``SeparationError`` when a model with predictors sees a
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
        grad_norm=float(stack.grad_norm[0]),
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
