"""Likelihood, score and Newton-solver behaviour for all four links."""

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import linprog

from linkequiv import (
    ArgumentError,
    Dataset,
    DomainError,
    Equispaced,
    FitResult,
    Gaussian,
    GenConfig,
    LinkEquivError,
    LinkKind,
    ModelSpec,
    NumericalError,
    SeparationError,
    SplitPlan,
    cdf,
    fit_mle,
    fit_stack,
    generate_dataset,
    information_criteria,
    log_likelihood,
    observed_information,
    quantile,
    score,
    split,
    structural_sim,
    substream,
)
from linkequiv import fit as fit_module
from linkequiv.fit import WARN_SEPARATION

ALL_LINKS = list(LinkKind)


def random_problem(stream, link, n=60, p=2, scale=0.6, intercept=True):
    """A benign random dataset and coefficient vector for one link."""
    X = stream.normal(size=(n, p))
    k = p + 1 if intercept else p
    beta = stream.normal(scale=scale, size=k)
    spec = ModelSpec(link, intercept=intercept)
    eta = X @ beta[1:] + beta[0] if intercept else X @ beta
    y = (stream.random(n) < cdf(link, eta)).astype(float)
    if y.min() == y.max():  # rare; flip one label to keep both classes
        y[0] = 1.0 - y[0]
    return spec, beta, Dataset(X, y)


def fd_score(spec, beta, data, h=1e-6):
    g = np.empty(len(beta))
    for j in range(len(beta)):
        up = np.array(beta, dtype=float)
        dn = np.array(beta, dtype=float)
        up[j] += h
        dn[j] -= h
        g[j] = (log_likelihood(spec, up, data) - log_likelihood(spec, dn, data)) / (2 * h)
    return g


def solver_start(spec, data):
    """The point from which the solver starts a fit of ``data``: the
    linear-discriminant estimate in a logit model with an intercept, and
    zero otherwise."""
    if spec.link is LinkKind.LOGIT and spec.intercept:
        stack = fit_module._stack_input(True, data.predictors, data.response[None])
        return fit_module._discriminant_start(*stack[1:])[0]
    return np.zeros(spec.coefficient_count(data.p))


def newton(spec, P, Y, start):
    """``fit._newton`` on a stack from the (S, k) points ``start``."""
    stack = fit_module._stack_input(spec.intercept, P, Y)
    return fit_module._newton(spec.link, stack, np.asarray(start, dtype=float))


def cold_fit(spec, P, Y):
    """A stack's fit with every row started at zero."""
    return newton(spec, P, Y, np.zeros((Y.shape[0], spec.coefficient_count(P.shape[-1]))))


def loglik_trace(spec, data):
    """The full fit and its log-likelihood at its start and after each
    step.  Iterates are deterministic, so the fit capped at m steps stops
    exactly at the full fit's m-th iterate."""
    full = fit_mle(spec, data)
    trace = [log_likelihood(spec, solver_start(spec, data), data)]
    with pytest.MonkeyPatch.context() as patch:
        for m in range(1, full.iterations + 1):
            patch.setattr(fit_module, "MAX_ITERATIONS", m)
            capped = fit_mle(spec, data)
            assert capped.iterations == m
            trace.append(capped.loglik)
    return full, trace


class TestDataset:
    def test_rejects_bad_response(self):
        with pytest.raises(ArgumentError):
            Dataset(np.ones((3, 1)), [0.0, 0.5, 1.0])

    def test_rejects_non_finite_predictors(self):
        with pytest.raises(ArgumentError):
            Dataset(np.array([[1.0], [np.inf], [0.0]]), [0, 1, 0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ArgumentError):
            Dataset(np.ones((3, 1)), [0, 1])
        with pytest.raises(ArgumentError, match="one name per predictor"):
            Dataset(np.ones((2, 2)), [0, 1], ("a",))
        # and predictors of the wrong shape
        with pytest.raises(ArgumentError, match="vector or a 2-d matrix"):
            Dataset(np.ones((2, 1, 1)), [0, 1])
        with pytest.raises(ArgumentError, match="at least one row"):
            Dataset(np.ones((0, 1)), [])

    def test_default_names(self):
        data = Dataset(np.ones((2, 3)), [0, 1])
        assert data.names == ("x1", "x2", "x3")
        # a 1-d predictor vector is one column
        data = Dataset(np.array([0.5, 2.0]), [0, 1])
        assert data.names == ("x1",)
        np.testing.assert_array_equal(data.predictors, [[0.5], [2.0]])

    def test_intercept_only_has_no_columns(self):
        data = Dataset.intercept_only([0, 1, 1])
        assert data.p == 0 and data.n == 3

    def test_subset_keeps_names(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("a", "b"))
        sub = data.subset([0, 2])
        assert sub.n == 2 and sub.names == ("a", "b")
        np.testing.assert_array_equal(sub.response, [0.0, 0.0])

    def test_subset_takes_a_row_mask_or_integer_indices(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])
        masked = data.subset([True, False, True, False])
        np.testing.assert_array_equal(masked.predictors, [[0.0, 1.0], [4.0, 5.0]])
        np.testing.assert_array_equal(data.subset(np.array([3, 0])).response, [1.0, 0.0])
        for bad in ([0.7, 2.2], [True, False], [[0, 1]], [4], ["a"]):
            with pytest.raises(ArgumentError):
                data.subset(bad)


class TestLogLikelihood:
    def test_intercept_only_at_zero(self):
        data = Dataset.intercept_only([1.0, 0.0])
        spec = ModelSpec(LinkKind.LOGIT, intercept=True)
        assert log_likelihood(spec, [0.0], data) == pytest.approx(
            2.0 * math.log(0.5), abs=1e-12
        )

    def test_no_intercept_at_zero_is_n_log_half(self):
        x = np.array([0.3, -1.2, 2.0, 0.7, -0.5])
        data = Dataset.univariate(x, [1, 0, 1, 1, 0])
        spec = ModelSpec(LinkKind.LOGIT, intercept=False)
        assert log_likelihood(spec, [0.0], data) == pytest.approx(
            -5.0 * math.log(2.0), abs=1e-12
        )

    def test_probit_single_point(self):
        # independent quadrature oracle for Phi(1)
        xs = np.linspace(-13.0, 1.0, 28001)
        ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
        h = (1.0 + 13.0) / 28000
        phi1 = h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        data = Dataset.univariate([1.0], [1.0])
        spec = ModelSpec(LinkKind.PROBIT, intercept=False)
        assert log_likelihood(spec, [1.0], data) == pytest.approx(
            math.log(phi1), abs=1e-10
        )
        assert log_likelihood(spec, [1.0], data) == pytest.approx(-0.1727538, abs=1e-6)

    @pytest.mark.parametrize("function", [log_likelihood, score, observed_information])
    def test_overflowing_eta_raises(self, function):
        data = Dataset.univariate([1.0, 2.0, -1.0], [1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                function(ModelSpec(LinkKind.LOGIT, intercept=False), [1e308], data)

    def test_rejects_wrong_length(self):
        data = Dataset.univariate([1.0, 2.0], [1, 0])
        with pytest.raises(ArgumentError):
            log_likelihood(ModelSpec(LinkKind.LOGIT, intercept=False), [1.0, 2.0], data)
        # and coefficients that are not finite
        with pytest.raises(ArgumentError, match="coefficients must be finite"):
            log_likelihood(ModelSpec(LinkKind.LOGIT, intercept=False), [np.nan], data)


class TestScore:
    def test_logit_reduces_to_residual_form(self):
        # with the logit link the weight collapses and the score at zero
        # is sum((y - 1/2) x) = 1 here
        data = Dataset.univariate([1.0, -1.0], [1.0, 0.0])
        g = score(ModelSpec(LinkKind.LOGIT, intercept=False), [0.0], data)
        assert g[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_finite_differences(self):
        # probabilities within 1e-9 of the endpoints are excluded: the
        # float spacing of the stored value then exceeds the per-step
        # change and differencing measures quantization, not slope
        for i, link in enumerate(ALL_LINKS):
            checked = 0
            trial = 0
            while checked < 6 and trial < 60:
                stream = substream(202, i, trial)
                trial += 1
                spec, beta, data = random_problem(stream, link, n=40)
                b = stream.normal(scale=0.4, size=len(beta))
                pi = cdf(link, b[0] + data.predictors @ b[1:])
                if np.min(np.minimum(pi, 1.0 - pi)) < 1e-9:
                    continue
                checked += 1
                analytic = score(spec, b, data)
                approx = fd_score(spec, b, data)
                denom = max(1.0, float(np.max(np.abs(analytic))))
                assert np.max(np.abs(analytic - approx)) / denom <= 1e-6
            assert checked == 6

    def test_zero_at_fitted_maximum(self):
        for i, link in enumerate(ALL_LINKS):
            stream = substream(17, i)
            spec, _, data = random_problem(stream, link, n=120)
            result = fit_mle(spec, data)
            assert np.max(np.abs(score(spec, result.coefficients, data))) <= 1e-6

    @pytest.mark.parametrize("beta", [1e10, -1e10, 1e155, -1e155, 1e300, -1e300])
    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_extreme_coefficients_do_not_warn(self, link, beta):
        """Far in the tails the weights are formed from intermediates that
        overflow and are then replaced; the finite score and information
        come out with no warning and with the same bits as when warnings
        are ignored."""
        spec = ModelSpec(link, intercept=False)
        data = Dataset.univariate([1.0, -1.0, 1.0], [1.0, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = score(spec, [beta], data), observed_information(spec, [beta], data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = score(spec, [beta], data), observed_information(spec, [beta], data)
        for value, expected in zip(got, want):
            assert np.isfinite(value).all()
            np.testing.assert_array_equal(value, expected)


class TestFitMle:
    def test_intercept_only_matches_link_quantile(self):
        y = np.array([1, 1, 0, 1, 0, 0, 1, 1, 1, 0], dtype=float)
        data = Dataset.intercept_only(y)
        for link in ALL_LINKS:
            result = fit_mle(ModelSpec(link, intercept=True), data)
            assert result.converged
            assert result.coefficients[0] == pytest.approx(
                quantile(link, y.mean()), abs=1e-8
            )

    def test_matches_grid_search_oracle(self):
        x = np.array([0.8, -1.1, 0.4, 1.9, -0.6])
        y = np.array([1.0, 0.0, 0.0, 1.0, 0.0])
        data = Dataset.univariate(x, y)
        spec = ModelSpec(LinkKind.LOGIT, intercept=False)
        grid = np.linspace(-20.0, 20.0, 400001)
        eta = grid[:, None] * x[None, :]
        pi = cdf(LinkKind.LOGIT, eta)
        ll = (y * np.log(pi) + (1 - y) * np.log1p(-pi)).sum(axis=1)
        oracle = grid[np.argmax(ll)]
        fitted = fit_mle(spec, data).coefficients[0]
        assert abs(fitted - oracle) <= 1e-3

    def test_deterministic(self):
        stream = substream(55)
        spec, _, data = random_problem(stream, LinkKind.CAUCHIT, n=90)
        a = fit_mle(spec, data).coefficients
        b = fit_mle(spec, data).coefficients
        np.testing.assert_array_equal(a, b)

    def test_loglik_trace_never_decreases(self):
        for i, link in enumerate(ALL_LINKS):
            stream = substream(90, i)
            spec, _, data = random_problem(stream, link, n=80)
            _, trace = loglik_trace(spec, data)
            assert len(trace) >= 1
            assert np.all(np.diff(trace) >= 0.0)

    def test_scale_equivariance(self):
        """Scaling the first predictor by c keeps the convergence verdict
        and divides that predictor's coefficient by c, to 1e-7 relative
        (at most 3.0e-8 over these 108 cases).  Iteration counts are not
        compared: borderline accept and stop decisions flip at rounding
        level, and 22 of the 108 counts differ."""
        for i, link in enumerate(ALL_LINKS):
            for draw in range(3):
                spec, _, data = random_problem(substream(123, i, draw), link, n=150)
                base = fit_mle(spec, data)
                for c in (1e-4, 1e-3, 1e-2, 0.1, 3.7, 10.0, 1e2, 1e3, 1e4):
                    scaled = Dataset(
                        data.predictors * np.array([c, 1.0]), data.response, data.names
                    )
                    other = fit_mle(spec, scaled)
                    assert other.converged == base.converged
                    np.testing.assert_allclose(other.coefficients * np.array([1.0, c, 1.0]),
                                               base.coefficients, rtol=1e-7, atol=0.0)

    def test_single_class_response_raises(self):
        data = Dataset.univariate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)

    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_single_class_intercept_only_raises(self, link):
        """The intercept diverges; no fit may call it converged."""
        for label in (0.0, 1.0):
            with pytest.raises(SeparationError, match="single value"):
                fit_mle(ModelSpec(link), Dataset.intercept_only([label] * 10))

    def test_model_without_coefficients(self):
        """No intercept and no predictor: the likelihood is that of
        eta = 0, with nothing to solve and nothing to warn about."""
        data = Dataset.intercept_only([1, 0, 1, 1, 0])
        result = fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)
        assert result.coefficients.shape == (0,)
        assert result.loglik == 5 * math.log(0.5)
        assert result.converged
        assert result.iterations == 0
        assert result.warnings == ()

    def test_separable_data_warns_instead_of_aborting(self):
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        y = (x > 0).astype(float)
        data = Dataset.univariate(x, y)
        result = fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)
        assert WARN_SEPARATION in result.warnings
        assert np.isfinite(result.loglik)

    @pytest.mark.xfail(strict=True, raises=SeparationError,
                       reason="ROADMAP item 1b: exact separation check")
    def test_one_class_response_with_mixed_sign_x_has_a_finite_mle(self):
        """With no intercept, a one-class response and x of both signs, the
        likelihood falls towards 0 as |b| grows either way, so the MLE is
        finite: a bounded scalar search puts logit's at b = 0.771132, with
        loglik -2.617312.  The solver refuses such a sample at entry."""
        data = Dataset.univariate([-1.0, 2.0, 3.0, -0.5, 1.5], [1.0] * 5)
        result = fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)
        assert result.converged
        assert result.coefficients[0] == pytest.approx(0.771132, abs=1e-5)
        assert result.loglik == pytest.approx(-2.617312, abs=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1b: exact separation check")
    @pytest.mark.parametrize("link", [LinkKind.PROBIT, LinkKind.COMPIT])
    def test_complete_separation_is_not_silently_converged(self, link):
        """x = (-2, -1, 1, 2) separates y = (0, 0, 1, 1) completely, so the
        likelihood has no maximum.  Probit stops on the decrement rule
        after 28 iterations at b = (0, 7.15) and compit after 34 at
        (-11.2, 14.7), both under ``SEPARATION_BOUND``, and neither
        warns."""
        data = Dataset.univariate([-2.0, -1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        result = fit_mle(ModelSpec(link), data)
        assert not result.converged or WARN_SEPARATION in result.warnings

    def test_consistency_against_standard_errors(self):
        """With 20k points from a known logit truth, the estimate lands
        within three standard errors (inverse observed information)."""
        stream = substream(2024)
        n = 20000
        x = stream.uniform(-2.5, 2.5, n)
        beta_true = np.array([0.2, 1.1])
        eta = beta_true[0] + beta_true[1] * x
        y = (stream.random(n) < cdf(LinkKind.LOGIT, eta)).astype(float)
        data = Dataset.univariate(x, y)
        spec = ModelSpec(LinkKind.LOGIT, intercept=True)
        result = fit_mle(spec, data)
        info = observed_information(spec, result.coefficients, data)
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.all(np.abs(result.coefficients - beta_true) <= 3.0 * se)


def random_stack(stream, link, S=6, n=60, p=2, shared=True, intercept=True):
    """S response rows drawn from one link over a shared (n, p) predictor
    matrix or an (S, n, p) stack of them, every row with both classes."""
    P = stream.normal(size=(n, p) if shared else (S, n, p))
    beta = stream.normal(scale=0.6, size=(S, p))
    eta = (P @ beta[..., None])[..., 0] + (0.3 if intercept else 0.0)
    Y = (stream.random((S, n)) < cdf(link, eta)).astype(float)
    Y[:, 0], Y[:, 1] = 0.0, 1.0
    return ModelSpec(link, intercept=intercept), P, Y


def row_dataset(P, Y, i):
    return Dataset(P if P.ndim == 2 else P[i], Y[i])


def reference_fit(spec, data, tol=1e-12, max_iter=100, start=None):
    """Per-dataset Newton ascent with step halving and a gradient fallback,
    written loop by loop on the public likelihood functions from the
    solver's start, or from ``start``: the reference the stacked solver
    must reproduce.  A dataset converges when its Newton decrement g'd is
    in [0, tol]; that pass's full step is its last, taken only if the
    log-likelihood does not fall.  Returns (beta, iterations, converged)."""
    k = spec.coefficient_count(data.p)
    beta = solver_start(spec, data) if start is None else np.asarray(start, dtype=float)
    iterations = 0
    for _ in range(max_iter):
        ll = log_likelihood(spec, beta, data)
        g = score(spec, beta, data)
        H = observed_information(spec, beta, data) + 1e-10 * np.eye(k)
        direction = np.linalg.solve(H, g)
        decrement = float(g @ direction)
        if not np.all(np.isfinite(direction)) or decrement <= 0.0:
            direction = g
        converged = 0.0 <= decrement <= tol
        step = 1.0
        for _ in range(1 if converged else 31):
            candidate = beta + step * direction
            if log_likelihood(spec, candidate, data) >= ll:
                break
            step *= 0.5
        else:
            return beta, iterations, converged
        if np.all(candidate == beta):
            return beta, iterations, converged
        beta = candidate
        iterations += 1
        if converged:
            return beta, iterations, True
    return beta, iterations, False


def flipped_label_draw(stream, n=30):
    """x and y whose labels follow the sign of x except for far-out
    flipped ones, on which the cauchit information turns indefinite."""
    x = stream.normal(size=n)
    y = (x > 0).astype(float)
    flip = stream.random(n) < 0.1
    y[flip] = 1.0 - y[flip]
    x[flip] *= 8.0
    return x, y


class TestFitStack:
    def test_one_row_matches_reference_loop(self):
        """Includes the gaussian draw with seed 2, on which the compit fit
        once stalled in hundreds of step halvings, the gradient fallback,
        and a row whose probe cannot move it."""
        cfg = GenConfig(Gaussian(0.0, 2.0), LinkKind.CAUCHIT, beta0=1.0, beta1=2.0, n=500)
        problems = [(ModelSpec(link), generate_dataset(cfg, seed=2, replicate=0))
                    for link in ALL_LINKS]
        for i, link in enumerate(ALL_LINKS):
            spec, _, data = random_problem(substream(306, i), link, n=80)
            problems.append((spec, data))
        # labels follow the sign of x except for far-out flipped ones: the
        # cauchit information turns indefinite and the gradient fallback runs
        stream = substream(900, 7)
        x = stream.normal(size=30)
        y = (x > 0).astype(float)
        flip = stream.random(30) < 0.1
        y[flip] = 1.0 - y[flip]
        x[flip] *= 8.0
        problems.append((ModelSpec(LinkKind.CAUCHIT), Dataset.univariate(x, y)))
        for spec, data in problems:
            beta, iterations, converged = reference_fit(spec, data)
            result = fit_mle(spec, data)
            np.testing.assert_array_equal(result.coefficients, beta)
            assert result.iterations == iterations
            assert result.converged == converged
        # a draw of a seeded search over random starts (substream(310, t),
        # t < 3000): after three moves the probe moves no coefficient, so
        # the row halves its step until the halvings run out, unconverged
        stream = substream(310, 97)
        P = stream.normal(size=(15, 2)) * 10.0 ** stream.uniform(-20, 20, size=2)
        y = (stream.random(15) < 0.5).astype(float)
        y[0], y[1] = 0.0, 1.0
        start = stream.normal(size=2) * 10.0 ** stream.uniform(-5, 15, size=2)
        spec, data = ModelSpec(LinkKind.PROBIT, intercept=False), Dataset(P, y)
        beta, iterations, converged = reference_fit(spec, data, start=start)
        g = score(spec, beta, data)
        d = np.linalg.solve(observed_information(spec, beta, data) + 1e-10 * np.eye(2), g)
        assert g @ d > fit_module.SOLVER_TOL and np.all(beta + d == beta)
        # alone, and beside a row that converges
        pair = newton(spec, P, np.stack([y, y]), np.stack([start, np.zeros(2)]))
        assert pair.stop.tolist() == [fit_module._HALVINGS, fit_module._DECREMENT]
        alone = newton(spec, P, y[None], start[None])
        assert alone.stop[0] == fit_module._HALVINGS and not converged
        for fit in (alone, pair):
            np.testing.assert_array_equal(fit.coefficients[0], beta)
            assert fit.loglik[0] == log_likelihood(spec, beta, data)
            assert fit.iterations[0] == iterations


    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("intercept", [True, False])
    def test_rows_match_single_fits(self, shared, intercept):
        for i, link in enumerate(ALL_LINKS):
            stream = substream(301, i, int(shared), int(intercept))
            spec, P, Y = random_stack(stream, link, shared=shared, intercept=intercept)
            stack = fit_stack(spec, P, Y)
            assert stack.ok.all()
            for r in range(Y.shape[0]):
                single = fit_mle(spec, row_dataset(P, Y, r))
                assert np.max(np.abs(stack.coefficients[r] - single.coefficients)) <= 1e-7
                assert stack.iterations[r] == single.iterations
                assert stack.converged[r] == single.converged
                assert stack.loglik[r] == pytest.approx(single.loglik, abs=1e-9)

    def test_single_valued_row_is_dropped_alone(self):
        """Under every link, over a shared (n, p) matrix and over one
        matrix per row, the single-valued row enters the solver with the
        others and leaves before its first pass, and the kept rows end
        where they end without it."""
        for link in ALL_LINKS:
            for shared in (True, False):
                spec, P, Y = random_stack(substream(302), link, S=5, shared=shared)
                base = fit_stack(spec, P, Y)
                bad = Y.copy()
                bad[2] = 1.0
                stack = fit_stack(spec, P, bad)
                assert isinstance(stack.errors[2], SeparationError)
                assert np.all(np.isnan(stack.coefficients[2]))
                assert stack.iterations[2] == 0 and not stack.converged[2]
                assert stack.stop[2] == fit_module._SINGLE_VALUED
                np.testing.assert_array_equal(stack.ok, [True, True, False, True, True])
                keep = stack.ok
                for field in ("coefficients", "loglik", "iterations", "converged"):
                    np.testing.assert_array_equal(getattr(stack, field)[keep],
                                                  getattr(base, field)[keep])

    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_single_class_intercept_only_row_is_dropped_alone(self, link):
        spec = ModelSpec(link)
        Y = (substream(305).random((4, 10)) < 0.5).astype(float)
        Y[:, 0], Y[:, 1] = 0.0, 1.0
        bad = Y.copy()
        bad[1] = 1.0
        stack = fit_stack(spec, np.empty((10, 0)), bad)
        assert isinstance(stack.errors[1], SeparationError)
        np.testing.assert_array_equal(stack.ok, [True, False, True, True])
        rest = fit_stack(spec, np.empty((10, 0)), Y[stack.ok])
        np.testing.assert_array_equal(stack.coefficients[stack.ok], rest.coefficients)
        np.testing.assert_array_equal(stack.iterations[stack.ok], rest.iterations)

    def test_singular_information_row_is_dropped_alone(self):
        # two identical columns this large make the ridge vanish in rounding,
        # so the damped information of that row is exactly singular
        spec, P, Y = random_stack(substream(303), LinkKind.LOGIT, S=4, shared=False,
                                  intercept=False)
        singular = P.copy()
        singular[1, :, 1] = singular[1, :, 0] = 1e5 * P[1, :, 0]
        stack = fit_stack(spec, singular, Y)
        assert isinstance(stack.errors[1], NumericalError)
        keep = np.array([True, False, True, True])
        np.testing.assert_array_equal(stack.ok, keep)
        rest = fit_stack(spec, P[keep], Y[keep])
        np.testing.assert_array_equal(stack.coefficients[keep], rest.coefficients)

    def test_non_finite_information_row_is_dropped_alone(self):
        spec, P, Y = random_stack(substream(304), LinkKind.CAUCHIT, S=3, shared=False)
        huge = P.copy()
        huge[0] *= 1e160
        with np.errstate(over="ignore"):
            stack = fit_stack(spec, huge, Y)
        assert isinstance(stack.errors[0], NumericalError)
        rest = fit_stack(spec, P[1:], Y[1:])
        np.testing.assert_array_equal(stack.coefficients[1:], rest.coefficients)

    @pytest.mark.parametrize("where", ["start", "probe", "sum-of-squares"])
    def test_overflowing_row_fails_alone(self, where):
        """Row 1's linear predictor overflows at its start (a shared x from
        1e308) or at its first probe (x of 1e150 from -8e-148): it fails
        with a ``DomainError`` and NaN fields, no overflow warning escapes,
        and row 0 ends bit for bit where it ends alone.  A start of 1e200
        on the shared x keeps every eta finite while their sum of squares
        overflows: that row does not fail, and it too ends bit for bit
        where it ends alone."""
        spec = ModelSpec(LinkKind.LOGIT, intercept=False)
        x = np.array([1.0, 2.0, -1.0, -2.0, 0.5])
        y = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        if where == "probe":
            huge = 1e150 * np.array([1.0, -1.0, 1.0, -1.0, 1.0])
            P = np.stack([x, huge])[..., None]
            Y = np.stack([y, [1.0, 0.0, 1.0, 0.0, 1.0]])
            start = [[0.0], [-8e-148]]
        else:
            P, Y = x[:, None], np.stack([y, y])
            start = [[0.0], [1e308 if where == "start" else 1e200]]
        alone = newton(spec, x[:, None], y[None], [[0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = newton(spec, P, Y, start)
        fields = ("coefficients", "loglik", "iterations", "converged")
        if where == "sum-of-squares":
            assert stack.errors[1] is None and np.isfinite(stack.loglik[1])
            second = newton(spec, x[:, None], y[None], [start[1]])
            for field in fields:
                np.testing.assert_array_equal(getattr(stack, field)[1], getattr(second, field)[0])
        else:
            assert isinstance(stack.errors[1], DomainError)
            assert np.isnan(stack.coefficients[1]).all() and np.isnan(stack.loglik[1])
            assert not stack.converged[1]
        assert stack.errors[0] is None
        for field in fields:
            np.testing.assert_array_equal(getattr(stack, field)[0], getattr(alone, field)[0])

    def test_fit_mle_raises_when_a_probe_overflows(self, monkeypatch):
        """A direction of 1e308 makes the first probe's eta overflow: the
        row fails, and ``fit_mle`` raises its ``DomainError`` without a
        warning."""
        inner = fit_module._directions
        monkeypatch.setattr(fit_module, "_directions",
                            lambda H, g: (np.full_like(g, 1e308), inner(H, g)[1]))
        data = Dataset.univariate([1.0, 2.0, -1.0, -2.0, 0.5], [1, 1, 0, 0, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError):
                fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)

    def test_one_solve_and_diagnosis_give_the_same_directions(self):
        """A stack with an exactly singular row and a non-finite row goes
        through the diagnosis; its healthy rows alone go through the one
        batched solve.  Each healthy row gets the same direction bit for
        bit, and each failed row the code of its own reason and a NaN
        direction."""
        rng = substream(308)
        A = rng.normal(size=(5, 3, 3))
        H = A @ np.swapaxes(A, 1, 2)
        g = rng.normal(size=(5, 3))
        # equal entries this large make the ridge vanish in rounding
        H[1] = 1e10
        H[3, 0, 0] = np.inf
        direction, codes = fit_module._directions(H, g)
        assert np.flatnonzero(codes).tolist() == [1, 3]
        errors = [fit_module._failure(code) for code in codes[[1, 3]]]
        assert all(isinstance(e, NumericalError) for e in errors)
        assert [str(e) for e in errors] == [
            "information matrix is singular even after ridge damping",
            "observed information is not finite"]
        assert np.isnan(direction[[1, 3]]).all()
        healthy = [0, 2, 4]
        alone, none = fit_module._directions(H[healthy], g[healthy])
        assert not none.any()
        np.testing.assert_array_equal(direction[healthy], alone)

    def test_mixed_failure_kinds_are_found_in_one_solve(self, monkeypatch):
        """An exactly singular row and a row with non-finite information
        fail in the same call of the batched solve, each with its own
        message, and the ordinary rows end where they end without them."""
        spec, P, Y = random_stack(substream(307), LinkKind.LOGIT, S=4, shared=False,
                                  intercept=False)
        mixed = P.copy()
        mixed[1, :, 1] = mixed[1, :, 0] = 1e5 * P[1, :, 0]
        mixed[2] *= 1e160
        calls = []
        inner = fit_module._directions

        def recorded(H, g):
            direction, codes = inner(H, g)
            calls.append(codes.copy())
            return direction, codes

        monkeypatch.setattr(fit_module, "_directions", recorded)
        with np.errstate(over="ignore"):
            stack = fit_stack(spec, mixed, Y)
        singular = "information matrix is singular even after ridge damping"
        non_finite = "observed information is not finite"
        assert calls[0].tolist() == [0, fit_module._SINGULAR,
                                     fit_module._INFORMATION_NOT_FINITE, 0]
        assert all(isinstance(stack.errors[i], NumericalError) for i in (1, 2))
        assert [str(e) for e in stack.errors[1:3]] == [singular, non_finite]
        keep = np.array([True, False, False, True])
        np.testing.assert_array_equal(stack.ok, keep)
        rest = fit_stack(spec, P[keep], Y[keep])
        np.testing.assert_array_equal(stack.coefficients[keep], rest.coefficients)
        np.testing.assert_array_equal(stack.loglik[keep], rest.loglik)
        np.testing.assert_array_equal(stack.iterations[keep], rest.iterations)
        np.testing.assert_array_equal(stack.converged[keep], rest.converged)

    @pytest.mark.parametrize("shared", [True, False])
    def test_row_failing_mid_solve_is_dropped_alone(self, monkeypatch, shared):
        """Row 1 of a 4-row stack fails in the third call of ``_directions``,
        after a full step from zero on each of its first two passes: it ends
        with that error, NaN fields and its two iterations, no likelihood or
        derivative pass sees it after that pass, and the other rows end
        bit for bit where they end without it."""
        spec, P, Y = random_stack(substream(309, int(shared)), LinkKind.LOGIT, S=4,
                                  shared=shared)
        keep = np.array([True, False, True, True])
        rest = cold_fit(spec, P if shared else P[keep], Y[keep])
        target = 2.0 * Y[1] - 1.0
        reason = "observed information is not finite"
        log = []
        inner = {name: getattr(fit_module, name) for name in ("_likelihood", "_derivatives")}

        def recorded(name):
            def wrapper(link, Xt, sign, arg):
                log.append((name, sign.copy()))
                return inner[name](link, Xt, sign, arg)
            return wrapper

        inner_directions = fit_module._directions

        def failing(H, g):
            direction, codes = inner_directions(H, g)
            log.append(("_directions", None))
            if sum(name == "_directions" for name, _ in log) == 3:
                signs = [sign for name, sign in log if name == "_derivatives"][-1]
                pos = int(np.flatnonzero((signs == target).all(axis=1))[0])
                direction[pos] = np.nan
                codes[pos] = fit_module._INFORMATION_NOT_FINITE
            return direction, codes

        for name in inner:
            monkeypatch.setattr(fit_module, name, recorded(name))
        monkeypatch.setattr(fit_module, "_directions", failing)
        stack = cold_fit(spec, P, Y)
        assert isinstance(stack.errors[1], NumericalError) and str(stack.errors[1]) == reason
        assert np.isnan(stack.coefficients[1]).all() and np.isnan(stack.loglik[1])
        assert stack.iterations[1] == 2 and not stack.converged[1]
        np.testing.assert_array_equal(stack.ok, keep)
        np.testing.assert_array_equal(stack.coefficients[keep], rest.coefficients)
        np.testing.assert_array_equal(stack.loglik[keep], rest.loglik)
        np.testing.assert_array_equal(stack.iterations[keep], rest.iterations)
        np.testing.assert_array_equal(stack.converged[keep], rest.converged)
        # the failing pass ends where the next derivative pass begins
        failed_at = [i for i, (name, _) in enumerate(log) if name == "_directions"][2]
        later = [i for i, (name, _) in enumerate(log) if name == "_derivatives" and i > failed_at]
        assert later
        for name, signs in log[later[0]:]:
            if signs is not None:
                assert not (signs == target).all(axis=1).any()

    def test_rare_rows_match_their_one_row_solves(self, monkeypatch):
        """A cauchit stack whose rows take each rare path of a pass beside
        ordinary rows: refused probes that halve and gradient steps where
        the Newton direction is not uphill (two flipped-label draws), a
        failure injected into a row's third pass, information that is not
        finite, and a first probe whose eta overflows.  Every row, ordinary
        or rare, ends bit for bit where its one-row solve ends, and the
        one-row solves of the ordinary rows take none of those paths."""
        spec, n = ModelSpec(LinkKind.CAUCHIT), 30
        stream = substream(310)

        def ordinary():
            x = stream.normal(size=n)
            y = (stream.random(n) < cdf(LinkKind.CAUCHIT, 0.3 + 0.8 * x)).astype(float)
            y[:2] = 0.0, 1.0
            return x, y

        rows = [ordinary(), flipped_label_draw(substream(900, 27)), ordinary()]
        x, y = ordinary()
        rows += [(1e160 * x, y),
                 (1e155 * np.resize([1.0, -1.0], n), np.resize([1.0, 0.0], n)),
                 flipped_label_draw(substream(900, 47)), ordinary()]
        P = np.stack([x[:, None] for x, _ in rows])
        Y = np.stack([y for _, y in rows])
        start = np.zeros((len(rows), 2))
        # eta is -+800 at the start, and the first probe overflows
        start[4, 1] = -8e-153
        reason = "observed information is not finite"
        failing = 2.0 * Y[2] - 1.0
        assert sum((2.0 * Y - 1.0 == failing).all(axis=1)) == 1
        log = {}
        inner = {name: getattr(fit_module, name)
                 for name in ("_likelihood", "_derivatives", "_directions")}

        def likelihood(*args):
            log["passes"] += 1
            return inner["_likelihood"](*args)

        def derivatives(link, Xt, sign, parts):
            log["signs"] = sign
            return inner["_derivatives"](link, Xt, sign, parts)

        def directions(H, g):
            direction, codes = inner["_directions"](H, g)
            log["not_uphill"] += int(np.sum(np.sum(g * direction, axis=1) <= 0.0))
            hit = np.flatnonzero((log["signs"] == failing).all(axis=1))
            if hit.size:
                log["failing"] += 1
                if log["failing"] == 3:
                    direction[hit[0]] = np.nan
                    codes[hit[0]] = fit_module._INFORMATION_NOT_FINITE
            return direction, codes

        def solve(i):
            log.update(passes=0, not_uphill=0, failing=0)
            part = slice(None) if i is None else slice(i, i + 1)
            return newton(spec, P[part], Y[part], start[part])

        for name, wrapper in (("_likelihood", likelihood), ("_derivatives", derivatives),
                              ("_directions", directions)):
            monkeypatch.setattr(fit_module, name, wrapper)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = solve(None)
            for i in range(len(rows)):
                alone = solve(i)
                assert repr(stack.errors[i]) == repr(alone.errors[0])
                for field in ("coefficients", "loglik", "iterations", "converged"):
                    np.testing.assert_array_equal(getattr(stack, field)[i],
                                                  getattr(alone, field)[0])
                refused = log["passes"] - 1 - alone.iterations[0]
                if i in (1, 5):
                    # two probes not taken: at most the last stops the row,
                    # so at least one halved
                    assert log["not_uphill"] >= 1 and refused >= 2
                elif i in (0, 6):
                    assert log["not_uphill"] == 0 and refused == 0
        assert [type(e) for e in stack.errors] == [
            type(None), type(None), NumericalError, NumericalError, DomainError, type(None),
            type(None)]
        assert str(stack.errors[2]) == str(stack.errors[3]) == reason
        assert stack.iterations[2] == 2 and stack.iterations[4] == 0
        assert stack.converged[[0, 1, 5, 6]].all()

    def test_single_fit_raises_the_row_error(self):
        x = np.arange(1.0, 41.0)
        data = Dataset(np.stack([x, x], axis=1) * 1e5, (x % 3 == 0).astype(float))
        with pytest.raises(NumericalError):
            fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)

    def test_trace_never_decreases_through_line_searches(self):
        """On this draw (gaussian x, cauchit truth) every link converges;
        every one-row trace is non-decreasing and ends at the reported
        loglik."""
        cfg = GenConfig(Gaussian(0.0, 2.0), LinkKind.CAUCHIT, beta0=1.0, beta1=2.0, n=500)
        data = generate_dataset(cfg, seed=2, replicate=0)
        for link in ALL_LINKS:
            result, trace = loglik_trace(ModelSpec(link), data)
            assert result.converged
            assert np.all(np.diff(trace) >= 0.0)
            assert trace[-1] == result.loglik

    def test_halving_rows_hold_no_other_row_up(self, monkeypatch):
        """The 40 flipped-label draws, where the cauchit rows halve their
        steps at different passes: every row ends bit for bit where a
        one-row stack ends, and the stack makes as many likelihood passes
        as its slowest row alone."""
        draws = [flipped_label_draw(substream(900, i)) for i in range(40)]
        P = np.stack([x[:, None] for x, _ in draws])
        Y = np.stack([y for _, y in draws])
        passes = []
        inner = fit_module._likelihood

        def counted(*args):
            passes.append(None)
            return inner(*args)

        monkeypatch.setattr(fit_module, "_likelihood", counted)
        for link in ALL_LINKS:
            spec = ModelSpec(link)
            passes.clear()
            stack = fit_stack(spec, P, Y)
            stack_passes = len(passes)
            alone = []
            for i in range(Y.shape[0]):
                passes.clear()
                row = fit_stack(spec, P[i:i + 1], Y[i:i + 1])
                alone.append(len(passes))
                np.testing.assert_array_equal(stack.coefficients[i], row.coefficients[0])
                assert stack.loglik[i] == row.loglik[0]
                assert stack.iterations[i] == row.iterations[0]
                assert stack.converged[i] == row.converged[0]
            assert stack_passes == max(alone)

    def test_stopped_rows_are_not_evaluated_again(self, monkeypatch):
        """On the 40 flipped-label draws, whose rows halve and stop at
        different passes, the stack's likelihood and derivative passes see
        as many elements as its one-row solves see together, so no row is
        evaluated after it stops."""
        draws = [flipped_label_draw(substream(900, i)) for i in range(40)]
        P = np.stack([x[:, None] for x, _ in draws])
        Y = np.stack([y for _, y in draws])
        elements = {"_likelihood": 0, "_derivatives": 0}

        def counted(name):
            inner = getattr(fit_module, name)

            def wrapper(link, Xt, sign, arg):
                elements[name] += sign.size
                return inner(link, Xt, sign, arg)

            return wrapper

        for name in elements:
            monkeypatch.setattr(fit_module, name, counted(name))
        for link in ALL_LINKS:
            spec = ModelSpec(link)
            elements.update(dict.fromkeys(elements, 0))
            fit_stack(spec, P, Y)
            stack = dict(elements)
            elements.update(dict.fromkeys(elements, 0))
            for i in range(Y.shape[0]):
                fit_stack(spec, P[i:i + 1], Y[i:i + 1])
            assert stack == elements

    def test_validation(self):
        spec = ModelSpec(LinkKind.LOGIT)
        with pytest.raises(ArgumentError):
            fit_stack(spec, np.ones((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]))
        with pytest.raises(ArgumentError):
            fit_stack(spec, np.ones((3, 1)), np.zeros((2, 4)))
        with pytest.raises(ArgumentError):
            fit_stack(spec, np.ones((3, 4, 1)), np.zeros((2, 4)))
        with pytest.raises(ArgumentError):
            fit_stack(spec, np.ones((4, 1)), np.full((2, 4), 0.5))
        with pytest.raises(ArgumentError):
            fit_stack(spec, np.full((4, 1), np.inf), np.zeros((2, 4)))


class TestStart:
    """``fit._newton`` from given points, the starts that ``_fit_links``
    chooses for every fit."""

    def test_single_valued_row_with_start_is_separated(self):
        spec, P, Y = random_stack(substream(322), LinkKind.CAUCHIT, S=4)
        Y[1] = 0.0
        stack = newton(spec, P, Y, np.full((4, 3), 0.5))
        assert isinstance(stack.errors[1], SeparationError)
        np.testing.assert_array_equal(stack.ok, [True, False, True, True])

    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_rows_match_one_row_fits_from_their_start(self, shared, link):
        stream = substream(323, int(shared))
        spec, P, Y = random_stack(stream, link, shared=shared)
        start = stream.normal(scale=0.5, size=(Y.shape[0], 3))
        stack = newton(spec, P, Y, start)
        assert stack.ok.all()
        for i in range(Y.shape[0]):
            row = newton(spec, P if shared else P[i], Y[i:i + 1], start[i:i + 1])
            np.testing.assert_array_equal(stack.coefficients[i], row.coefficients[0])
            assert stack.loglik[i] == row.loglik[0]
            assert stack.iterations[i] == row.iterations[0]
            assert stack.converged[i] == row.converged[0]


def paired_draw(n):
    """The paired studies' default shape: gaussian x with sd 2, cauchit
    truth with intercept 1 and slope 2, seed 3."""
    cfg = GenConfig(Gaussian(0.0, 2.0), LinkKind.CAUCHIT, beta0=1.0, beta1=2.0, n=n)
    return generate_dataset(cfg, seed=3, replicate=0)


class TestStoppingRule:
    """The decrement rule ends each fit before the rounding of the
    log-likelihood can stall its line search."""

    def test_large_sample_converges(self):
        data = paired_draw(20_000)
        for link in (LinkKind.PROBIT, LinkKind.CAUCHIT, LinkKind.LOGIT):
            assert fit_mle(ModelSpec(link), data).converged

    def test_paired_training_sets_converge(self):
        data = paired_draw(500)
        plan = SplitPlan(200, seed=1)
        training = [split(data, plan, r)[0] for r in range(40)]
        P = np.stack([train.predictors for train in training])
        Y = np.stack([train.response for train in training])
        for link in ALL_LINKS:
            assert fit_stack(ModelSpec(link), P, Y).converged.all()

    def test_structural_evaluation_count(self, monkeypatch):
        """Likelihood and derivative passes of the solver; the counts are
        deterministic, so the bounds do not depend on the host."""
        calls = {"_likelihood": 0, "_derivatives": 0}

        def counted(name):
            inner = getattr(fit_module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(fit_module, name, counted(name))
        cfg = GenConfig(Equispaced(0.0, 1.0), LinkKind.CAUCHIT, beta0=0.0, beta1=0.5, n=199)
        structural_sim(cfg, R=2, S=199, seed=42)
        assert 0 < calls["_likelihood"] <= 20
        assert 0 < calls["_derivatives"] <= 16


def paired_training_stack(replicates):
    """Predictors and responses of the first P500 training sets of
    ``SplitPlan(200, seed=1)``, stacked."""
    data = paired_draw(500)
    plan = SplitPlan(200, seed=1)
    training = [split(data, plan, r)[0] for r in range(replicates)]
    return (np.stack([train.predictors for train in training]),
            np.stack([train.response for train in training]))


class TestWarmStart:
    """Logit fits started from the linear-discriminant estimate, and probit
    and cauchit fits started from the same row's logit fit
    (``fit._fit_links``), against fits started from zero."""

    def test_warm_rows_reach_the_cold_fit(self):
        """Every warm-started row, logit's too, reaches the cold-started
        verdict, and its coefficients move by at most the permutation
        test's tolerance: 1e-6 of the largest coefficient or standard
        error."""
        P, Y = paired_training_stack(200)
        warm = fit_module._fit_links(ALL_LINKS, True, P, Y)
        for link in ALL_LINKS:
            spec = ModelSpec(link)
            cold = cold_fit(spec, P, Y)
            np.testing.assert_array_equal(warm[link].ok, cold.ok)
            np.testing.assert_array_equal(warm[link].converged, cold.converged)
            assert cold.converged.all()
            for i in range(Y.shape[0]):
                beta = cold.coefficients[i]
                information = observed_information(spec, beta, Dataset(P[i], Y[i]))
                errors = np.sqrt(np.diag(np.linalg.inv(information)))
                scale = max(np.max(np.abs(beta)), np.max(errors))
                assert np.max(np.abs(warm[link].coefficients[i] - beta)) <= 1e-6 * scale

    def test_warm_start_evaluates_fewer_elements(self, monkeypatch):
        """On one 50-replicate P500 block, logit, probit and cauchit
        evaluate fewer likelihood elements warm than cold; compit starts
        at zero either way.  The counts are deterministic."""
        elements = {}
        inner = fit_module._likelihood

        def counted(link, Xt, sign, beta):
            elements[link] = elements.get(link, 0) + sign.size
            return inner(link, Xt, sign, beta)

        monkeypatch.setattr(fit_module, "_likelihood", counted)
        P, Y = paired_training_stack(50)
        for link in ALL_LINKS:
            cold_fit(ModelSpec(link), P, Y)
        cold = dict(elements)
        elements.clear()
        fit_module._fit_links(ALL_LINKS, True, P, Y)
        for link in (LinkKind.LOGIT, LinkKind.PROBIT, LinkKind.CAUCHIT):
            assert elements[link] < cold[link]
        assert elements[LinkKind.COMPIT] == cold[LinkKind.COMPIT]

    def test_fit_mle_ends_where_the_paired_block_ends(self):
        """``fit_mle`` on each P500 training split of ``SplitPlan(50,
        seed=0)`` ends bit for bit on that split's logit row of the
        block's ``_fit_links`` fit: the two share one start rule."""
        data, plan = paired_draw(500), SplitPlan(50, seed=0)
        training = [split(data, plan, r)[0] for r in range(plan.replications)]
        P = np.stack([train.predictors for train in training])
        Y = np.stack([train.response for train in training])
        block = fit_module._fit_links(ALL_LINKS, True, P, Y)[LinkKind.LOGIT]
        for r, train in enumerate(training):
            alone = fit_mle(ModelSpec(LinkKind.LOGIT), train)
            np.testing.assert_array_equal(alone.coefficients, block.coefficients[r])
            assert alone.loglik == block.loglik[r]
            assert alone.iterations == block.iterations[r]
            assert alone.converged == block.converged[r]


class TestDiscriminantStart:
    """``fit._discriminant_start``, the logit start of a model with an
    intercept."""

    @staticmethod
    def pooled_formula(P, y):
        """Slope and intercept from each class's ``np.cov``, pooled over
        n - 2."""
        one, zero = P[y == 1.0], P[y == 0.0]
        n1, n0 = len(one), len(zero)
        within = ((n1 - 1) * np.atleast_2d(np.cov(one.T))
                  + (n0 - 1) * np.atleast_2d(np.cov(zero.T))) / (n1 + n0 - 2)
        mu1, mu0 = one.mean(axis=0), zero.mean(axis=0)
        slope = np.linalg.solve(within, mu1 - mu0)
        return np.concatenate([[math.log(n1 / n0) - 0.5 * (mu1 + mu0) @ slope], slope])

    @pytest.mark.parametrize("p", [1, 3])
    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_the_pooled_covariance_formula(self, shared, p):
        _, P, Y = random_stack(substream(330, p, int(shared)), LinkKind.LOGIT,
                               p=p, shared=shared)
        start = fit_module._discriminant_start(*fit_module._stack_input(True, P, Y)[1:])
        assert start.shape == (Y.shape[0], p + 1)
        for i in range(Y.shape[0]):
            want = self.pooled_formula(P if shared else P[i], Y[i])
            np.testing.assert_allclose(start[i], want, rtol=1e-12, atol=1e-14)

    def test_rows_start_alike_alone_and_in_a_stack(self):
        """A row's start has the same bits in a stack as alone; a row whose
        pooled covariance is singular (its two columns equal) starts at
        zero, and so do an all-0 and an all-1 row."""
        _, P, Y = random_stack(substream(331), LinkKind.LOGIT, shared=False)
        P[2, :, 1] = P[2, :, 0]
        P = np.concatenate([P, P[:2]])
        Y = np.concatenate([Y, np.zeros((1, Y.shape[1])), np.ones((1, Y.shape[1]))])
        start = fit_module._discriminant_start(*fit_module._stack_input(True, P, Y)[1:])
        zero = [2, Y.shape[0] - 2, Y.shape[0] - 1]
        np.testing.assert_array_equal(start[zero], 0.0)
        assert np.all(np.delete(start, zero, axis=0) != 0.0)
        for i in range(Y.shape[0]):
            alone = fit_module._stack_input(True, P[i], Y[i:i + 1])[1:]
            np.testing.assert_array_equal(fit_module._discriminant_start(*alone)[0], start[i])

    @pytest.mark.parametrize("p", [0, 1, 3])
    def test_flipped_signs_negate_the_start_exactly(self, p):
        """Signs -s give the exact negation of the start from signs s,
        unbalanced classes included."""
        _, P, Y = random_stack(substream(332, p), LinkKind.LOGIT, p=p, shared=False)
        assert np.any(Y.sum(axis=1) != Y.shape[1] / 2)
        Xt, sign = fit_module._stack_input(True, P, Y)[1:]
        start = fit_module._discriminant_start(Xt, sign)
        assert np.all(start != 0.0)
        np.testing.assert_array_equal(fit_module._discriminant_start(Xt, -sign), -start)

    def test_intercept_only_start_is_the_exact_mle(self):
        """With no predictors the start is log(n1) - log(n0), the MLE
        log(n1/n0) to rounding, so the fit stops on the first pass's
        decrement."""
        Y = np.zeros((3, 12))
        for i, ones in enumerate((1, 5, 9)):
            Y[i, :ones] = 1.0
        start = fit_module._discriminant_start(
            *fit_module._stack_input(True, np.empty((12, 0)), Y)[1:])
        np.testing.assert_array_equal(start[:, 0], [math.log(1) - math.log(11),
                                                    math.log(5) - math.log(7),
                                                    math.log(9) - math.log(3)])
        fit = fit_module._fit_links([LinkKind.LOGIT], True, np.empty((12, 0)), Y)[LinkKind.LOGIT]
        assert fit.converged.all() and (fit.iterations <= 1).all()


class TestExactLikelihood:
    """The solver maximizes the exact log-space likelihood; no CDF clamp
    sits between it and the model."""

    def test_b200k_every_link_converges(self):
        """B200k is ``gen --design gaussian --sd 2 --beta0 1 --beta1 2
        --n 200000 --seed 3``.  Fitting the clamp, compit stopped after 24
        iterations unconverged, at slope 0.60794; BFGS on the exact
        likelihood, written independently, finds 0.6026903."""
        data = paired_draw(200_000)
        fits = {link: fit_mle(ModelSpec(link), data) for link in ALL_LINKS}
        for link, result in fits.items():
            assert result.converged, link
        assert abs(fits[LinkKind.COMPIT].coefficients[1] - 0.6026903) <= 1e-6


def drawn_problem(seed, shape, n, x_scale, beta_scale):
    """n rows of p normal predictors scaled by ``x_scale``, ``shape`` being
    (p, intercept), with labels drawn from a logit model whose
    coefficients have sd ``beta_scale``; some draws are separated or
    single-class."""
    p, intercept = shape
    stream = substream(910, seed)
    X = stream.normal(size=(n, p)) * x_scale
    beta = stream.normal(scale=beta_scale, size=p + int(intercept))
    eta = X @ beta[int(intercept):] + (beta[0] if intercept else 0.0)
    y = (stream.random(n) < cdf(LinkKind.LOGIT, eta)).astype(float)
    return intercept, Dataset(X, y)


def fit_or_error(spec, data):
    try:
        return fit_mle(spec, data)
    except LinkEquivError as exc:
        return type(exc)


def identified(intercept, data):
    """Whether both classes occur, the model matrix has full column rank
    and no coefficient vector b separates the classes: with Z = (2y - 1) * [1, X], the linear
    program max sum(Zb) subject to Zb >= 0 and |b| <= 1 (Konis 2007) has
    optimum 0."""
    # the solver refuses a single-valued response even where, with no
    # intercept and mixed-sign x, the MLE exists
    if data.response.min() == data.response.max():
        return False
    design = np.column_stack([np.ones(data.n)] * intercept + [data.predictors])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        return False
    Z = (2.0 * data.response - 1.0)[:, None] * design
    lp = linprog(-Z.sum(axis=0), A_ub=-Z, b_ub=np.zeros(data.n), bounds=(-1.0, 1.0))
    return lp.status == 0 and -lp.fun <= 1e-9 * np.abs(Z).sum()


problems = st.builds(
    drawn_problem,
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(p, i) for p in range(4) for i in (True, False) if p or i]),
    n=st.integers(3, 60),
    x_scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3]),
    beta_scale=st.sampled_from([0.3, 1.0, 5.0]),
)


class TestInvariances:
    """Properties of the fit that no reordering or relabelling of the data
    may change."""

    @given(problem=problems,
           link=st.sampled_from([LinkKind.PROBIT, LinkKind.CAUCHIT, LinkKind.LOGIT]))
    @example(problem=drawn_problem(7, (1, True), 20, 1.0, 1.0), link=LinkKind.LOGIT)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_flipped_labels_negate_the_fit_exactly(self, problem, link):
        """F(-u) = 1 - F(u) for symmetric links, so y -> 1 - y maps every
        iterate beta to -beta: the fit, its verdict and any error match
        bit for bit, separated and capped fits included.  The pinned
        example, a logit model with an intercept and 8 of 20 labels 1,
        fails where the discriminant start's intercept takes log(n1/n0),
        whose rounding differs from that of -log(n0/n1)."""
        intercept, data = problem
        spec = ModelSpec(link, intercept=intercept)
        fit = fit_or_error(spec, data)
        flipped = fit_or_error(spec, Dataset(data.predictors, 1.0 - data.response))
        if isinstance(fit, type):
            assert flipped is fit
            return
        np.testing.assert_array_equal(flipped.coefficients, -fit.coefficients)
        assert flipped.loglik == fit.loglik
        assert flipped.iterations == fit.iterations
        assert flipped.converged == fit.converged
        assert flipped.warnings == fit.warnings

    @given(problem=problems, link=st.sampled_from(ALL_LINKS), order=st.randoms())
    @example(problem=drawn_problem(41, (1, False), 41, 1e-3, 0.3),
             link=LinkKind.COMPIT, order=random.Random(327))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_row_permutation_keeps_the_fit(self, problem, link, order):
        """Reordering the rows changes only the rounding of the sums.  Where
        the MLE exists and is unique (a full-rank design and no separation),
        the verdict and warnings stay, and converged coefficients move by at
        most 1e-6 of the largest coefficient or standard error: the
        likelihood cannot place a weakly determined coefficient more
        finely.  The pinned example is the worst case seen: its compit
        slope 0.298 has standard error 161 and moves 1.4e-6 (4.7e-6 of
        itself, 8.8e-9 of the bound's scale)."""
        intercept, data = problem
        assume(identified(intercept, data))
        spec = ModelSpec(link, intercept=intercept)
        fit = fit_mle(spec, data)
        rows = list(range(data.n))
        order.shuffle(rows)
        permuted = fit_mle(spec, data.subset(np.array(rows)))
        assert permuted.converged == fit.converged
        assert permuted.warnings == fit.warnings
        if not fit.converged:  # a capped cauchit fit stops at no optimum
            return
        information = observed_information(spec, fit.coefficients, data)
        errors = np.sqrt(np.diag(np.linalg.inv(information)))
        scale = max(np.max(np.abs(fit.coefficients)), np.max(errors))
        assert np.max(np.abs(permuted.coefficients - fit.coefficients)) <= 1e-6 * scale


class TestInformationCriteria:
    @staticmethod
    def _result(k, loglik, converged=True, n=10):
        return FitResult(
            coefficients=np.zeros(k),
            loglik=loglik,
            aic=2 * k - 2 * loglik,
            bic=k * math.log(n) - 2 * loglik,
            iterations=1,
            converged=converged,
            warnings=(),
            n_obs=n,
        )

    def test_formula(self):
        out = information_criteria(self._result(1, -10.0), 100)
        assert out["aic"] == pytest.approx(22.0, abs=1e-12)
        assert out["bic"] == pytest.approx(math.log(100) + 20.0, abs=1e-12)
        assert out["bic"] == pytest.approx(24.6052, abs=1e-4)

    def test_zero_loglik(self):
        assert information_criteria(self._result(2, 0.0), 5)["aic"] == 4.0

    def test_intercept_only_logit_balanced(self):
        data = Dataset.intercept_only([1.0, 0.0, 1.0, 0.0])
        result = fit_mle(ModelSpec(LinkKind.LOGIT, intercept=True), data)
        out = information_criteria(result, 4)
        assert out["aic"] == pytest.approx(2.0 + 8.0 * math.log(2.0), abs=1e-8)

    def test_requires_convergence(self):
        with pytest.raises(ArgumentError):
            information_criteria(self._result(1, -1.0, converged=False), 10)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_fewer_than_one_row(self, n):
        with pytest.raises(ArgumentError, match="n >= 1"):
            information_criteria(self._result(1, -1.0), n)

    def test_stored_values_recomputable(self):
        stream = substream(7)
        spec, _, data = random_problem(stream, LinkKind.PROBIT, n=100)
        result = fit_mle(spec, data)
        k = result.coefficients.size
        assert result.aic == pytest.approx(2 * k - 2 * result.loglik, abs=1e-12)
        assert result.bic == pytest.approx(
            k * math.log(result.n_obs) - 2 * result.loglik, abs=1e-12
        )
