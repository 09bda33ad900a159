"""Likelihood, score and Newton-solver behaviour for all four links."""

import math

import numpy as np
import pytest

from linkequiv import (
    ArgumentError,
    Dataset,
    FitResult,
    Gaussian,
    GenConfig,
    LinkKind,
    ModelSpec,
    NumericalError,
    SeparationError,
    cdf,
    fit_mle,
    fit_stack,
    generate_dataset,
    information_criteria,
    log_likelihood,
    observed_information,
    quantile,
    score,
    substream,
)
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


def loglik_trace(spec, data):
    """The full fit and its log-likelihood after the start and after each
    step.  Iterates are deterministic, so the fit capped at m steps stops
    exactly at the full fit's m-th iterate."""
    full = fit_mle(spec, data)
    trace = []
    for m in range(full.iterations + 1):
        capped = fit_mle(spec, data, max_iter=m)
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

    def test_default_names(self):
        data = Dataset(np.ones((2, 3)), [0, 1])
        assert data.names == ("x1", "x2", "x3")

    def test_intercept_only_has_no_columns(self):
        data = Dataset.intercept_only([0, 1, 1])
        assert data.p == 0 and data.n == 3

    def test_subset_keeps_names(self):
        data = Dataset(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1], ("a", "b"))
        sub = data.subset([0, 2])
        assert sub.n == 2 and sub.names == ("a", "b")
        np.testing.assert_array_equal(sub.response, [0.0, 0.0])


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

    def test_rejects_wrong_length(self):
        data = Dataset.univariate([1.0, 2.0], [1, 0])
        with pytest.raises(ArgumentError):
            log_likelihood(ModelSpec(LinkKind.LOGIT, intercept=False), [1.0, 2.0], data)


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
        for i, link in enumerate(ALL_LINKS):
            stream = substream(123, i)
            spec, _, data = random_problem(stream, link, n=150)
            c = 3.7
            scaled = Dataset(
                data.predictors * np.array([c, 1.0]), data.response, data.names
            )
            base = fit_mle(spec, data).coefficients
            other = fit_mle(spec, scaled).coefficients
            assert other[1] == pytest.approx(base[1] / c, rel=1e-6)
            assert other[2] == pytest.approx(base[2], rel=1e-6)

    def test_single_class_response_raises(self):
        data = Dataset.univariate([1.0, 2.0, 3.0], [1.0, 1.0, 1.0])
        with pytest.raises(SeparationError):
            fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)

    def test_separable_data_warns_instead_of_aborting(self):
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        y = (x > 0).astype(float)
        data = Dataset.univariate(x, y)
        result = fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)
        assert WARN_SEPARATION in result.warnings
        assert np.isfinite(result.loglik)

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


def reference_fit(spec, data, tol=1e-8, max_iter=100):
    """Per-dataset Newton ascent with step halving and a gradient fallback,
    written loop by loop on the public likelihood functions: the reference
    the stacked solver must reproduce.  Returns (beta, iterations)."""
    k = spec.coefficient_count(data.p)
    beta = np.zeros(k)
    ll = log_likelihood(spec, beta, data)
    iterations = 0
    for _ in range(max_iter):
        g = score(spec, beta, data)
        if np.max(np.abs(g), initial=0.0) <= tol:
            break
        H = observed_information(spec, beta, data) + 1e-10 * np.eye(k)
        direction = np.linalg.solve(H, g)
        if not np.all(np.isfinite(direction)) or float(g @ direction) <= 0.0:
            direction = g
        step = 1.0
        for _ in range(31):
            candidate = beta + step * direction
            candidate_ll = log_likelihood(spec, candidate, data)
            if candidate_ll >= ll:
                break
            step *= 0.5
        else:
            break
        if np.all(candidate == beta):
            break
        beta, ll = candidate, candidate_ll
        iterations += 1
    return beta, iterations


class TestFitStack:
    def test_one_row_matches_reference_loop(self):
        """Includes the stall path (on the gaussian draw with seed 2 the
        compit fit ends after hundreds of step halvings) and the gradient
        fallback."""
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
            beta, iterations = reference_fit(spec, data)
            result = fit_mle(spec, data)
            np.testing.assert_array_equal(result.coefficients, beta)
            assert result.iterations == iterations


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
        spec, P, Y = random_stack(substream(302), LinkKind.PROBIT, S=5)
        base = fit_stack(spec, P, Y)
        bad = Y.copy()
        bad[2] = 1.0
        stack = fit_stack(spec, P, bad)
        assert isinstance(stack.errors[2], SeparationError)
        assert np.all(np.isnan(stack.coefficients[2]))
        np.testing.assert_array_equal(stack.ok, [True, True, False, True, True])
        keep = stack.ok
        np.testing.assert_array_equal(stack.coefficients[keep], base.coefficients[keep])
        np.testing.assert_array_equal(stack.loglik[keep], base.loglik[keep])

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

    def test_single_fit_raises_the_row_error(self):
        x = np.arange(1.0, 41.0)
        data = Dataset(np.stack([x, x], axis=1) * 1e5, (x % 3 == 0).astype(float))
        with pytest.raises(NumericalError):
            fit_mle(ModelSpec(LinkKind.LOGIT, intercept=False), data)

    def test_trace_never_decreases_through_line_searches(self):
        """On this draw (gaussian x, cauchit truth) the compit fit ends on
        the stall path after hundreds of step halvings; every one-row
        trace is non-decreasing and ends at the reported loglik."""
        cfg = GenConfig(Gaussian(0.0, 2.0), LinkKind.CAUCHIT, beta0=1.0, beta1=2.0, n=500)
        data = generate_dataset(cfg, seed=2, replicate=0)
        iterations = {}
        for link in ALL_LINKS:
            result, trace = loglik_trace(ModelSpec(link), data)
            iterations[link] = result.iterations
            assert np.all(np.diff(trace) >= 0.0)
            assert trace[-1] == result.loglik
        assert iterations[LinkKind.COMPIT] > 20

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
            grad_norm=0.0,
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
