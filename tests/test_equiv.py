"""Generators, OLS, summaries and the two replication harnesses."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize, special

from linkequiv import (
    ArgumentError,
    Classifier,
    Dataset,
    DegenerateSampleError,
    Equispaced,
    ExperimentError,
    Gaussian,
    GenConfig,
    LinkKind,
    ModelSpec,
    SplitPlan,
    cdf,
    fit_mle,
    generate_dataset,
    ic_compare,
    information_criteria,
    logistic_normal_scale,
    ols_simple,
    predictive_sim,
    split,
    structural_sim,
    substream,
    summarize,
)
from linkequiv import test_error as zero_one_error
from linkequiv import concord, parallel
from linkequiv import fit as fit_module
from linkequiv.concord import _paired_pass
from linkequiv.equiv import _draw, _slope_line
from linkequiv.parallel import replicate_map

EXAMPLE_ONE = GenConfig(
    design=Equispaced(0.0, 1.0),
    truth_link=LinkKind.CAUCHIT,
    beta0=0.0,
    beta1=0.5,
    n=199,
)


def naive_summary(values):
    """Quadratic-time reference for every summary field, written from the
    plain formulas with linear-interpolation quantiles."""
    v = sorted(float(x) for x in values)
    n = len(v)
    mean = sum(v) / n
    median = (v[(n - 1) // 2] + v[n // 2]) / 2.0
    sd = math.sqrt(sum((x - mean) ** 2 for x in v) / (n - 1))
    m2 = sum((x - mean) ** 2 for x in v) / n
    m3 = sum((x - mean) ** 3 for x in v) / n
    m4 = sum((x - mean) ** 4 for x in v) / n
    skew = m3 / m2**1.5 if m2 > 0 else float("nan")
    kurt = m4 / (m2 * m2) if m2 > 0 else float("nan")
    cv = 100.0 * sd / mean if mean != 0 else float("nan")

    def q(p):
        h = (n - 1) * p
        i = int(math.floor(h))
        f = h - i
        return v[i] if f == 0.0 else v[i] * (1 - f) + v[i + 1] * f

    return {
        "median": median, "mean": mean, "sd": sd, "skewness": skew,
        "kurtosis": kurt, "cv": cv, "iqr": q(0.75) - q(0.25),
        "min": v[0], "max": v[-1],
    }


class TestGenerateDataset:
    def test_equispaced_endpoints_and_step(self):
        data = generate_dataset(EXAMPLE_ONE, seed=0, replicate=0)
        x = data.predictors[:, 0]
        assert x[0] == 0.0 and x[-1] == 1.0
        np.testing.assert_allclose(np.diff(x), 1.0 / 198.0, rtol=1e-12)
        assert set(np.unique(data.response)) <= {0.0, 1.0}

    def test_cauchit_probability_at_origin(self):
        # slope 1/2, intercept 0: arctan(0) = 0 puts the origin at one half
        assert cdf(LinkKind.CAUCHIT, 0.0 + 0.5 * 0.0) == 0.5

    def test_deterministic(self):
        a = generate_dataset(EXAMPLE_ONE, seed=9, replicate=4)
        b = generate_dataset(EXAMPLE_ONE, seed=9, replicate=4)
        np.testing.assert_array_equal(a.response, b.response)

    def test_replicates_differ(self):
        a = generate_dataset(EXAMPLE_ONE, seed=9, replicate=0)
        b = generate_dataset(EXAMPLE_ONE, seed=9, replicate=1)
        assert not np.array_equal(a.response, b.response)

    def test_gaussian_design_spread(self):
        cfg = GenConfig(design=Gaussian(0.0, 2.0), truth_link=LinkKind.LOGIT,
                        beta0=0.0, beta1=1.0, n=100000)
        data = generate_dataset(cfg, seed=1, replicate=0)
        assert abs(data.predictors[:, 0].std() - 2.0) <= 0.05

    def test_config_validation(self):
        with pytest.raises(ArgumentError):
            Equispaced(1.0, 0.0)
        with pytest.raises(ArgumentError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ArgumentError):
            GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.LOGIT,
                      beta0=0.0, beta1=1.0, n=1)
        with pytest.raises(ArgumentError, match="design must be"):
            GenConfig(design="gaussian", truth_link=LinkKind.LOGIT,
                      beta0=0.0, beta1=1.0, n=10)
        # every non-finite design or coefficient is refused, by its name
        for make, name in [
            (lambda: Equispaced(-1e308, 1e308), "width must be finite"),
            (lambda: Equispaced(0.0, math.inf), "width must be finite"),
            (lambda: Equispaced(math.nan, 1.0), "a < b"),
            (lambda: Gaussian(math.nan, 1.0), "finite mean"),
            (lambda: Gaussian(-math.inf, 1.0), "finite mean"),
            (lambda: Gaussian(0.0, math.inf), "finite sd"),
            (lambda: Gaussian(0.0, math.nan), "finite sd"),
            (lambda: GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.LOGIT,
                               beta0=math.inf, beta1=1.0, n=10), "beta0 must be finite"),
            (lambda: GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.LOGIT,
                               beta0=0.0, beta1=math.nan, n=10), "beta1 must be finite"),
        ]:
            with pytest.raises(ArgumentError, match=name):
                make()


@pytest.mark.parametrize("make", [
    lambda: SplitPlan(replications=2.5, seed=1),
    lambda: structural_sim(EXAMPLE_ONE, R=2.5, S=10, seed=0),
    lambda: structural_sim(EXAMPLE_ONE, R=1, S=10.5, seed=0),
    lambda: GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.LOGIT,
                      beta0=0.0, beta1=1.0, n=50.5),
    lambda: structural_sim(EXAMPLE_ONE, R=3, S=5, seed=0, jobs=2.5),
], ids=["replications", "R", "S", "n", "jobs"])
def test_non_integral_counts_rejected(make):
    with pytest.raises(ArgumentError, match="must be an integer"):
        make()


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    """Every harness checks ``jobs`` where it maps its replicates, before
    any runs."""
    plan = SplitPlan(replications=4, seed=0)
    for run in (lambda: structural_sim(EXAMPLE_ONE, R=3, S=5, seed=0, jobs=jobs),
                lambda: predictive_sim(_real_data(), [LinkKind.LOGIT], plan, jobs=jobs),
                lambda: ic_compare(_real_data(), [LinkKind.LOGIT], plan, jobs=jobs)):
        with pytest.raises(ArgumentError, match="jobs must be at least 1"):
            run()


class TestOlsSimple:
    def test_exact_line(self):
        xs = np.linspace(-2, 2, 9)
        out = ols_simple(xs, 0.6 * xs)
        assert out.theta == pytest.approx(0.6, abs=1e-14)
        assert out.tau == pytest.approx(0.0, abs=1e-14)
        assert out.r2 == pytest.approx(1.0, abs=1e-14)

    def test_hand_case(self):
        out = ols_simple([1.0, 2.0, 3.0], [2.0, 4.0, 7.0])
        assert out.theta == pytest.approx(2.5, abs=1e-12)
        assert out.tau == pytest.approx(-2.0 / 3.0, abs=1e-12)
        # xs far from unit scale, whose squares overflow or underflow
        for scale in (1e200, 1e-170):
            far = ols_simple([scale, 2.0 * scale, 3.0 * scale], [2.0, 4.0, 7.0])
            assert far.theta == pytest.approx(2.5 / scale, abs=0.0, rel=1e-12)
            assert far.tau == pytest.approx(-2.0 / 3.0, abs=1e-12)
            assert far.rho == pytest.approx(out.rho, abs=1e-15)
        # a slope beyond the double range (the true one is 1.5e600) is inf
        # with no warning, while the intercept and rho stay exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = ols_simple([1e-300, 2e-300, 3e-300], [1e300, 2e300, 4e300])
        assert huge.theta == math.inf
        assert huge.tau == pytest.approx(-2e300 / 3.0, abs=0.0, rel=1e-12)
        assert huge.rho == pytest.approx(ols_simple([1, 2, 3], [1, 2, 4]).rho, abs=1e-15)

    def test_proportional_probit_logit_slopes(self):
        # if probit estimates were exactly sqrt(pi/8) times the logit
        # ones, the fitted slope recovers that constant with r2 = 1
        xs = np.array([0.4, 0.9, 1.3, 2.0])
        lam = logistic_normal_scale()
        out = ols_simple(xs, lam * xs)
        assert out.theta == pytest.approx(lam, abs=1e-14)
        assert out.r2 == pytest.approx(1.0, abs=1e-14)

    def test_constant_ys_rejected(self):
        with pytest.raises(DegenerateSampleError):
            ols_simple([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])

    def test_zero_variance_xs_rejected(self):
        with pytest.raises(DegenerateSampleError):
            ols_simple([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(ArgumentError):
            ols_simple([1.0, 2.0], [1.0, 2.0])
        # and unequal, 2-d or non-finite inputs
        for xs, ys, message in (
            ([1.0, 2.0, 3.0], [1.0, 2.0], "equal-length vectors"),
            ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]], "equal-length vectors"),
            ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "must be finite"),
            ([1.0, 2.0, 3.0], [1.0, 2.0, np.inf], "must be finite"),
        ):
            with pytest.raises(ArgumentError, match=message):
                ols_simple(xs, ys)


class TestSummarize:
    def test_constant_vector(self):
        out = summarize([1.0, 1.0, 1.0, 1.0])
        assert out.sd == 0.0 and out.iqr == 0.0
        assert out.min == out.max == 1.0
        assert math.isnan(out.skewness)

    def test_two_values(self):
        out = summarize([0.0, 1.0])
        assert out.mean == 0.5
        assert out.sd == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert out.cv == pytest.approx(100.0 * math.sqrt(0.5) / 0.5, abs=1e-10)
        assert out.cv == pytest.approx(141.42, abs=0.01)

    def test_matches_naive_reference(self):
        for trial in range(100):
            stream = substream(400, trial)
            n = int(stream.integers(2, 60))
            values = stream.normal(scale=3.0, size=n) + stream.uniform(-5, 5)
            got = summarize(values).as_dict()
            want = naive_summary(values)
            for field, target in want.items():
                if math.isnan(target):
                    assert math.isnan(got[field])
                else:
                    assert got[field] == pytest.approx(target, abs=1e-10, rel=1e-10)
        # far from unit scale the moments neither overflow nor underflow,
        # and near the double limit neither do the median and quartiles:
        # the fields in the values' unit scale with them, the others not
        for scale, base in ((1e200, [1.0, -1.0, 3.0]), (1e-90, [1.0, 2.0, 4.0]),
                            (1e308, [-1.0, 1.0, 1.5]), (1e308, [1.0, 1.5])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = summarize([scale * b for b in base]).as_dict()
            for field, target in naive_summary(base).items():
                if field not in ("skewness", "kurtosis", "cv"):
                    target *= scale
                assert got[field] == pytest.approx(target, abs=0.0, rel=1e-12)
        # an sd beyond the double range (the true one is 2.4e308) is inf
        # with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = summarize([-1.7e308, 1.7e308])
        assert got.sd == math.inf
        assert (got.mean, got.median, got.iqr) == (0.0, 0.0, 1.7e308)

    def test_normal_sample_kurtosis_is_three(self):
        # the non-excess convention: a large normal sample scores ~3
        values = substream(41).normal(size=1_000_000)
        out = summarize(values)
        assert out.kurtosis == pytest.approx(3.0, abs=0.05)
        assert out.skewness == pytest.approx(0.0, abs=0.02)

    def test_zero_mean_makes_cv_missing(self):
        out = summarize([-1.0, 1.0])
        assert math.isnan(out.cv)

    def test_length_one_rejected(self):
        with pytest.raises(ArgumentError):
            summarize([1.0])
        # and a value that is not finite
        with pytest.raises(ArgumentError, match="must be finite"):
            summarize([1.0, np.nan, 2.0])


class TestStructuralSim:
    def test_deterministic(self):
        cfg = GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.CAUCHIT,
                        beta0=0.0, beta1=0.5, n=60)
        a = structural_sim(cfg, R=3, S=8, seed=2)
        b = structural_sim(cfg, R=3, S=8, seed=2)
        np.testing.assert_array_equal(a.theta_hats, b.theta_hats)
        np.testing.assert_array_equal(a.rho_hats, b.rho_hats)

    def test_r_squared_is_rho_squared(self):
        cfg = GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.CAUCHIT,
                        beta0=0.0, beta1=0.5, n=60)
        rep = structural_sim(cfg, R=4, S=10, seed=3)
        np.testing.assert_allclose(rep.r_squared, rep.rho_hats**2, atol=1e-12)

    def test_slope_lands_near_the_scaling_constant(self):
        cfg = GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.CAUCHIT,
                        beta0=0.0, beta1=0.5, n=199)
        rep = structural_sim(cfg, R=4, S=40, seed=5)
        assert np.all(np.isfinite(rep.theta_hats))
        assert 0.5 < np.median(rep.theta_hats) < 0.75
        assert np.median(rep.r_squared) > 0.95

    def test_intercept_truth_pairs_slopes(self):
        cfg = GenConfig(design=Gaussian(0.0, 1.0), truth_link=LinkKind.LOGIT,
                        beta0=0.4, beta1=1.0, n=150)
        rep = structural_sim(cfg, R=2, S=12, seed=6)
        assert np.all(np.isfinite(rep.theta_hats))

    def test_negating_x_negates_fits_exactly(self):
        """Both fitted slopes mirror exactly under x -> -x, so the
        probit-on-logit slope statistic is sign symmetric."""
        data = generate_dataset(EXAMPLE_ONE, seed=8, replicate=0)
        flipped = Dataset.univariate(-data.predictors[:, 0], data.response)
        for link in (LinkKind.LOGIT, LinkKind.PROBIT):
            spec = ModelSpec(link, intercept=False)
            a = fit_mle(spec, data).coefficients
            b = fit_mle(spec, flipped).coefficients
            np.testing.assert_array_equal(a, -b)

    def test_every_replicate_invalid_raises(self):
        """Two rows per dataset leave no replicate with a slope line."""
        cfg = GenConfig(design=Equispaced(0, 1), truth_link=LinkKind.CAUCHIT,
                        beta0=0.0, beta1=0.5, n=2)
        with pytest.raises(ExperimentError, match="every replicate was invalid"):
            structural_sim(cfg, R=1, S=3, seed=0)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            structural_sim(EXAMPLE_ONE, R=0, S=10, seed=0)
        with pytest.raises(ArgumentError):
            structural_sim(EXAMPLE_ONE, R=1, S=2, seed=0)


# (F, f) of the links of the structural study, written from scipy alone
ORACLE_LINKS = {
    "logit": lambda t: (special.expit(t), special.expit(t) * special.expit(-t)),
    "probit": lambda t: (special.ndtr(t), np.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)),
    "cauchit": lambda t: (0.5 + np.arctan(t) / math.pi, 1.0 / (math.pi * (1.0 + t * t))),
}


def first_order_theta(n, beta1=0.5):
    """theta_inf = (A_logit / A_probit) * (B_pl / B_ll), the first-order
    probit-on-logit slope of one-slope fits to a cauchit truth on n
    equispaced x in [0, 1] (Huber 1967; White 1982).  Each link's
    pseudo-true b* maximizes the expected log-likelihood, with y replaced
    by the true p; A is the expected information at b*, by central
    differences of the expected score, and B_jk = sum x^2 a_j a_k p(1 - p)
    with a = f / (F(1 - F)) at b* x."""
    x = np.linspace(0.0, 1.0, n)
    p = ORACLE_LINKS["cauchit"](beta1 * x)[0]

    def weight(link, b):
        F, f = ORACLE_LINKS[link](b * x)
        return F, f / (F * (1.0 - F))

    def expected_score(link, b):
        F, a = weight(link, b)
        return np.sum(x * a * (p - F))

    def pseudo_true(link):
        def loss(b):
            F = weight(link, b)[0]
            return -np.sum(p * np.log(F) + (1.0 - p) * np.log1p(-F))
        return optimize.minimize_scalar(loss, bounds=(1e-3, 10.0), method="bounded",
                                        options={"xatol": 1e-12}).x

    def information(link, b, h=1e-5):
        return (expected_score(link, b - h) - expected_score(link, b + h)) / (2.0 * h)

    b_logit, b_probit = pseudo_true("logit"), pseudo_true("probit")
    a_logit, a_probit = weight("logit", b_logit)[1], weight("probit", b_probit)[1]
    v = x * x * p * (1.0 - p)
    return (information("logit", b_logit) / information("probit", b_probit)
            * np.sum(v * a_probit * a_logit) / np.sum(v * a_logit * a_logit))


class TestStructuralOracle:
    def test_oracle_matches_the_tabulated_value(self):
        """The first-order slope of the default design, beta1 = 0.5."""
        assert round(first_order_theta(199), 4) == 0.6191

    def test_mean_slope_converges_to_the_first_order_slope(self):
        """The mean slope over R = 20 replicates of S = 100 datasets lies
        within 3 replicate standard errors of theta_inf at n = 1990, and its
        gap to theta_inf is at most a fifth of the gap at n = 199: that gap
        is an O(1/n) bias.  Over seeds 0-7 the n = 1990 gap was at most
        1.7 standard errors, and at least 7.6 times smaller than at
        n = 199."""
        gaps = {}
        for n in (199, 1990):
            cfg = GenConfig(design=Equispaced(0.0, 1.0), truth_link=LinkKind.CAUCHIT,
                            beta0=0.0, beta1=0.5, n=n)
            theta = structural_sim(cfg, R=20, S=100, seed=0).theta_hats
            gaps[n] = theta.mean() - first_order_theta(n)
        se = theta.std(ddof=1) / math.sqrt(theta.size)
        assert abs(gaps[1990]) <= 3.0 * se
        assert abs(gaps[1990]) <= abs(gaps[199]) / 5.0


GAUSSIAN_INTERCEPT = GenConfig(design=Gaussian(0.0, 1.0), truth_link=LinkKind.LOGIT,
                               beta0=0.4, beta1=1.0, n=80)


# two response rows over eight points, each with both classes
MIXED_ROWS = np.array([[0, 1, 0, 1, 1, 0, 1, 1], [1, 0, 0, 1, 0, 1, 1, 0]], dtype=float)


class TestStackedDraw:
    @pytest.mark.parametrize("cfg", [EXAMPLE_ONE, GAUSSIAN_INTERCEPT])
    def test_generate_dataset_is_row_zero(self, cfg):
        for r in (0, 3):
            x, y = _draw(cfg, 7, (r,), 5)
            data = generate_dataset(cfg, seed=7, replicate=r)
            np.testing.assert_array_equal(data.response, y[0])
            np.testing.assert_array_equal(data.predictors[:, 0],
                                          np.broadcast_to(x, y.shape)[0])
            assert not np.array_equal(y[0], y[1])

    def test_failed_row_dropped_pairwise(self):
        x, y = _draw(EXAMPLE_ONE, 3, (0,), 12)
        bad = y.copy()
        bad[4] = 0.0  # single-valued: both fits of this row fail
        with_bad = _slope_line(x[:, None], bad, intercept=False)
        without = _slope_line(x[:, None], np.delete(y, 4, axis=0), intercept=False)
        assert with_bad[4] == 1 and without[4] == 0
        assert with_bad[:4] == without[:4]

    def test_fewer_than_three_fitted_rows_give_nan(self):
        x = np.linspace(0.0, 1.0, 8)
        Y = np.vstack([MIXED_ROWS, np.zeros(8), np.ones(8), np.zeros(8)])
        out = _slope_line(x[:, None], Y, intercept=False)
        assert np.isnan(out[:4]).all() and out[4] == 3

    def test_zero_variance_logit_slopes_give_nan(self):
        """Identical rows give identical logit slopes, so the slope line
        is undefined; no row is dropped."""
        x = np.linspace(0.0, 1.0, 8)
        out = _slope_line(x[:, None], np.tile(MIXED_ROWS[0], (4, 1)), intercept=False)
        assert np.isnan(out[:4]).all() and out[4] == 0

    def test_matches_per_dataset_fits(self):
        """The stacked solves give the slopes of one fit_mle per row."""
        x, y = _draw(GAUSSIAN_INTERCEPT, 4, (1,), 10)
        theta, tau, _, _, dropped = _slope_line(x[..., None], y, intercept=True)
        slopes = {
            link: [fit_mle(ModelSpec(link), Dataset.univariate(x[s], y[s])).coefficients[-1]
                   for s in range(10)]
            for link in (LinkKind.LOGIT, LinkKind.PROBIT)
        }
        line = ols_simple(slopes[LinkKind.LOGIT], slopes[LinkKind.PROBIT])
        assert dropped == 0
        assert theta == pytest.approx(line.theta, abs=1e-9)
        assert tau == pytest.approx(line.tau, abs=1e-9)

    @pytest.mark.parametrize("cfg", [EXAMPLE_ONE, GAUSSIAN_INTERCEPT])
    def test_jobs_invariant(self, cfg):
        a = structural_sim(cfg, R=3, S=6, seed=9, jobs=1)
        b = structural_sim(cfg, R=3, S=6, seed=9, jobs=2)
        for field in ("theta_hats", "tau_hats", "rho_hats", "r_squared", "dropped"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def _real_data(n=48, seed=77):
    stream = substream(seed)
    x = stream.normal(size=(n, 2))
    eta = 0.4 + x @ np.array([1.0, -0.6])
    y = (stream.random(n) < cdf(LinkKind.LOGIT, eta)).astype(float)
    return Dataset(x, y)


class TestPredictiveSim:
    def test_paired_splits_across_link_sets(self):
        """The split sequence depends only on (seed, r), so a link's test
        errors do not change when other links join the comparison."""
        data = _real_data()
        plan = SplitPlan(replications=6, seed=21)
        alone = predictive_sim(data, [LinkKind.LOGIT], plan)
        together = predictive_sim(data, list(LinkKind), plan)
        np.testing.assert_array_equal(
            alone[LinkKind.LOGIT].values, together[LinkKind.LOGIT].values
        )

    def test_summary_recomputable_from_raw_values(self):
        data = _real_data()
        plan = SplitPlan(replications=8, seed=22)
        out = predictive_sim(data, [LinkKind.PROBIT], plan)
        report = out[LinkKind.PROBIT]
        valid = report.values[np.isfinite(report.values)]
        assert report.stats.mean == pytest.approx(summarize(valid).mean, abs=1e-15)

    def test_too_few_usable_replicates_raises(self):
        """With one positive, a training set without it is single-valued
        and its fit fails."""
        x = np.linspace(-1.0, 1.0, 12)
        data = Dataset.univariate(x, np.append(np.zeros(11), 1.0))
        with pytest.raises(ExperimentError, match="logit: fewer than 2 usable replicates"):
            predictive_sim(data, [LinkKind.LOGIT], SplitPlan(2, seed=2))

    def test_single_replicate_rejected(self):
        data = _real_data()
        with pytest.raises(ArgumentError):
            predictive_sim(data, [LinkKind.LOGIT], SplitPlan(replications=1, seed=0))


class TestIcCompare:
    def test_matches_information_criteria_formula(self):
        data = _real_data()
        plan = SplitPlan(replications=3, seed=30)
        out = ic_compare(data, [LinkKind.LOGIT], plan)
        from linkequiv import split as split_fn

        train, _ = split_fn(data, plan, 0)
        fitted = fit_mle(ModelSpec(LinkKind.LOGIT), train)
        recomputed = information_criteria(fitted, train.n)
        assert out[LinkKind.LOGIT].aic[0] == pytest.approx(recomputed["aic"], abs=1e-12)
        assert out[LinkKind.LOGIT].bic[0] == pytest.approx(recomputed["bic"], abs=1e-12)

    def test_equal_k_means_aic_orders_by_loglik(self):
        data = _real_data()
        plan = SplitPlan(replications=2, seed=31)
        out = ic_compare(data, list(LinkKind), plan)
        aics = np.array([out[k].aic[0] for k in LinkKind])
        from linkequiv import split as split_fn

        train, _ = split_fn(data, plan, 0)
        loglik = np.array(
            [fit_mle(ModelSpec(k), train).loglik for k in LinkKind]
        )
        np.testing.assert_array_equal(np.argsort(aics), np.argsort(-2.0 * loglik))

    def test_probit_and_logit_aic_are_close(self):
        data = _real_data(n=120)
        plan = SplitPlan(replications=4, seed=32)
        out = ic_compare(data, [LinkKind.PROBIT, LinkKind.LOGIT], plan)
        gap = np.abs(out[LinkKind.PROBIT].aic - out[LinkKind.LOGIT].aic)
        assert np.all(gap < 3.0)


def _thin_data():
    """Eleven negatives and one positive: every split that leaves the
    positive out of the training set gives a single-class training fit."""
    x = np.append(np.linspace(-1.0, 1.0, 11), 2.0)
    return Dataset.univariate(x, np.append(np.zeros(11), 1.0))


# probit and cauchit coefficients over logit ones, from which the paired
# pass starts those fits
LOGIT_FACTORS = {LinkKind.PROBIT: math.sqrt(math.pi / 8.0), LinkKind.CAUCHIT: math.pi / 4.0}


def loop_reference(data, links, plan, intercept):
    """The paired study one replicate and one link at a time: split, then
    a one-row ``fit._newton`` from a start derived here, then the test
    error, AIC and BIC of that fit.
    Logit is fitted first, from the linear-discriminant estimate of a
    one-row stack in a model with an intercept and from zero otherwise;
    probit and cauchit start at their factor times the logit coefficients
    where the logit fit converged, and at zero otherwise."""
    shape = (plan.replications, len(links))
    te, aic, bic = np.full(shape, np.nan), np.full(shape, np.nan), np.full(shape, np.nan)
    for r in range(plan.replications):
        train, test = split(data, plan, r)
        stack = fit_module._stack_input(intercept, train.predictors, train.response[None])
        _, Xt, sign = stack
        logit = None
        for link in sorted(links, key=lambda link: link is not LinkKind.LOGIT):
            j = links.index(link)
            spec = ModelSpec(link, intercept=intercept)
            k = spec.coefficient_count(train.p)
            start = np.zeros(k)
            if link is LinkKind.LOGIT and intercept:
                start = fit_module._discriminant_start(Xt, sign)[0]
            if link in LOGIT_FACTORS and logit is not None and logit.converged[0]:
                start = LOGIT_FACTORS[link] * logit.coefficients[0]
            fitted = fit_module._newton(link, stack, start[None])
            if link is LinkKind.LOGIT:
                logit = fitted
            if fitted.errors[0] is not None:
                continue
            ll = fitted.loglik[0]
            te[r, j] = zero_one_error(Classifier(spec, fitted.coefficients[0]), test)
            aic[r, j], bic[r, j] = 2.0 * k - 2.0 * ll, k * math.log(train.n) - 2.0 * ll
    return te, aic, bic


# the named arrays of the paired pass, in the order loop_reference returns them
PASS_ARRAYS = ("test_error", "aic", "bic")


class TestPairedPass:
    @pytest.mark.parametrize("data, intercept", [
        (_real_data(), True),
        (_real_data(), False),
        (_real_data(n=90, seed=78), True),
        (_thin_data(), True),
    ])
    def test_matches_loop_reference_bit_for_bit(self, data, intercept):
        plan = SplitPlan(replications=9, seed=40)
        links = list(LinkKind)
        got = _paired_pass(data, links, plan, intercept, jobs=1)
        for name, want in zip(PASS_ARRAYS, loop_reference(data, links, plan, intercept)):
            np.testing.assert_array_equal(got[name], want)

    @pytest.mark.parametrize("data", [_real_data(), _thin_data()])
    def test_stacks_hold_each_split_in_response_then_x_order(self, monkeypatch, data):
        """Every stack the paired block fits lists each split's training
        rows, exactly the first ceil(2n/3) of its stream's permutation,
        ordered by response and then by each predictor column."""
        plan = SplitPlan(replications=9, seed=40)
        stacks = []

        def recording_fit(links, intercept, predictors, responses):
            stacks.append((predictors, responses))
            return fit_module._fit_links(links, intercept, predictors, responses)

        monkeypatch.setattr(concord, "_fit_links", recording_fit)
        _paired_pass(data, list(LinkKind), plan, True, jobs=1)
        (P, Y), = stacks
        n_train = (2 * data.n + 2) // 3
        assert P.shape == (9, n_train, data.p) and Y.shape == (9, n_train)
        for r in range(9):
            rows = [(y, *x) for y, x in zip(Y[r].tolist(), P[r].tolist())]
            assert rows == sorted(rows)
            members = substream(plan.seed, r, "split").permutation(data.n)[:n_train]
            want = [(y, *x) for y, x in zip(data.response[members].tolist(),
                                           data.predictors[members].tolist())]
            assert rows == sorted(want)

    def test_failed_training_fit_is_nan_in_every_field(self):
        plan = SplitPlan(replications=9, seed=40)
        got = _paired_pass(_thin_data(), list(LinkKind), plan, True, jobs=1)
        failed = np.isnan(got["test_error"]).all(axis=1)
        assert 0 < failed.sum() < plan.replications
        for field in (got[name] for name in PASS_ARRAYS):
            assert np.isnan(field[failed]).all()
            assert np.isfinite(field[~failed]).all()

    @pytest.mark.parametrize("budget, blocks", [(1, 9), (3 * 32 * 3, 3)])
    def test_block_budget_cuts_blocks_not_results(self, monkeypatch, budget, blocks):
        """A smaller ``_BLOCK_ELEMENTS`` cuts the 9 replicates (32 training
        rows x 3 coefficients each) into more blocks, down to one
        replicate per block, and leaves every array unchanged."""
        data = _real_data()
        plan = SplitPlan(replications=9, seed=40)
        want = _paired_pass(data, list(LinkKind), plan, True, jobs=1)
        tasks_seen = []

        def recording_map(fn, tasks, jobs):
            tasks_seen.append(len(tasks))
            return replicate_map(fn, tasks, jobs=jobs)

        monkeypatch.setattr(concord, "_BLOCK_ELEMENTS", budget)
        monkeypatch.setattr(concord, "replicate_map", recording_map)
        got = _paired_pass(data, list(LinkKind), plan, True, jobs=1)
        assert tasks_seen == [blocks]
        for name in PASS_ARRAYS:
            np.testing.assert_array_equal(got[name], want[name])

    @pytest.mark.parametrize("harness, fields", [
        (predictive_sim, ("values",)),
        (ic_compare, ("aic", "bic")),
    ])
    def test_uneven_blocks_are_jobs_invariant(self, monkeypatch, harness, fields):
        """A budget of 4 or 3 replicates (32 training rows x 3 coefficients
        each) cuts R = 7 into blocks of 3 + 4 or 2 + 2 + 3 replicates; run
        through a real process pool at two and three jobs, every report
        array must match the one-process run."""
        data = _real_data()
        plan = SplitPlan(replications=7, seed=41)
        one = harness(data, list(LinkKind), plan, jobs=1)
        blocks_seen, pools_started = [], []

        def recording_map(fn, tasks, jobs):
            blocks_seen.append([len(task[-1]) for task in tasks])
            return replicate_map(fn, tasks, jobs=jobs)

        class RecordingPool(parallel.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools_started.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(concord, "replicate_map", recording_map)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        # replicate_map caps a pool at the usable CPUs, so a 3-worker pool
        # needs 3 of them whatever the host has
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 3)
        for budget in (4 * 96, 3 * 96):
            monkeypatch.setattr(concord, "_BLOCK_ELEMENTS", budget)
            for jobs in (2, 3):
                other = harness(data, list(LinkKind), plan, jobs=jobs)
                for link in LinkKind:
                    for field in fields:
                        np.testing.assert_array_equal(
                            getattr(other[link], field), getattr(one[link], field))
        assert blocks_seen == [[3, 4], [3, 4], [2, 2, 3], [2, 2, 3]]
        assert pools_started == [2, 2, 2, 3]
