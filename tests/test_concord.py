"""Classification, splitting, test error and sign-disagreement grids."""

import math

import numpy as np
import pytest

from linkequiv import (
    ArgumentError,
    Classifier,
    Dataset,
    DomainError,
    ExperimentError,
    LinkKind,
    ModelSpec,
    SplitPlan,
    average_test_error,
    cdf,
    classify,
    concordance_rate,
    predict_prob,
    sign_disagreement_grid,
    split,
    substream,
)
from linkequiv import test_error as zero_one_error

ALL_LINKS = list(LinkKind)


def clf(link, coefficients, intercept=True):
    return Classifier(ModelSpec(link, intercept=intercept), np.asarray(coefficients, float))


class TestPredictProb:
    def test_zero_coefficients_logit(self):
        c = clf(LinkKind.LOGIT, [0.0, 0.0])
        assert predict_prob(c, [17.3]) == 0.5

    def test_cauchit_intercept_one_slope_two(self):
        # at x = 0 the linear predictor is 1 and arctan(1) = pi/4
        c = clf(LinkKind.CAUCHIT, [1.0, 2.0])
        assert predict_prob(c, [0.0]) == pytest.approx(0.75, abs=1e-15)

    def test_compit_at_zero(self):
        c = clf(LinkKind.COMPIT, [0.0], intercept=False)
        assert predict_prob(c, [5.0]) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_dimension_mismatch(self):
        c = clf(LinkKind.LOGIT, [0.0, 1.0])
        with pytest.raises(ArgumentError):
            predict_prob(c, [1.0, 2.0])

    def test_too_few_coefficients_rejected(self):
        """An intercept model needs its intercept; a model without one
        may have no coefficient at all."""
        with pytest.raises(ArgumentError):
            clf(LinkKind.LOGIT, [])
        assert clf(LinkKind.LOGIT, [], intercept=False).n_features == 0
        # and the coefficients must be a finite vector
        with pytest.raises(ArgumentError, match="must be a vector"):
            clf(LinkKind.LOGIT, [[0.0, 1.0]])
        with pytest.raises(ArgumentError, match="must be finite"):
            clf(LinkKind.LOGIT, [0.0, np.inf])

    def test_overflowing_eta_raises_without_a_warning(self):
        # the suite turns every warning into an error
        c = clf(LinkKind.LOGIT, [0.0, 1e10, 1e10])
        with pytest.raises(DomainError):
            predict_prob(c, [1e300, 1e300])


class TestClassify:
    def test_positive_eta_classifies_one(self):
        for link in [LinkKind.PROBIT, LinkKind.LOGIT, LinkKind.CAUCHIT]:
            c = clf(link, [1.0], intercept=False)
            assert classify(c, [0.4]) == 1
            assert classify(c, [-0.4]) == 0

    def test_compit_threshold_is_its_median(self):
        # compit crosses one half at eta = log(log 2) ~ -0.3665
        c = clf(LinkKind.COMPIT, [1.0], intercept=False)
        assert classify(c, [-0.5]) == 0
        assert classify(c, [-0.2]) == 1

    def test_boundary_probability_maps_to_one(self):
        c = clf(LinkKind.LOGIT, [0.0], intercept=False)
        assert predict_prob(c, [1.0]) == 0.5
        assert classify(c, [1.0]) == 1

    def test_positive_scaling_never_changes_labels_symmetric(self):
        """Scaling the coefficients by any positive factor leaves every
        label unchanged for links whose median sits at zero."""
        stream = substream(6)
        symmetric = [LinkKind.PROBIT, LinkKind.LOGIT, LinkKind.CAUCHIT]
        for trial in range(21):
            link = symmetric[trial % 3]
            beta = stream.normal(size=3)
            lam = float(stream.uniform(0.01, 50.0))
            points = stream.normal(size=(200, 2))
            a = classify(clf(link, beta), points)
            b = classify(clf(link, beta * lam), points)
            np.testing.assert_array_equal(a, b)

    def test_compit_scaling_moves_the_threshold(self):
        """The compit median is log(log 2) < 0, so its x-space decision
        boundary eta = log(log 2) is not scale invariant: doubling the
        coefficients flips points between the old and new thresholds."""
        c1 = clf(LinkKind.COMPIT, [1.0], intercept=False)
        c2 = clf(LinkKind.COMPIT, [2.0], intercept=False)
        assert classify(c1, [-0.3]) == 1
        assert classify(c2, [-0.3]) == 0

    def test_symmetric_links_depend_only_on_sign_of_eta(self):
        stream = substream(7)
        beta = np.array([0.3, -1.2, 0.8])
        points = stream.normal(size=(500, 2))
        eta = beta[0] + points @ beta[1:]
        want = (eta >= 0).astype(int)
        for link in [LinkKind.PROBIT, LinkKind.LOGIT, LinkKind.CAUCHIT]:
            np.testing.assert_array_equal(classify(clf(link, beta), points), want)


class TestTestError:
    def test_perfect_and_flipped(self):
        x = np.linspace(-2, 2, 12)
        y = (x > 0).astype(float)
        c = clf(LinkKind.LOGIT, [5.0], intercept=False)
        assert zero_one_error(c, Dataset.univariate(x, y)) == 0.0
        assert zero_one_error(c, Dataset.univariate(x, 1.0 - y)) == 1.0

    def test_fraction_counts(self):
        x = np.linspace(-2, 2, 12)
        y = (x > 0).astype(float)
        y[:3] = 1.0 - y[:3]  # 3 of 12 now disagree with the sign rule
        c = clf(LinkKind.LOGIT, [5.0], intercept=False)
        assert zero_one_error(c, Dataset.univariate(x, y)) == 0.25

    def test_complement_labels_sum_to_one(self):
        stream = substream(8)
        x = stream.normal(size=20)
        y = (stream.random(20) < 0.5).astype(float)
        c = clf(LinkKind.PROBIT, [0.7, -0.2])
        data = Dataset.univariate(x, y)
        comp = Dataset.univariate(x, 1.0 - y)
        assert zero_one_error(c, data) + zero_one_error(c, comp) == pytest.approx(1.0, abs=1e-12)


class TestSplit:
    def test_two_thirds_of_nine(self):
        # every split of n rows trains on ceil(2n/3) of them and tests on the rest
        for n in (3, 4, 5, 9, 10, 11, 500, 50_001):
            data = Dataset.univariate(np.arange(float(n)), np.arange(n) % 2)
            train, test = split(data, SplitPlan(replications=1, seed=0), 0)
            assert train.n == (2 * n + 2) // 3 and test.n >= 1, n
            assert train.n + test.n == n, n

    def test_deterministic_partition(self):
        data = Dataset.univariate(np.arange(10.0), [0, 1] * 5)
        plan = SplitPlan(replications=4, seed=42)
        a = split(data, plan, 2)
        b = split(data, plan, 2)
        np.testing.assert_array_equal(a[0].predictors, b[0].predictors)
        np.testing.assert_array_equal(a[1].predictors, b[1].predictors)

    def test_partition_is_disjoint_and_complete(self):
        data = Dataset.univariate(np.arange(11.0), [0, 1] * 5 + [0])
        plan = SplitPlan(replications=1, seed=3)
        train, test = split(data, plan, 0)
        combined = np.sort(np.concatenate([train.predictors[:, 0], test.predictors[:, 0]]))
        np.testing.assert_array_equal(combined, np.arange(11.0))

    def test_too_small_rejected(self):
        data = Dataset.univariate([1.0, 2.0], [0, 1])
        with pytest.raises(ArgumentError):
            split(data, SplitPlan(replications=1, seed=0), 0)

    def test_each_index_equally_likely_in_test(self):
        """Across many replicates every row lands in the test third with
        frequency n_test/n.  With n = 9 that is exactly 1/3."""
        n = 9
        data = Dataset.univariate(np.arange(float(n)), [0, 1] * 4 + [0])
        plan = SplitPlan(replications=10000, seed=17)
        counts = np.zeros(n)
        for r in range(10000):
            _, test = split(data, plan, r)
            counts[test.predictors[:, 0].astype(int)] += 1
        freq = counts / 10000
        assert np.all(np.abs(freq - 1.0 / 3.0) <= 0.02)

    def test_frequency_matches_ceiling_arithmetic_at_n_ten(self):
        # ceil(2/3 * 10) = 7 train rows, so the test frequency is 3/10
        n = 10
        data = Dataset.univariate(np.arange(float(n)), [0, 1] * 5)
        plan = SplitPlan(replications=4000, seed=18)
        counts = np.zeros(n)
        for r in range(4000):
            _, test = split(data, plan, r)
            counts[test.predictors[:, 0].astype(int)] += 1
        assert np.all(np.abs(counts / 4000 - 0.3) <= 0.025)


class TestAverageTestError:
    @staticmethod
    def _data(n=40, seed=5):
        stream = substream(seed)
        x = stream.normal(size=n)
        y = (stream.random(n) < cdf(LinkKind.LOGIT, 1.2 * x)).astype(float)
        return Dataset.univariate(x, y)

    def test_single_replicate_equals_one_test_error(self):
        data = self._data()
        plan = SplitPlan(replications=1, seed=9)
        out = average_test_error(ModelSpec(LinkKind.LOGIT), data, plan)
        assert out.per_replicate.shape == (1,)
        assert out.ate == out.per_replicate[0]

    def test_ate_is_mean_of_valid_replicates(self):
        data = self._data()
        plan = SplitPlan(replications=7, seed=10)
        out = average_test_error(ModelSpec(LinkKind.PROBIT), data, plan)
        valid = out.per_replicate[np.isfinite(out.per_replicate)]
        assert out.ate == pytest.approx(valid.mean(), abs=1e-15)
        assert out.n_failed == out.per_replicate.size - valid.size

    def test_requires_both_classes(self):
        data = Dataset.univariate(np.arange(6.0), np.ones(6))
        with pytest.raises(ArgumentError):
            average_test_error(
                ModelSpec(LinkKind.LOGIT), data, SplitPlan(replications=2, seed=0)
            )
        # both replicates of this plan put the one positive row in the test
        # set, so every training fit fails
        data = Dataset.univariate(np.arange(6.0), [0, 0, 0, 0, 0, 1])
        with pytest.raises(ExperimentError, match="every replicate failed"):
            average_test_error(
                ModelSpec(LinkKind.LOGIT), data, SplitPlan(replications=2, seed=4)
            )


class TestConcordanceRate:
    def test_proportional_probit_logit_never_disagree(self):
        stream = substream(12)
        beta = stream.normal(size=4)
        lam = 0.6266570686577501
        points = stream.normal(size=(5000, 3))
        a = clf(LinkKind.LOGIT, beta)
        b = clf(LinkKind.PROBIT, lam * beta)
        assert concordance_rate(a, b, points) == 0.0

    def test_identical_classifiers(self):
        c = clf(LinkKind.CAUCHIT, [0.5, -1.0])
        points = substream(13).normal(size=(100, 1))
        assert concordance_rate(c, c, points) == 0.0

    def test_negated_coefficients_disagree_everywhere(self):
        stream = substream(14)
        beta = np.array([0.0, 1.3])
        points = stream.normal(size=(400, 1)) + 0.01  # keep eta away from 0
        a = clf(LinkKind.LOGIT, beta)
        b = clf(LinkKind.LOGIT, -beta)
        assert concordance_rate(a, b, points) == 1.0

    def test_symmetric_in_arguments(self):
        stream = substream(15)
        a = clf(LinkKind.COMPIT, stream.normal(size=3))
        b = clf(LinkKind.LOGIT, stream.normal(size=3))
        points = stream.normal(size=(300, 2))
        assert concordance_rate(a, b, points) == concordance_rate(b, a, points)

    @pytest.mark.parametrize("points", [[1.0, 2.0], np.empty((0, 1))], ids=["vector", "empty"])
    def test_points_must_be_a_non_empty_matrix(self, points):
        c = clf(LinkKind.LOGIT, [0.0, 1.0])
        with pytest.raises(ArgumentError, match="non-empty matrix"):
            concordance_rate(c, c, points)


class TestSignDisagreementGrid:
    def test_symmetric_links_never_disagree(self):
        m = sign_disagreement_grid(
            [LinkKind.PROBIT, LinkKind.LOGIT, LinkKind.CAUCHIT], -15.0, 15.0, 4001
        )
        np.testing.assert_array_equal(m.rates, np.zeros((3, 3)))

    def test_compit_rate_equals_grid_count(self):
        s = 10000
        m = sign_disagreement_grid(list(LinkKind), -15.0, 15.0, s)
        grid = np.linspace(-15.0, 15.0, s)
        threshold = math.log(math.log(2.0))
        expected = np.sum((grid > threshold) & (grid < 0.0)) / s
        i = m.links.index(LinkKind.COMPIT)
        j = m.links.index(LinkKind.LOGIT)
        assert m.rates[i, j] == expected
        assert m.rates[i, i] == 0.0

    def test_matrix_is_symmetric(self):
        m = sign_disagreement_grid(list(LinkKind), -3.0, 3.0, 501)
        np.testing.assert_array_equal(m.rates, m.rates.T)

    def test_two_point_grid(self):
        m = sign_disagreement_grid([LinkKind.LOGIT, LinkKind.COMPIT], -1.0, 1.0, 2)
        assert m.rates.shape == (2, 2)

    def test_single_link(self):
        m = sign_disagreement_grid([LinkKind.PROBIT], -15.0, 15.0, 100)
        np.testing.assert_array_equal(m.rates, np.zeros((1, 1)))

    def test_uniform_random_mode_is_seeded(self):
        a = sign_disagreement_grid(list(LinkKind), -15.0, 15.0, 2000,
                                   mode="uniform_random", seed=4)
        b = sign_disagreement_grid(list(LinkKind), -15.0, 15.0, 2000,
                                   mode="uniform_random", seed=4)
        np.testing.assert_array_equal(a.rates, b.rates)
        # the disagreement band has width |log log 2| out of 30
        i = a.links.index(LinkKind.COMPIT)
        j = a.links.index(LinkKind.LOGIT)
        assert abs(a.rates[i, j] - abs(math.log(math.log(2.0))) / 30.0) < 0.01

    def test_invalid_arguments(self):
        with pytest.raises(ArgumentError):
            sign_disagreement_grid(list(LinkKind), 2.0, -2.0, 100)
        with pytest.raises(ArgumentError):
            sign_disagreement_grid(list(LinkKind), -2.0, 2.0, 1)
        with pytest.raises(ArgumentError, match="s must be an integer"):
            sign_disagreement_grid(list(LinkKind), 0.0, 1.0, 2.5)
        with pytest.raises(ArgumentError):
            sign_disagreement_grid(list(LinkKind), -2.0, 2.0, 100, mode="bogus")
        with pytest.raises(ArgumentError, match="at least one link"):
            sign_disagreement_grid([], -2.0, 2.0, 100)
        # a < b, but b - a overflows
        for mode in ("equispaced", "uniform_random"):
            with pytest.raises(ArgumentError):
                sign_disagreement_grid(list(LinkKind), -1e308, 1e308, 100, mode=mode)
