"""Closed-form estimators: hand values, proportionality and sign laws."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkequiv import (
    ArgumentError,
    Dataset,
    DegenerateSampleError,
    LinkKind,
    ModelSpec,
    UnivariateSample,
    beta_cf_cauchit,
    beta_cf_logit,
    beta_cf_probit,
    cdf,
    fit_mle,
    ratio_identities,
    shared_kernel,
    substream,
)

C1 = 0.797885
C2 = 0.31831


def sample(x, y):
    return UnivariateSample(np.asarray(x, float), np.asarray(y, float))


class TestSharedKernel:
    def test_hand_values(self):
        assert shared_kernel(sample([1.0, -1.0], [1, 0])) == pytest.approx(1.0, abs=1e-15)
        assert shared_kernel(sample([1.0, 2.0, -1.0], [1, 0, 0])) == pytest.approx(
            0.0, abs=1e-15
        )
        assert shared_kernel(sample([2.0], [1])) == pytest.approx(0.5, abs=1e-15)
        # x whose squares overflow: 3e200 / 5e400
        assert shared_kernel(sample([1e200, -2e200], [1, 0])) == pytest.approx(
            6e-201, abs=0.0, rel=1e-15
        )

    def test_all_zero_x_rejected(self):
        with pytest.raises(DegenerateSampleError):
            sample([0.0, 0.0], [1, 0])
        # nonzero x whose every square underflows is no degenerate sample:
        # its kernel is the exact one, and beyond the double range it is
        # -inf, with no warning either way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in (([1e-200, -1e-200], [1, 0]), ([1e-300, -2e-300, 3e-300], [1, 0, 1])):
                exact = sum(Fraction(a) * (2 * b - 1) for a, b in zip(x, y)) / sum(
                    Fraction(a) ** 2 for a in x
                )
                assert shared_kernel(sample(x, y)) == float(exact)
            assert shared_kernel(sample([5e-324, 1e-323], [1, 0])) == -math.inf

    def test_bad_response_rejected(self):
        with pytest.raises(ArgumentError):
            sample([1.0, 2.0], [1, 2])
        with pytest.raises(ArgumentError, match="equal length"):
            sample([1.0, 2.0], [1])
        for x in ([], [[1.0, 2.0]]):
            with pytest.raises(ArgumentError, match="non-empty vector"):
                sample(x, np.ones(np.shape(x)))


class TestClosedForms:
    def test_logit_doubles_kernel(self):
        s = sample([1.0, -1.0], [1, 0])
        assert beta_cf_logit(s) == pytest.approx(2.0, abs=1e-15)
        assert beta_cf_logit(sample([2.0], [1])) == pytest.approx(1.0, abs=1e-15)

    def test_zero_kernel_gives_zero(self):
        s = sample([1.0, 2.0, -1.0], [1, 0, 0])
        assert beta_cf_logit(s) == 0.0
        assert beta_cf_probit(s) == 0.0
        assert beta_cf_cauchit(s) == 0.0

    def test_probit_constant(self):
        s = sample([1.0, -1.0], [1, 0])
        assert beta_cf_probit(s) == pytest.approx(C1 / (2 * C2), abs=1e-12)
        assert beta_cf_probit(s) == pytest.approx(1.2533, abs=1e-4)

    def test_cauchit_constant(self):
        s = sample([1.0, -1.0], [1, 0])
        assert beta_cf_cauchit(s) == pytest.approx(math.pi / 2.0, abs=1e-15)


class TestRatioIdentities:
    def test_values(self):
        out = ratio_identities()
        assert out["probit_over_logit"] == pytest.approx(C1 / (4 * C2), abs=0)
        assert out["probit_over_logit"] == pytest.approx(0.62666, abs=1e-5)
        assert out["cauchit_over_logit"] == math.pi / 4.0
        assert out["cauchit_over_logit"] == pytest.approx(0.78540, abs=1e-5)

    def test_probit_ratio_is_the_logistic_normal_scale(self):
        # c1 = sqrt(2/pi) and c2 = 1/pi make c1/(4 c2) = sqrt(pi/8)
        out = ratio_identities()
        assert abs(out["probit_over_logit"] - math.sqrt(math.pi / 8.0)) <= 2e-5

    @given(
        xs=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30
        ),
        ys=st.lists(st.integers(min_value=0, max_value=1), min_size=30, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_proportionality_on_arbitrary_samples(self, xs, ys):
        x = np.asarray(xs, float)
        y = np.asarray(ys[: len(xs)], float)
        if float(np.sum(x * x)) == 0.0:
            return
        s = sample(x, y)
        kernel = shared_kernel(s)
        if abs(kernel) < 1e-8:
            return
        assert beta_cf_probit(s) / beta_cf_logit(s) == pytest.approx(
            C1 / (4 * C2), abs=1e-12
        )
        assert beta_cf_cauchit(s) / beta_cf_logit(s) == pytest.approx(
            math.pi / 4.0, abs=1e-12
        )

    @given(
        xs=st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=30
        ),
        ys=st.lists(st.integers(min_value=0, max_value=1), min_size=30, max_size=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_flipping_labels_negates_exactly(self, xs, ys):
        x = np.asarray(xs, float)
        y = np.asarray(ys[: len(xs)], float)
        if float(np.sum(x * x)) == 0.0:
            return
        flipped = sample(x, 1.0 - y)
        assert beta_cf_logit(flipped) == -beta_cf_logit(sample(x, y))
        assert beta_cf_probit(flipped) == -beta_cf_probit(sample(x, y))
        assert beta_cf_cauchit(flipped) == -beta_cf_cauchit(sample(x, y))


class TestTaylorRegime:
    def test_tracks_mle_for_small_signals(self):
        """Where the true slope keeps |beta*x| small, the closed form and
        the MLE agree to a few percent and share sign."""
        for trial in range(4):
            stream = substream(31, trial)
            x = stream.uniform(-1.0, 1.0, 2000)
            y = (stream.random(2000) < cdf(LinkKind.LOGIT, 0.25 * x)).astype(float)
            s = sample(x, y)
            mle = fit_mle(
                ModelSpec(LinkKind.LOGIT, intercept=False), Dataset.univariate(x, y)
            ).coefficients[0]
            cf = beta_cf_logit(s)
            assert abs(cf - mle) / abs(mle) <= 0.05
            assert math.copysign(1.0, cf) == math.copysign(1.0, mle)
            assert math.copysign(1.0, beta_cf_probit(s)) == math.copysign(1.0, mle)
            assert math.copysign(1.0, beta_cf_cauchit(s)) == math.copysign(1.0, mle)
