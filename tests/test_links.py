"""Link-function values, inverses, densities and their shared identities."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc, ndtri

from linkequiv import (
    CLAMP_EPS,
    DomainError,
    LinkKind,
    cdf,
    density,
    density_prime,
    logistic_normal_scale,
    quantile,
)
from linkequiv.links import _LOG_TERMS, _PROBIT_DEEP, _WEIGHTS

ALL_LINKS = list(LinkKind)
SYMMETRIC = [LinkKind.PROBIT, LinkKind.LOGIT, LinkKind.CAUCHIT]


def simpson_normal_cdf(u, lo=-13.0, n=26001):
    """Quadrature oracle for the standard normal CDF, independent of the
    erfc-based implementation.  Simpson error here is far below 1e-13."""
    xs = np.linspace(lo, u, n)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = (u - lo) / (n - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def bisect_normal_quantile(v, tol=1e-12):
    """Inverse of the quadrature oracle, by bisection."""
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if simpson_normal_cdf(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLinkKind:
    def test_names_round_trip(self):
        for link in ALL_LINKS:
            assert LinkKind(link.value) is link
            assert str(link) == link.value

    def test_expected_members(self):
        assert [k.value for k in LinkKind] == ["probit", "compit", "cauchit", "logit"]


class TestCdf:
    def test_logit_at_zero(self):
        assert cdf(LinkKind.LOGIT, 0.0) == 0.5

    def test_compit_at_zero(self):
        assert cdf(LinkKind.COMPIT, 0.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_cauchit_at_one(self):
        # arctan(1) = pi/4 forces exactly three quarters
        assert cdf(LinkKind.CAUCHIT, 1.0) == pytest.approx(0.75, abs=1e-15)

    def test_probit_against_quadrature(self):
        for u in [-3.0, -1.0, 0.3, 1.6449, 2.5, 4.0]:
            assert abs(cdf(LinkKind.PROBIT, u) - simpson_normal_cdf(u)) <= 1e-12
        assert cdf(LinkKind.PROBIT, 1.6449) == pytest.approx(0.95, abs=1e-4)

    def test_clamped_to_open_interval(self):
        for link in ALL_LINKS:
            lo = cdf(link, -500.0)
            hi = cdf(link, 500.0)
            assert CLAMP_EPS <= lo < hi <= 1.0 - CLAMP_EPS

    def test_rejects_non_finite(self):
        for bad in [math.nan, math.inf, -math.inf]:
            with pytest.raises(DomainError):
                cdf(LinkKind.LOGIT, bad)

    def test_array_input(self):
        out = cdf(LinkKind.LOGIT, np.array([-1.0, 0.0, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 0.5


class TestQuantile:
    def test_logit_median(self):
        assert quantile(LinkKind.LOGIT, 0.5) == 0.0

    def test_cauchit_upper_quartile(self):
        assert quantile(LinkKind.CAUCHIT, 0.75) == pytest.approx(1.0, abs=1e-12)

    def test_compit_median(self):
        # solving 1 - exp(-exp(u)) = 1/2 gives u = log(log 2)
        assert quantile(LinkKind.COMPIT, 0.5) == pytest.approx(
            math.log(math.log(2.0)), abs=1e-14
        )

    def test_probit_against_bisection_oracle(self):
        for v in [0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999]:
            assert abs(quantile(LinkKind.PROBIT, v) - bisect_normal_quantile(v)) <= 1e-10

    def test_rejects_out_of_range(self):
        for link in ALL_LINKS:
            for bad in [0.0, 1.0, -0.2, 1.3]:
                with pytest.raises(DomainError):
                    quantile(link, bad)


class TestDensity:
    def test_cauchit_at_zero(self):
        # the constant 0.31831 ~ 1/pi that scales the cauchit expansion
        assert density(LinkKind.CAUCHIT, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-15)
        assert density(LinkKind.CAUCHIT, 0.0) == pytest.approx(0.31831, abs=5e-6)

    def test_probit_at_zero(self):
        assert density(LinkKind.PROBIT, 0.0) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-15
        )

    def test_logit_at_zero(self):
        assert density(LinkKind.LOGIT, 0.0) == 0.25

    def test_matches_cdf_slope(self):
        """Central finite differences of the CDF reproduce the density to
        1e-6 relative wherever the CDF varies resolvably (density above
        1e-4; beyond that the float spacing of CDF values near 0 or 1
        swamps the quotient)."""
        h = 3e-5
        grid = np.linspace(-6.0, 6.0, 241)
        for link in ALL_LINKS:
            f = density(link, grid)
            keep = f >= 1e-4
            fd = (cdf(link, grid[keep] + h) - cdf(link, grid[keep] - h)) / (2.0 * h)
            np.testing.assert_allclose(fd, f[keep], rtol=1e-6)

    def test_density_prime_matches_density_slope(self):
        h = 3e-5
        grid = np.linspace(-5.0, 5.0, 101)
        for link in ALL_LINKS:
            fp = density_prime(link, grid)
            fd = (density(link, grid + h) - density(link, grid - h)) / (2.0 * h)
            np.testing.assert_allclose(fd, fp, rtol=1e-5, atol=1e-10)


def _oracle_compit_density(u):
    t = np.minimum(u, 700.0)
    return np.exp(t - np.exp(t))


def _oracle_compit_density_prime(u):
    t = np.minimum(u, 700.0)
    return np.exp(t - np.exp(t)) * (1.0 - np.exp(t))


def _oracle_logit_cdf(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def _oracle_logit_density_prime(u):
    lam = _oracle_logit_cdf(u)
    return lam * (1.0 - lam) * (1.0 - 2.0 * lam)


# one-line formulas for F (before the clamp), f, f' and g = F^-1, each
# evaluated on its own; the link layer shares intermediates between f and
# f', and must still reproduce every one of these values bit for bit
ORACLE = {
    "cdf": {
        LinkKind.PROBIT: lambda u: 0.5 * erfc(-u / math.sqrt(2.0)),
        LinkKind.COMPIT: lambda u: -np.expm1(-np.exp(np.minimum(u, 700.0))),
        LinkKind.CAUCHIT: lambda u: np.arctan(u) / math.pi + 0.5,
        LinkKind.LOGIT: _oracle_logit_cdf,
    },
    "density": {
        LinkKind.PROBIT: lambda u: 1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * u * u),
        LinkKind.COMPIT: _oracle_compit_density,
        LinkKind.CAUCHIT: lambda u: 1.0 / (math.pi * (1.0 + u * u)),
        LinkKind.LOGIT: lambda u: _oracle_logit_cdf(u) * (1.0 - _oracle_logit_cdf(u)),
    },
    "density_prime": {
        LinkKind.PROBIT: lambda u: -u * (1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * u * u)),
        LinkKind.COMPIT: _oracle_compit_density_prime,
        LinkKind.CAUCHIT: lambda u: -2.0 * u / (math.pi * (1.0 + u * u) ** 2),
        LinkKind.LOGIT: _oracle_logit_density_prime,
    },
    "quantile": {
        LinkKind.PROBIT: ndtri,
        LinkKind.COMPIT: lambda v: np.log(-np.log1p(-v)),
        LinkKind.CAUCHIT: lambda v: np.tan(math.pi * (v - 0.5)),
        LinkKind.LOGIT: lambda v: np.log(v) - np.log1p(-v),
    },
}
FUNCTIONS = {"cdf": cdf, "density": density, "density_prime": density_prime,
             "quantile": quantile}


def _oracle(name, link, x):
    out = ORACLE[name][link](np.asarray(x, dtype=float))
    if name == "cdf":
        out = np.clip(out, CLAMP_EPS, 1.0 - CLAMP_EPS)
    return out


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# the body, both clamp tails, both sides of the probit log term's hand-off
# from erfc to log_ndtr, the compit exp() cap near 700, overflow of u*u
# and exp() out to |u| = 1e300, and the cauchit 1/|t| at zero and where
# it overflows (|t| of 1e-310 and below)
U_GRID = np.concatenate([
    np.linspace(-40.0, 40.0, 321),
    [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e-8, 3.54, 7.94, 8.3, 37.5, 38.5, 1e300],
    [np.nextafter(_PROBIT_DEEP, 0.0), _PROBIT_DEEP, np.nextafter(_PROBIT_DEEP, -np.inf)],
    [699.0, 700.0, 700.5, 709.7, 709.8, 710.0, 1e4],
    np.logspace(-3.0, 300.0, 61),
])
U_GRID = np.concatenate([U_GRID, -U_GRID])
# both ends of the open unit interval, down to subnormals
V_GRID = np.concatenate([
    np.linspace(0.001, 0.999, 199),
    np.logspace(-323.0, -1.0, 81),
    1.0 - np.logspace(-16.0, -1.0, 31),
    [np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), 0.5],
])


class TestMatchesOracleBitForBit:
    @pytest.mark.parametrize("name", ["cdf", "density", "density_prime", "quantile"])
    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_array_and_scalar_input(self, name, link):
        fn = FUNCTIONS[name]
        grid = V_GRID if name == "quantile" else U_GRID
        with np.errstate(all="ignore"):
            out = fn(link, grid)
            assert isinstance(out, np.ndarray) and out.shape == grid.shape
            assert _bits(out) == _bits(_oracle(name, link, grid))
            block = grid[: grid.size // 2 * 2].reshape(2, -1)
            assert _bits(fn(link, block)) == _bits(_oracle(name, link, block))
            for x in grid:
                value = fn(link, float(x))
                assert type(value) is float
                assert _bits(value) == _bits(_oracle(name, link, float(x))), x


def _probit_far(x, y):
    """Term, score weight and information weight of a probit observation
    with |x| >= 1e4, from the asymptotic Mills ratio
    R(z) = (1 - 1/z^2 + 3/z^4 - 15/z^6 + 105/z^8)/z, relative error below
    1e-30 there, so that lam + t = (1 - zR)/R needs no cancelling sum."""
    t = x if y else -x
    z = abs(t)
    inv2 = 1 / z**2
    R = (1 - inv2 * (1 - inv2 * (3 - inv2 * (15 - 105 * inv2)))) / z
    if t < 0:
        lam = 1 / R
        term = -z * z / 2 - mp.log(2 * mp.pi) / 2 + mp.log(R)
        w = lam * inv2 * (1 - inv2 * (3 - inv2 * (15 - 105 * inv2))) / R
    else:
        tail = mp.npdf(z) * R
        lam = mp.npdf(z) / (1 - tail)
        term = mp.log1p(-tail)
        w = lam * (lam + t)
    return term, (lam if y else -lam), w


def _exact_terms(link, x, y):
    """log-likelihood term, score weight dl/deta and information weight
    -d2l/deta2 of one observation, from F, 1 - F, f and f' in mpmath.
    Working precision is 50 digits plus what the cancellations in these
    formulas eat: 2*log10|x| digits in the probit lam*(lam + x), and
    0.44*|x| digits where a logit or compit F or 1 - F is exp(-|x|)
    against 1; beyond |x| = 800 those values underflow whatever their
    digits."""
    if link is LinkKind.COMPIT:
        x = min(x, 700.0)  # the exp() cap of the link layer
    if link is LinkKind.PROBIT and abs(x) >= 1e4:
        with mp.workdps(50):
            return _probit_far(mp.mpf(x), y)
    extra = 0.0
    if link is LinkKind.PROBIT:
        extra = 2 * math.log10(1 + abs(x))
    elif link is not LinkKind.CAUCHIT and abs(x) <= 800:
        extra = 0.44 * abs(x)
    with mp.workdps(51 + int(extra)):
        x = mp.mpf(x)
        if link is LinkKind.PROBIT:
            F, Q, f = mp.ncdf(x), mp.ncdf(-x), mp.npdf(x)
            fp = -x * f
        elif link is LinkKind.COMPIT:
            e = mp.exp(x)
            F, Q, f = -mp.expm1(-e), mp.exp(-e), mp.exp(x - e)
            fp = f * (1 - e)
        elif link is LinkKind.CAUCHIT:
            F, Q = mp.atan2(1, -x) / mp.pi, mp.atan2(1, x) / mp.pi
            f, fp = 1 / (mp.pi * (1 + x * x)), -2 * x / (mp.pi * (1 + x * x) ** 2)
        else:
            F, Q = 1 / (1 + mp.exp(-x)), 1 / (1 + mp.exp(x))
            f = F * Q
            fp = f * (Q - F)
        if y:
            term = mp.log(F) if F < 0.5 else mp.log1p(-Q)
            return term, f / F, (f / F) ** 2 - fp / F
        term = mp.log(Q) if Q < 0.5 else mp.log1p(-F)
        return term, -f / Q, (f / Q) ** 2 + fp / Q


_SMALLEST_NORMAL = np.finfo(float).tiny


def _mismatch(value, exact, rtol):
    """Whether a float misses the exact value by more than rtol relative.
    Outside the double range, the overflowed infinity of the right sign is
    accepted above it, and any value within the smallest normal of it
    below it."""
    if abs(exact) > np.finfo(float).max:
        return not (np.isinf(value) and (value > 0) == (exact > 0))
    if abs(exact) < _SMALLEST_NORMAL:
        return abs(value - float(exact)) > _SMALLEST_NORMAL
    return abs(mp.mpf(value) - exact) > rtol * abs(exact)


class TestLogTermsAgainstMpmath:
    """The solver's per-observation log-likelihood term and its two eta
    derivatives, exact in both tails on U_GRID out to |eta| = 1e300: no
    clamp, no log(0), no cancellation.  The largest relative error is
    about 2.3e-13, at the probit term in its upper tail, where the
    exp(-x^2) inside erfc amplifies the rounding of x^2."""

    @pytest.mark.parametrize("y", [1, 0])
    @pytest.mark.parametrize("link", ALL_LINKS)
    def test_term_and_weights(self, link, y):
        s = np.full(U_GRID.shape, 1.0 if y else -1.0)
        with np.errstate(all="ignore"):
            parts = _LOG_TERMS[link](U_GRID, s)
            u, w = _WEIGHTS[link](s, *parts)
        for i, x in enumerate(U_GRID):
            exact = _exact_terms(link, float(x), y)
            for name, value, truth in zip(("term", "u", "w"), (parts[0][i], u[i], w[i]), exact):
                assert not _mismatch(float(value), truth, 1e-12), (name, float(x), value, truth)

    def test_cauchit_term_at_zero_is_exact_without_a_warning(self):
        """Where 1/|t| divides by zero or overflows, pi*F(-|t|) is pi/2
        exactly and the term log(1/2) to rounding, with no warning."""
        t = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            term, _, a = _LOG_TERMS[LinkKind.CAUCHIT](t, np.ones_like(t))
        assert (a == math.pi / 2).all()
        np.testing.assert_allclose(term, -math.log(2.0), rtol=1e-15)


class TestMonotonicityAndInversion:
    def test_cdf_monotone(self):
        """Strictly increasing wherever values are interior; the clamp can
        only pin ties at its own boundaries."""
        grid = np.linspace(-30.0, 30.0, 1001)
        for link in ALL_LINKS:
            values = cdf(link, grid)
            diffs = np.diff(values)
            assert np.all(diffs >= 0.0)
            interior = (values > CLAMP_EPS) & (values < 1.0 - CLAMP_EPS)
            strict = interior[:-1] & interior[1:]
            assert np.all(diffs[strict] > 0.0)

    def test_quantile_inverts_cdf(self):
        """u -> cdf -> quantile recovers u to 1e-8 wherever the CDF value
        retains the information: interior of the clamp and at least 1e-8
        of headroom below 1 (near 1 the absolute float spacing of v makes
        recovery to 1e-8 impossible for any implementation)."""
        grid = np.linspace(-8.0, 8.0, 801)
        for link in ALL_LINKS:
            v = cdf(link, grid)
            keep = (v > CLAMP_EPS) & (v < 1.0 - CLAMP_EPS) & (1.0 - v >= 1e-8)
            back = quantile(link, v[keep])
            np.testing.assert_allclose(back, grid[keep], atol=1e-8, rtol=0)

    def test_cdf_inverts_quantile(self):
        vs = np.linspace(0.001, 0.999, 999)
        for link in ALL_LINKS:
            np.testing.assert_allclose(
                cdf(link, quantile(link, vs)), vs, atol=1e-10, rtol=0
            )


class TestSymmetry:
    def test_symmetric_links(self):
        grid = np.linspace(-30.0, 30.0, 601)
        for link in SYMMETRIC:
            np.testing.assert_allclose(
                cdf(link, -grid), 1.0 - cdf(link, grid), atol=1e-12, rtol=0
            )

    def test_compit_is_asymmetric(self):
        gap = abs(cdf(LinkKind.COMPIT, -1.0) - (1.0 - cdf(LinkKind.COMPIT, 1.0)))
        assert gap > 0.1

    def test_median_sign(self):
        """sign(F(z) - 1/2) = sign(z) for every symmetric link, in
        particular under the sqrt(pi/8) rescaling of the argument."""
        zs = np.concatenate([np.linspace(-20, -1e-6, 300), np.linspace(1e-6, 20, 300)])
        lam = logistic_normal_scale()
        for z in zs:
            expected = math.copysign(1.0, z)
            assert math.copysign(1.0, cdf(LinkKind.PROBIT, z) - 0.5) == expected
            assert math.copysign(1.0, cdf(LinkKind.PROBIT, lam * z) - 0.5) == expected
            for link in SYMMETRIC + [LinkKind.LOGIT]:
                assert math.copysign(1.0, cdf(link, z) - 0.5) == expected


class TestLogisticNormalScale:
    def test_value(self):
        assert logistic_normal_scale() == pytest.approx(math.sqrt(math.pi / 8.0), abs=0)
        assert logistic_normal_scale() == pytest.approx(0.6266571, abs=1e-7)

    def test_agreement_at_zero(self):
        lam = logistic_normal_scale()
        assert cdf(LinkKind.LOGIT, 0.0) == cdf(LinkKind.PROBIT, lam * 0.0) == 0.5

    def test_scaled_probit_tracks_logit(self):
        lam = logistic_normal_scale()
        grid = np.linspace(-10.0, 10.0, 2001)
        gap = np.max(np.abs(cdf(LinkKind.LOGIT, grid) - cdf(LinkKind.PROBIT, lam * grid)))
        assert gap <= 0.02
