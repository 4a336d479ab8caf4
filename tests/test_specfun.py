import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from sphefaffian import specfun
from sphefaffian.errors import ConvergenceError, DomainError, DoubleRangeError
from sphefaffian.specfun import (
    _unscale,
    erf_c,
    erfc_c,
    inc_gamma_entire_part,
    mittag_leffler,
    reg_inc_beta,
    reg_inc_gamma_p,
)


class TestErfc:
    def test_at_zero(self):
        assert erfc_c(0.0) == 1.0

    def test_real_value_via_quadrature(self):
        # independent oracle: erfc(1) = 1 - (2/sqrt(pi)) int_0^1 e^{-t^2} dt
        integral = quad(lambda t: math.exp(-t * t), 0.0, 1.0, epsabs=1e-15)[0]
        want = 1.0 - 2.0 / math.sqrt(math.pi) * integral
        assert erfc_c(1.0).real == pytest.approx(want, rel=1e-13)
        assert erfc_c(1.0).imag == 0.0

    def test_complex_value_via_quadrature(self):
        # straight-ray quadrature of the defining integral at z = 2+3j
        z = 2.0 + 3.0j

        def seg(t):
            return cmath.exp(-(t * z) ** 2)

        re = quad(lambda t: seg(t).real, 0, 1, epsabs=1e-14, limit=200)[0]
        im = quad(lambda t: seg(t).imag, 0, 1, epsabs=1e-14, limit=200)[0]
        want = 1.0 - 2.0 / math.sqrt(math.pi) * z * complex(re, im)
        got = erfc_c(z)
        assert abs(got - want) <= 1e-12 * abs(want)

    @given(st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_reflection(self, z):
        assert abs(erfc_c(-z) - (2.0 - erfc_c(z))) <= 1e-12 * max(1.0, abs(erfc_c(z)))

    @given(st.complex_numbers(max_magnitude=6.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_erf_odd(self, z):
        assert abs(erf_c(z) + erf_c(-z)) <= 1e-12 * max(1.0, abs(erf_c(z)))

    @given(
        st.floats(-9.5, 9.5),
        st.floats(-9.5, 9.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_against_mpmath(self, x, y):
        # erfc_c wraps scipy's Faddeeva code; mpmath at 30 digits is independent
        mpmath = pytest.importorskip("mpmath")
        z = complex(x, y)
        if abs(z) > 10:
            return
        with mpmath.workdps(30):
            ref = complex(mpmath.erfc(mpmath.mpc(x, y)))
        got = erfc_c(z)
        assert abs(got - ref) <= 5e-12 * max(abs(ref), 1e-30)

    def test_accuracy_ring_fixtures(self):
        # frozen mpmath.erfc values (25 digits) at awkward points: small
        # |erfc| near the real axis and large |erfc| near the imaginary axis
        fixtures = {
            3.9 + 0.0j: 3.4792248597231745e-08 + 0.0j,
            1.5 + 9.0j: -9.789969765666903e32 + 1.2730264172383716e32j,
            3.0 + 0.5j: -2.8065361476404886e-05 + 2.6284897222588233e-07j,
            0.1 + 7.0j: -1.5115096455692485e20 - 2.8347166234304397e19j,
        }
        for z, want in fixtures.items():
            got = erfc_c(z)
            assert abs(got - want) <= 1e-12 * abs(want), f"at z={z}"

    def test_erf_small_ring_fixtures(self):
        # frozen mpmath.erf values (30 digits) on |z| ~ 0.01, where scipy's
        # erf is least accurate (about 1e-13 relative)
        fixtures = {
            0.01 + 0.0j: 0.011283415555849618 + 0.0j,
            0.00848 + 0.005299j: 0.00956869464653536 + 0.005978907202672084j,
            0.009998 + 0.000175j: 0.011281159368597325 + 0.00019744661850586205j,
            0.0099j: 0.011171318720035751j,
            0.006 - 0.008j: 0.0067706270560171835 - 0.009026900929023812j,
        }
        for z, want in fixtures.items():
            got = erf_c(z)
            assert abs(got - want) <= 1e-12 * abs(want), f"at z={z}"


class TestArrays:
    ZS = np.array([[0.0, 0.3 - 0.1j, -2.5 + 4.0j], [1.7 + 0.4j, -8.0, 30.0 - 60.0j]])

    @pytest.mark.parametrize("fn", [erfc_c, erf_c, lambda z: mittag_leffler(2.0, 3.5, z)],
                             ids=["erfc_c", "erf_c", "mittag_leffler"])
    def test_array_call_equals_scalar_calls(self, fn):
        got = fn(self.ZS)
        assert got.shape == self.ZS.shape
        want = [[fn(complex(z)) for z in row] for row in self.ZS]
        assert all(type(v) is complex for row in want for v in row)
        np.testing.assert_array_equal(got, np.array(want))

    def test_mittag_leffler_elements_stop_on_their_own(self):
        # a large element needing many chunks must not change a small one
        zs = np.array([0.01, 400.0 + 300.0j])
        got = mittag_leffler(2.0, 1.0, zs)
        assert got[0] == mittag_leffler(2.0, 1.0, 0.01)
        assert got[1] == mittag_leffler(2.0, 1.0, 400.0 + 300.0j)
        assert mittag_leffler(2.0, 4.0, np.zeros(3)).tolist() == [1.0 / 6.0] * 3


class TestMittagLeffler:
    @pytest.mark.parametrize("z", [0.5, 1 + 1j])
    def test_cosh_identity(self, z):
        assert abs(mittag_leffler(2.0, 1.0, z * z) - cmath.cosh(z)) <= 1e-13 * abs(cmath.cosh(z))

    def test_exponential(self):
        for z in (0.3, -2.0, 1.5j):
            assert abs(mittag_leffler(1.0, 1.0, z) - cmath.exp(z)) <= 1e-12 * abs(cmath.exp(z))

    def test_sinh_over_z(self):
        # fixed 50-term truncation as the independent oracle
        z = 0.7
        want = sum(z ** (2 * k) / math.gamma(2 * k + 2) for k in range(50))
        got = mittag_leffler(2.0, 2.0, z * z)
        assert got.real == pytest.approx(want, rel=1e-13)
        assert got.real == pytest.approx(math.sinh(z) / z, rel=1e-13)

    @given(st.complex_numbers(max_magnitude=20.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=30, deadline=None)
    def test_entire_resummation(self, z):
        # tighter-precision re-summation agrees at the looser tolerance
        with mock.patch.object(specfun, "_REL_TOL", 1e-10):
            loose = mittag_leffler(2.0, 3.0, z)
        with mock.patch.object(specfun, "_REL_TOL", 1e-15):
            tight = mittag_leffler(2.0, 3.0, z)
        assert abs(loose - tight) <= 1e-9 * max(1.0, abs(tight))

    def test_budget_exhaustion(self):
        with mock.patch.object(specfun, "_MAX_TERMS", 5), pytest.raises(ConvergenceError):
            mittag_leffler(2.0, 1.0, 1e4)

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("z", [0.1, np.array([0.3, 0.1 - 0.2j, 1e-3])])
    def test_sum_stuck_at_zero_is_outside_double_range(self, z):
        # 1/Gamma(401) and every later term underflow to 0: the series would
        # run all _MAX_TERMS terms without meeting its stopping rule
        with mock.patch.object(specfun, "_MAX_TERMS", 10**3), pytest.raises(DoubleRangeError):
            mittag_leffler(2.0, 401.0, z)


class TestIncGamma:
    def test_at_zero(self):
        assert reg_inc_gamma_p(2.0, 0.0) == 0.0

    def test_exponential_case(self):
        want = 1.0 - math.exp(-2.0)
        assert reg_inc_gamma_p(1.0, 2.0).real == pytest.approx(want, rel=1e-13)

    def test_mittag_leffler_bridge(self):
        # 2 E_{2,1+c}(z^2) = e^z z^{-c} P(c,z) + e^{-z} (-z)^{-c} P(c,-z)
        c, z = 2.0, 0.8
        lhs = 2.0 * mittag_leffler(2.0, 1.0 + c, z * z)
        rhs = cmath.exp(z) * z ** -c * reg_inc_gamma_p(c, z) + cmath.exp(-z) * (
            (-z + 0j) ** -c
        ) * reg_inc_gamma_p(c, -z)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_real_monotone_to_one(self):
        for c in (0.5, 2.0, 5.0):
            xs = np.linspace(0.1, 50.0, 40)
            vals = [reg_inc_gamma_p(c, x) for x in xs]
            assert all(abs(v.imag) < 1e-15 for v in vals)
            reals = [v.real for v in vals]
            # increasing up to a 1e-12 noise band at the saturated plateau
            assert all(b > a - 1e-12 for a, b in zip(reals, reals[1:]))
            assert reals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_gamma_p(0.0, 1.0)

    @pytest.mark.parametrize("c, z, tol", [
        # the power series cancels here: 3.7e9, 8.8e12, 0.8, 7.6e-3, 5.2e-4, 2.6e2
        (2.0, -60.0, 1e-13),
        (0.5, -60.0, 1e-13),
        (3.0, -40.0, 1e-13),
        (1.5, -30.0 + 5.0j, 1e-13),
        (2.0, -30.0 + 5.0j, 1e-13),
        (0.0, -20.0, 1e-13),
        # near the imaginary axis Kummer's series cancels too, but less
        # than the power series (5.3e-6 and 1.3e-3 there)
        (0.5, -3.0 + 20.0j, 1e-9),
        (2.0, -5.0 + 30.0j, 1e-5),
    ])
    def test_entire_part_against_mpmath(self, c, z, tol):
        # E_c(z) = 1F1(1; c+1; z) / Gamma(c+1), at 50 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = complex(mpmath.hyp1f1(1, c + 1, z) / mpmath.gamma(c + 1))
        assert abs(inc_gamma_entire_part(c, z) - want) <= tol * abs(want)

    def test_entire_part_overflow_is_typed(self):
        with pytest.raises(ConvergenceError):
            inc_gamma_entire_part(2.0, -800.0)


def _inc_beta(x, a, b):
    """I_x(a, b) as a number, from reg_inc_beta's (scale, mantissa)."""
    return _unscale(*reg_inc_beta(x, a, b))


class TestIncBeta:
    def test_uniform_cdf(self):
        assert _inc_beta(0.37, 1.0, 1.0).real == pytest.approx(0.37, rel=1e-13)

    def test_full_integral(self):
        assert _inc_beta(1.0, 2.5, 4.0) == 1.0

    def test_binomial_sum_identity(self):
        n, m, x = 7, 3, 0.42
        want = sum(
            math.comb(n, j) * x ** j * (1 - x) ** (n - j) for j in range(m, n + 1)
        )
        got = _inc_beta(x, m, n - m + 1)
        assert got.real == pytest.approx(want, rel=1e-12)
        assert abs(got.imag) < 1e-15

    @given(st.floats(0.01, 0.99), st.floats(0.2, 8.0), st.floats(0.2, 8.0))
    @settings(max_examples=50, deadline=None)
    def test_reflection_sum(self, x, a, b):
        total = _inc_beta(x, a, b) + _inc_beta(1.0 - x, b, a)
        assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("x", [0.5, 0.5 + 0.3j, 0.49])
    def test_near_half_against_closed_form(self, x):
        # I_x(1, b) = 1 - (1-x)^b in closed form, on and near Re x = 1/2
        for a, b in ((1.0, 0.5), (1.0, 3.7)):
            want = 1.0 - (1.0 - x) ** b
            assert abs(_inc_beta(x, a, b) - want) <= 1e-13
            assert abs(_inc_beta(1.0 - x, b, a) - (1.0 - want)) <= 1e-13

    def test_cut_rejected(self):
        with pytest.raises(DomainError):
            reg_inc_beta(-0.3, 2.0, 3.0)

    def test_complex_argument_against_quadrature(self):
        a, b = 2.0, 4.5
        x = 0.3 + 0.1j

        def integrand(t):
            s = t * x
            return s ** (a - 1) * (1 - s) ** (b - 1) * x

        re = quad(lambda t: integrand(t).real, 0, 1, epsabs=1e-14)[0]
        im = quad(lambda t: integrand(t).imag, 0, 1, epsabs=1e-14)[0]
        want = complex(re, im) * math.exp(gammaln(a + b) - gammaln(a) - gammaln(b))
        got = _inc_beta(x, a, b)
        assert abs(got - want) <= 1e-12 * abs(want)


def _log_gap(got, want):
    """|log got - log want| with the imaginary part taken mod 2 pi."""
    d = got - want
    return abs(complex(d.real, math.remainder(d.imag, 2.0 * math.pi)))


def _mp_log_inc_beta(x, a, b, dps):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        return complex(mpmath.log(mpmath.betainc(a, b, 0, x, regularized=True)))


def _log_inc_beta(x, a, b):
    scale, mantissa = reg_inc_beta(x, a, b)
    return scale + cmath.log(mantissa)


class TestIncBetaFraction:
    """reg_inc_beta's continued fraction against mpmath's betainc."""

    @pytest.mark.parametrize("x,a,b", [
        (0.5 + 0.9j, 1.0, 0.5),  # the two points where the 2F1 series stalled
        (0.5 + 2j, 1.0, 0.5),
        (0.55 + 0.77j, 20.0, 5.5),  # where it was off by 1.5e-2
        # Re x = (a+1)/(a+b+2) and Re(1-x) = (b+1)/(a+b+2): a reflection
        # that tested again would recurse without end
        (0.5 + 0.01j, 300.0, 300.0),
    ])
    def test_hard_points(self, x, a, b):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            want = complex(mpmath.betainc(a, b, 0, x, regularized=True))
        assert abs(_inc_beta(x, a, b) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("N", [100, 400, 1000])
    def test_cdi_betas_at_check_points(self, N):
        # the six betas of cdi_rhs_beta_form at `check beta`'s 15 points,
        # Strong(1,1,1): n = 2N, L = N; |I| runs far outside double range
        n, L = 2.0 * N, float(N)
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(15):
            z = rng.uniform(0.05, 0.5) + 1j * rng.uniform(-0.05, 0.05)
            e = rng.uniform(0.05, 0.5) + 1j * rng.uniform(-0.05, 0.05)
            p, q = z * e / (1 + z * e), e * e / (1 + e * e)
            for x, a, b in ((p, 2 * L, 2 * n), (p, 2 * N + 2 * L, 2 * n - 2 * N),
                            (q, L, n + 0.5), (q, N + L, n - N + 0.5),
                            (q, L + 0.5, n), (q, N + L + 0.5, n - N)):
                want = _mp_log_inc_beta(x, a, b, 40)
                worst = max(worst, _log_gap(_log_inc_beta(x, a, b), want))
        assert worst <= 2e-12

    def test_large_parameters(self):
        # a, b up to 6000 on both sides of the reflection threshold, at the
        # points where mpmath's own hypergeometric series converges
        rng = np.random.default_rng(11)
        worst, compared = 0.0, 0
        for _ in range(12):
            x = complex(rng.uniform(0.02, 0.98), rng.uniform(-0.2, 0.2))
            a, b = rng.uniform(1.0, 6000.0, 2)
            try:
                want = _mp_log_inc_beta(x, a, b, 40)
            except ValueError:  # mpmath: hypsum() failed to converge
                continue
            worst = max(worst, _log_gap(_log_inc_beta(x, a, b), want))
            compared += 1
        assert compared >= 8
        assert worst <= 5e-12
