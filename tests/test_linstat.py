import math

import numpy as np
import pytest

from sphefaffian import linstat
from sphefaffian.errors import DegenerateSaddleWarning, DomainError, QuadratureError
from sphefaffian.params import EnsembleParams, Strong, droplet
from sphefaffian.linstat import (
    RadialStatistic,
    asymptotic_mean,
    asymptotic_variance,
    char_function,
    exact_mean,
    exact_variance,
    laplace_saddle,
    mc_linear_statistic,
)
from sphefaffian.finitekernel import log_moments_h
from sphefaffian.sampler import sample_ensemble

R2 = RadialStatistic.r_squared()
ONE = RadialStatistic.constant(1.0)


def radial_moments(pa):
    """u_l = int_0^inf r^{4l+4L+3} (1+r^2)^{-2(n+L+1)} dr = h_{2l+1}/2, l = 0..N-1."""
    return np.exp(log_moments_h(pa, 2.0 * np.arange(pa.N) + 1)) / 2


class TestMoments:
    def test_u0_closed_value(self):
        # u_0 = int r^3 (1+r^2)^{-6} dr = 1/40 at (N=1, n=2, L=0)
        pa = EnsembleParams(N=1, n=2.0, L=0.0)
        assert radial_moments(pa)[0] == pytest.approx(1.0 / 40.0, rel=1e-12)

    def test_zero_statistic_is_identity(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        # e^{i k * 0} = 1, so every per-degree phase average is 1
        assert char_function(pa, RadialStatistic.constant(0.0), 0.7) == pytest.approx(1.0, rel=1e-10)

    def test_closed_form_agrees_with_quadrature_band(self):
        # u_l = (1/2) int_0^1 t^{2l+2L+1} (1-t)^{2(n-l)-1} dt by adaptive quad,
        # for every degree with monomial exponent 4l+4L+3 <= 60
        from scipy.integrate import quad

        for N, n, L in ((4, 8.0, 1.0), (6, 12.0, 2.5), (20, 40.0, 1.0)):
            pa = EnsembleParams(N=N, n=n, L=L)
            ul = radial_moments(pa)
            degrees = [l for l in range(N) if 4 * l + 4 * L + 3 <= 60.0]
            assert degrees
            for l in degrees:
                a_exp, b_exp = 2 * l + 2 * L + 1.0, 2 * (n - l) - 1.0
                want = quad(
                    lambda t: 0.5 * math.exp(a_exp * math.log(t) + b_exp * math.log1p(-t)),
                    0.0, 1.0, epsabs=1e-300, epsrel=1e-13, limit=200,
                )[0]
                assert abs(ul[l] - want) <= 1e-12 * abs(want), f"N={N} l={l}"


class TestCharFunction:
    def test_zero_frequency(self):
        pa = EnsembleParams(N=5, n=10.0, L=2.0)
        assert char_function(pa, R2, 0.0) == 1.0

    def test_constant_statistic_pure_phase(self):
        pa = EnsembleParams(N=4, n=9.0, L=1.0)
        c, k = 3.0, 0.37
        got = char_function(pa, RadialStatistic.constant(c), k)
        want = np.exp(1j * k * pa.N * c)
        assert abs(got - want) < 1e-12

    def test_modulus_bounded(self):
        pa = EnsembleParams(N=6, n=13.0, L=0.5)
        for k in (0.2, 0.9, 2.7, 8.0):
            assert abs(char_function(pa, R2, k)) <= 1.0 + 1e-12

    def test_gaussian_expansion_five_percent(self):
        # log P(k) ~ i k mu - k^2 sigma^2/2 at N=20, k=0.1: each coefficient
        # within 5% of the asymptotic formulas
        reg = Strong(a=1.0, b=1.0, p=1.0)
        pa = reg.params_at(20)
        k = 0.1
        lg = np.log(char_function(pa, R2, k))
        mu = asymptotic_mean(pa, R2)
        var = asymptotic_variance(pa, R2)
        assert lg.imag / k == pytest.approx(mu, rel=0.05)
        assert -2.0 * lg.real / k ** 2 == pytest.approx(var, rel=0.05)


def _phase_average_oracle(pa, l, k):
    """<exp(i k r^2)>_l in closed form: with s = r^2 the weight is a beta-prime
    density s^{alpha-1} (1+s)^{-alpha-beta}, alpha = 2l+2L+2, beta = 2(n-l),
    so the average is Gamma(alpha+beta)/Gamma(beta) U(alpha, 1-beta, -ik)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        alpha, beta = 2 * l + 2 * pa.L + 2, 2 * (pa.n - l)
        return complex(mp.gamma(alpha + beta) / mp.gamma(beta)
                       * mp.hyperu(alpha, 1 - beta, -1j * k))


class TestRadialAverage:
    @pytest.mark.parametrize("k", [2.0, 8.0])
    def test_top_degree_matches_hyperu(self, k):
        pa = EnsembleParams(N=60, n=120.0, L=60.0)
        got = linstat._radial_average(pa, 59, lambda r: np.exp(1j * k * r * r))
        want = _phase_average_oracle(pa, 59, k)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_unreliable_numerator_raises(self):
        # near n = N the top degree's phase integrand oscillates into the
        # endpoint t = 1: the gap between the two largest Gauss rules flags it
        with pytest.raises(QuadratureError):
            char_function(EnsembleParams(N=5, n=5.5, L=0.0), R2, 8.0)


class TestExactMoments:
    # r^2 = s has a beta-prime law, s^{alpha-1} (1+s)^{-alpha-beta} at degree l with
    # alpha = 2l+2L+2, beta = 2(n-l): mean alpha/(beta-1), second moment
    # alpha(alpha+1)/((beta-1)(beta-2))
    @pytest.mark.parametrize("N, n, L", [(5, 11.0, 1.0), (60, 120.0, 60.0), (200, 400.0, 200.0)])
    def test_r2_moments_closed_form(self, N, n, L):
        pa = EnsembleParams(N=N, n=n, L=L)
        alpha = 2.0 * np.arange(N) + 2 * L + 2
        beta = 2.0 * (n - np.arange(N))
        m1 = alpha / (beta - 1)
        m2 = alpha * (alpha + 1) / ((beta - 1) * (beta - 2))
        assert exact_mean(pa, R2) == pytest.approx(m1.sum(), rel=1e-12)
        assert exact_variance(pa, R2) == pytest.approx((m2 - m1 * m1).sum(), rel=1e-12)


class TestAsymptotics:
    def test_unit_statistic_gives_N(self):
        pa = EnsembleParams(N=17, n=40.0, L=8.0)
        assert asymptotic_mean(pa, ONE) == pytest.approx(17.0, rel=1e-10)

    def test_r2_mean_closed_form(self):
        # 2(n+L) int r^3/(1+r^2)^2 dr = (n+L) [log(1+r^2) + 1/(1+r^2)]
        pa = Strong(a=1.0, b=1.0, p=1.0).params_at(30)
        geo = droplet(pa)
        F = lambda r: math.log(1 + r * r) + 1.0 / (1 + r * r)
        want = pa.nl * (F(geo.r2) - F(geo.r1))
        assert asymptotic_mean(pa, R2) == pytest.approx(want, rel=1e-10)

    def test_linearity(self):
        pa = EnsembleParams(N=5, n=11.0, L=1.0)
        both = RadialStatistic(
            b=lambda r: r * r + r, b_prime=lambda r: 2 * r + 1, label="r2+r"
        )
        assert asymptotic_mean(pa, both) == pytest.approx(
            asymptotic_mean(pa, R2) + asymptotic_mean(pa, RadialStatistic.radius()),
            rel=1e-12,
        )

    def test_variance_constant_zero(self):
        pa = EnsembleParams(N=5, n=11.0, L=1.0)
        assert asymptotic_variance(pa, ONE) == 0.0

    def test_variance_r2_closed_form(self):
        pa = Strong(a=1.0, b=1.0, p=1.0).params_at(60)
        geo = droplet(pa)
        want = (geo.r2 ** 4 - geo.r1 ** 4) / 4.0
        assert asymptotic_variance(pa, R2) == pytest.approx(want, rel=1e-12)

    def test_variance_independent_of_N_at_fixed_regime(self):
        reg = Strong(a=1.0, b=1.0, p=1.0)
        vals = [asymptotic_variance(reg.params_at(N), R2) for N in (20, 40, 80)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)


class TestMonteCarlo:
    @pytest.mark.parametrize("stat", [R2, ONE, RadialStatistic.radius()],
                             ids=lambda s: s.label)
    def test_statistics_map_arrays_elementwise(self, stat):
        r = np.array([0.0, 0.5, 2.0])
        for f in (stat.b, stat.b_prime):
            np.testing.assert_array_equal(f(r), [f(x) for x in r])

    def test_unit_statistic_deterministic(self):
        pa = EnsembleParams(N=7, n=14.0, L=7.0)
        batch = sample_ensemble(pa, trials=10, seed=1)
        s = mc_linear_statistic(batch, ONE)
        assert s.mean == pytest.approx(7.0, abs=1e-12)
        assert s.variance == pytest.approx(0.0, abs=1e-20)

    def test_tracks_exact_moments(self):
        pa = EnsembleParams(N=20, n=40.0, L=20.0)
        batch = sample_ensemble(pa, trials=150, seed=2)
        s = mc_linear_statistic(batch, R2)
        assert abs(s.mean - exact_mean(pa, R2)) < 4.0 * s.se_mean
        assert abs(s.variance - exact_variance(pa, R2)) < 4.0 * s.se_variance


class TestGaussianFluctuations:
    def test_ks_normality_and_variance_stability_across_N(self):
        # centered/scaled B passes a KS normality test at level 0.01 for
        # each N in the sweep, while the asymptotic variance is N-free and
        # the Monte Carlo variance stabilizes around it
        reg = Strong(a=1.0, b=1.0, p=1.0)
        var_ref = asymptotic_variance(reg.params_at(20), R2)
        from scipy import stats

        for N, trials in ((20, 150), (40, 150), (80, 120)):
            pa = reg.params_at(N)
            assert asymptotic_variance(pa, R2) == pytest.approx(var_ref, rel=1e-12)
            batch = sample_ensemble(pa, trials=trials, seed=1000 + N)
            s = mc_linear_statistic(batch, R2)
            z = (s.samples - s.samples.mean()) / math.sqrt(var_ref)
            assert stats.kstest(z, "norm").pvalue > 0.01
            assert abs(s.variance - var_ref) < 4.0 * s.se_variance


class TestSaddle:
    def test_value_and_curvature(self):
        pa = EnsembleParams(N=4, n=10.0, L=5.0)
        r, fpp = laplace_saddle(pa, 3)
        assert r == pytest.approx(math.sqrt(8.0 / 7.0), rel=1e-14)
        assert fpp == pytest.approx(-8.0 * 49.0 / 15.0, rel=1e-14)

    def test_curvature_always_negative(self):
        pa = EnsembleParams(N=6, n=14.0, L=2.0)
        for l in range(6):
            _, fpp = laplace_saddle(pa, l)
            assert fpp < 0.0

    def test_degenerate_saddle_warns(self):
        pa = EnsembleParams(N=3, n=7.0, L=0.0)
        with pytest.warns(DegenerateSaddleWarning):
            r, _ = laplace_saddle(pa, 0)
        assert r == 0.0

    def test_domain(self):
        pa = EnsembleParams(N=3, n=4.0, L=0.0)
        with pytest.raises(DomainError):
            laplace_saddle(pa, 5)
