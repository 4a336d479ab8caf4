import cmath
import json
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from sphefaffian.cli import main
from sphefaffian.errors import DomainError, PoleError, SphefaffianError
from sphefaffian.params import (
    EnsembleParams,
    Origin,
    Strong,
    droplet,
    local_scale_delta,
    weight_omega,
)
from sphefaffian.finitekernel import (
    _g_hat_scaled,
    _log_coeff_arrays,
    _power_sum,
    correlation_rk,
    g_hat,
    log_moments_h,
    rescaled_kernel,
    rescaled_r1,
    skew_kernel_tilde,
    skew_kernel_via_sop,
    skew_op_system,
)
from sphefaffian.limits import LimitKernelSpec, kappa_strong


def radial_weight(params, r):
    """e^{-2NQ(r)} = r^{4L} (1+r^2)^{-2(n+L+1)}."""
    return r ** (4 * params.L) * (1.0 + r * r) ** (-2 * (params.n + params.L + 1))


def moments_h(params, k):
    """h_k in linear space, for moderate k, n and L."""
    return math.exp(log_moments_h(params, k))


class TestMoments:
    def test_small_closed_forms(self):
        pa = EnsembleParams(N=1, n=2.0, L=0.0)
        assert moments_h(pa, 0) == pytest.approx(0.2, rel=1e-14)
        assert moments_h(pa, 1) == pytest.approx(0.05, rel=1e-14)

    @pytest.mark.parametrize("N,n,L", [(2, 4, 0.0), (3, 6, 1.0), (4, 9, 2.5)])
    def test_against_quadrature(self, N, n, L):
        pa = EnsembleParams(N=N, n=float(n), L=L)
        for k in range(0, 2 * N):
            want = 2.0 * quad(
                lambda r: r ** (2 * k + 4 * L + 1) * (1 + r * r) ** (-2 * (n + L + 1)),
                0.0, np.inf, epsabs=1e-14, epsrel=1e-13,
            )[0]
            assert moments_h(pa, k) == pytest.approx(want, rel=1e-10)

    def test_ratio_law(self):
        pa = EnsembleParams(N=4, n=7.0, L=1.5)
        for k in range(6):
            want = (k + 2 * pa.L + 1) / (2 * pa.n - k)
            assert moments_h(pa, k + 1) / moments_h(pa, k) == pytest.approx(want, rel=1e-12)

    def test_non_integrable_rejected(self):
        pa = EnsembleParams(N=2, n=3.0, L=0.0)
        with pytest.raises(DomainError):
            moments_h(pa, 2 * pa.n + 2)


def q_even(system, k):
    """Coefficients of zeta^0, zeta^2, ..., zeta^{2k} of q_{2k}."""
    return np.exp(system.log_c[k] - system.log_c[: k + 1])


def q_even_at(system, k, zeta):
    return sum(c * zeta ** (2 * l) for l, c in enumerate(q_even(system, k)))


class TestSkewOPSystem:
    def test_q0_is_one(self):
        for pa in (EnsembleParams(2, 4.0, 0.0), EnsembleParams(3, 7.0, 2.5)):
            system = skew_op_system(pa)
            assert tuple(q_even(system, 0)) == (1.0,)

    def test_q2_constant_coefficient(self):
        # q_2 = z^2 + h_2/h_1 with h_2/h_1 = 2/5 at (n=3, L=0)
        pa = EnsembleParams(N=2, n=3.0, L=0.0)
        system = skew_op_system(pa)
        assert tuple(q_even(system, 1)) == pytest.approx((0.4, 1.0), rel=1e-14)

    def test_norms_are_2_h_odd(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        system = skew_op_system(pa)
        for k in range(3):
            assert system.norms[k] == pytest.approx(2 * moments_h(pa, 2 * k + 1), rel=1e-13)

    def _skew_form(self, params, f, g, n_r=240, n_t=60):
        """<f, g>_s = int (f(z) g(zbar) - g(z) f(zbar)) (z - zbar) w dA by
        tensor Gauss-Legendre in polar coordinates (r = tan substitution)."""
        xs, wxs = leggauss(n_r)
        phis = (xs + 1) * (math.pi / 4)
        wphis = wxs * (math.pi / 4)
        ts, wts = leggauss(n_t)
        thetas = (ts + 1) * math.pi
        wthetas = wts * math.pi
        total = 0.0 + 0.0j
        for phi, wp in zip(phis, wphis):
            r = math.tan(phi)
            jac = 1.0 / math.cos(phi) ** 2
            w = radial_weight(params, r)
            if w == 0.0:
                continue
            for th, wt in zip(thetas, wthetas):
                z = r * cmath.exp(1j * th)
                zb = z.conjugate()
                total += wp * wt * (f(z) * g(zb) - g(z) * f(zb)) * (z - zb) * w * r * jac
        return total / math.pi

    def test_skew_orthogonality_cross(self):
        # <q_0, q_3>_s = 0 at (N=2, n=4, L=1)
        pa = EnsembleParams(N=2, n=4.0, L=1.0)
        system = skew_op_system(pa)
        val = self._skew_form(pa, lambda z: q_even_at(system, 0, z), lambda z: z ** 3)
        assert abs(val) < 1e-10

    def test_skew_orthogonality_table(self):
        # <q_{2k}, q_{2l}> = 0, <q_{2k}, q_{2l+1}> = r_k delta_{kl}, k,l <= 2
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        system = skew_op_system(pa)
        for k in range(3):
            for l in range(3):
                ee = self._skew_form(
                    pa,
                    lambda z, k=k: q_even_at(system, k, z),
                    lambda z, l=l: q_even_at(system, l, z),
                )
                assert abs(ee) < 1e-8
                eo = self._skew_form(
                    pa,
                    lambda z, k=k: q_even_at(system, k, z),
                    lambda z, l=l: z ** (2 * l + 1),
                )
                want = system.norms[k] if k == l else 0.0
                assert abs(eo - want) < 1e-8 * max(1.0, abs(want))


class TestGHat:
    def test_vanishes_at_zero_with_charge(self):
        pa = EnsembleParams(N=2, n=5.0, L=1.0)
        assert g_hat(pa, 0.0, 0.4 + 0.2j) == 0.0

    def test_single_term_exact(self):
        # N=1, n=2, L=0 collapses to one term; the gamma prefactors cancel
        # to exactly 10 * zeta, so g_hat(0.3, 0.2) = 3
        pa = EnsembleParams(N=1, n=2.0, L=0.0)
        assert g_hat(pa, 0.3, 0.2) == pytest.approx(3.0, rel=1e-13)

    def test_overflow_guard(self):
        pa = EnsembleParams(N=50, n=400.0, L=300.0)
        with pytest.raises(OverflowError) as exc:
            g_hat(pa, 2.0, 1.5)
        assert isinstance(exc.value, SphefaffianError)


class TestSkewKernel:
    def test_pole_rejected(self):
        pa = EnsembleParams(N=2, n=4.0, L=0.0)
        with pytest.raises(PoleError):
            skew_kernel_tilde(pa, 1j, 0.3)

    def test_diagonal_zero_and_antisymmetry(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.normal(scale=0.7) + 1j * rng.normal(scale=0.7)
            e = rng.normal(scale=0.7) + 1j * rng.normal(scale=0.7)
            assert skew_kernel_tilde(pa, z, z) == 0.0
            a = skew_kernel_tilde(pa, z, e)
            b = skew_kernel_tilde(pa, e, z)
            assert abs(a + b) <= 1e-12 * abs(a)

    def test_sop_cross_check_pointwise(self):
        # independent construction from the polynomial route, including the
        # (zeta*eta)^{2L} transform factor
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        system = skew_op_system(pa)
        z, e = 0.4 + 0.1j, -0.2 + 0.3j
        a = skew_kernel_tilde(pa, z, e)
        b = skew_kernel_via_sop(system, z, e)
        assert abs(a - b) <= 1e-10 * abs(a)

    @pytest.mark.parametrize("N,n,L", [(1, 2, 0.0), (4, 8, 1.0), (6, 9, 2.5)])
    def test_route_equivalence_random(self, N, n, L):
        pa = EnsembleParams(N=N, n=float(n), L=L)
        system = skew_op_system(pa)
        rng = np.random.default_rng(N)
        for _ in range(6):
            z = rng.normal(scale=0.6) + 1j * rng.normal(scale=0.6)
            e = rng.normal(scale=0.6) + 1j * rng.normal(scale=0.6)
            a = skew_kernel_tilde(pa, z, e)
            b = skew_kernel_via_sop(system, z, e)
            assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))


def mesh_g_hat(params, zeta, eta, d_dzeta=False, d_deta=False):
    """G_hat (or its term-by-term derivative) over the full N x N mesh, l <= k,
    in linear space: the small-N oracle for the prefix sum."""
    la, lb, lpref = _log_coeff_arrays(params.N, params.n, params.L)
    K, Lo = np.meshgrid(np.arange(params.N), np.arange(params.N), indexing="ij")

    def power(x, p, derivative):  # x^p or d/dx x^p on the principal branch, 0^0 = 1
        if derivative:
            return p * power(x, p - 1, False)
        return np.where(p == 0, 1.0, 0.0) if x == 0 else np.exp(p * cmath.log(x))

    terms = (np.exp(lpref + la[:, None] + lb[None, :])
             * power(zeta, 2 * K + 2 * params.L + 1, d_dzeta)
             * power(eta, 2 * Lo + 2 * params.L, d_deta))
    return complex(np.sum(terms[Lo <= K]))


class TestPowerSum:
    @pytest.mark.parametrize("N", [1, 2, 7, 30])
    @pytest.mark.parametrize("L", [0.0, 0.5, 1.0, 2.5])
    def test_prefix_sum_matches_mesh(self, N, L):
        pa = EnsembleParams(N=N, n=2.0 * N + 1, L=L)
        points = [(0.4 + 0.3j, -0.5 + 0.2j), (1.3 - 0.6j, 0.2 + 0.9j),
                  (0.0, 0.5 - 0.2j), (0.6 + 0.1j, 0.0), (0.0, 0.0)]
        for zeta, eta in points:
            for flags in ((False, False), (True, False), (False, True)):
                want = mesh_g_hat(pa, zeta, eta, *flags)
                m, s = _g_hat_scaled(pa, zeta, eta, *flags)
                got = cmath.exp(m) * s if s != 0 else 0.0
                assert abs(got - want) <= 1e-12 * abs(want), (zeta, eta, flags)

    def test_prefix_far_below_the_inner_max_keeps_its_digits(self):
        # exp(0) * exp(-1000) + exp(-2000) * (exp(-1000) + exp(0)): one shift by the
        # inner max would flush exp(-1000) to zero and leave only the exp(-2000) term
        m, s = _power_sum(np.array([0.0, -2000.0]), np.zeros(2), 0.0,
                          np.array([-1000.0, 0.0]), np.zeros(2), 0.0)
        assert m + math.log(abs(s)) == pytest.approx(-1000.0, rel=1e-15)

    def test_zero_argument_keeps_only_exponent_zero_terms(self):
        a, e = np.log([2.0, 3.0, 5.0]), np.array([0.0, 1.0, 0.0])
        m, s = _power_sum(a, e, None)
        assert cmath.exp(m) * s == pytest.approx(7.0, rel=1e-15)
        assert _power_sum(a, e + 1.0, None)[1] == 0.0


def kernel_oracle(params, zeta, eta, dps=60):
    """skew_kernel_tilde from its definition, in mpmath: the weight times
    G(zeta, eta) - G(eta, zeta), each double gamma sum prefix-summed over l <= k."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        n, L = mp.mpf(params.n), mp.mpf(params.L)
        half = mp.mpf(1) / 2
        lpref = mp.log(mp.pi) + mp.loggamma(2 * n + 2 * L + 2) - (2 * n + 2 * L + 1) * mp.log(2)

        def g(x, y):
            lx, ly = mp.log(x), mp.log(y)
            inner = total = 0
            for k in range(params.N):
                inner += mp.exp((2 * k + 2 * L) * ly - mp.loggamma(n - k + half)
                                - mp.loggamma(k + L + 1))
                total += inner * mp.exp(lpref + (2 * k + 2 * L + 1) * lx
                                        - mp.loggamma(k + L + 1 + half) - mp.loggamma(n - k))
            return total

        x, y = mp.mpc(zeta), mp.mpc(eta)
        weight = mp.exp(-(n + L - half) * (mp.log(1 + x * x) + mp.log(1 + y * y)))
        return complex(weight * (g(x, y) - g(y, x)))


@pytest.mark.parametrize("N", [100, 400, 1600])
def test_both_routes_match_mpmath_at_strong_bulk_zoom(N):
    # at N = 1600 single exponents reach ~7e3, whose rounding alone is
    # eps * 7e3 = 1.6e-12 of the value: the double-precision floor there
    tol = 1e-12 if N <= 400 else 5e-12
    pa = Strong(a=1.0, b=1.0, p=1.0).params_at(N)
    s = math.sqrt(N * local_scale_delta(pa, 1.0))
    system = skew_op_system(pa)
    for z, w in [(0.3 + 0.2j, -0.1 + 0.4j), (0.5j, -0.5j), (-0.8 + 0.1j, 0.4 - 0.6j)]:
        zeta, eta = 1.0 + z / s, 1.0 + w / s
        want = kernel_oracle(pa, zeta, eta)
        for got in (skew_kernel_tilde(pa, zeta, eta), skew_kernel_via_sop(system, zeta, eta)):
            assert abs(got - want) <= tol * abs(want)


@pytest.mark.parametrize("N", [200, 400, 1000])
def test_sop_equiv_finite_at_large_n(N, capsys):
    rc = main(["check", "sop-equiv", "--N", str(N), "--n", str(2 * N), "--L", str(N)])
    report = json.loads(capsys.readouterr().out)
    assert rc in (0, 4)
    assert math.isfinite(report["max_relative_error"])


def r1_direct(params, z):
    return correlation_rk(params, [z])


class TestCorrelations:
    def test_real_axis_zero(self):
        pa = EnsembleParams(N=2, n=5.0, L=1.0)
        assert r1_direct(pa, 0.7) == 0.0
        assert r1_direct(pa, -1.3) == 0.0

    def test_positive_off_axis(self):
        pa = EnsembleParams(N=2, n=5.0, L=1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = rng.normal(scale=0.8) + 1j * rng.uniform(0.05, 1.0)
            assert r1_direct(pa, z) >= -1e-12

    @pytest.mark.parametrize("N,n,L", [(1, 2, 0.0), (2, 5, 1.0), (3, 6, 1.0), (4, 7, 0.5)])
    def test_intensity_integrates_to_N(self, N, n, L):
        pa = EnsembleParams(N=N, n=float(n), L=L)
        xs, wxs = leggauss(180)
        phis = (xs + 1) * (math.pi / 4)
        wphis = wxs * (math.pi / 4)
        ts, wts = leggauss(40)
        thetas = (ts + 1) * (math.pi / 4)
        wthetas = wts * (math.pi / 4)
        total = 0.0
        for phi, wp in zip(phis, wphis):
            r = math.tan(phi)
            jac = 1.0 / math.cos(phi) ** 2
            for th, wt in zip(thetas, wthetas):
                z = r * cmath.exp(1j * th)
                total += wp * wt * r1_direct(pa, z) * r * jac
        total *= 4.0 / math.pi  # quadrant symmetry, dA = d^2z/pi
        assert total == pytest.approx(N, abs=1e-6)

    def test_two_point_explicit_expansion(self):
        # oracle: textbook 4x4 Pfaffian expansion of the (zeta, eta) block
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        z, e = 0.4 + 0.3j, -0.2 + 0.5j
        wz, we = weight_omega(pa, z), weight_omega(pa, e)
        kt = lambda a, b: skew_kernel_tilde(pa, a, b)
        pf = (
            wz * wz * kt(z, z.conjugate()) * we * we * kt(e, e.conjugate())
            - wz * we * kt(z, e) * wz * we * kt(z.conjugate(), e.conjugate())
            + wz * we * kt(z, e.conjugate()) * wz * we * kt(z.conjugate(), e)
        )
        want = (pf * (z.conjugate() - z) * (e.conjugate() - e)).real
        got = correlation_rk(pa, [z, e])
        assert got == pytest.approx(want, rel=1e-11)
        assert got >= -1e-9 * abs(got)  # positivity up to rounding

    def test_coincident_points_vanish(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        z = 0.4 + 0.3j
        r2 = correlation_rk(pa, [z, z])
        r1 = correlation_rk(pa, [z])
        assert abs(r2) <= 1e-10 * r1 * r1


class TestRescaled:
    def test_diagonal_zero(self):
        reg = Strong(a=1.0, b=1.0, p=1.0)
        pa = reg.params_at(10)
        assert rescaled_kernel(pa, reg, 0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    def test_conjugate_symmetry(self):
        reg = Strong(a=1.0, b=1.0, p=1.0)
        pa = reg.params_at(10)
        z, w = 0.4 + 0.3j, -0.2 + 0.1j
        a = rescaled_kernel(pa, reg, z.conjugate(), w.conjugate())
        b = rescaled_kernel(pa, reg, z, w).conjugate()
        assert abs(a - b) <= 1e-12 * abs(b)

    def test_regime_consistency_enforced(self):
        reg = Strong(a=1.0, b=1.0, p=1.0)
        with pytest.raises(DomainError):
            rescaled_kernel(EnsembleParams(10, 30.0, 10.0), reg, 0.1, 0.2)

    def test_origin_L0_converges_to_bulk_erf(self):
        # L=0 insertion-free origin limit equals the bulk erf kernel
        spec = LimitKernelSpec("strong_bulk")
        z, w = 0.5, -0.3j
        want = kappa_strong(spec, z, w)
        errs = []
        for N in (40, 80, 160):
            reg = Origin(L=0.0, b=1.0)
            pa = reg.params_at(N)
            got = cmath.exp(z * z + w * w) * rescaled_kernel(pa, reg, z, w)
            errs.append(abs(got - want))
        assert errs[0] > errs[1] > errs[2]

    def test_r1_real_axis_zero(self):
        reg = Strong(a=1.0, b=1.0, p=1.0)
        pa = reg.params_at(20)
        assert rescaled_r1(pa, reg, 0.7) == 0.0

    def test_r1_converges_to_limit_profile(self):
        # rescaled one-point function approaches the limiting bulk profile
        from sphefaffian.limits import limit_rk

        spec = LimitKernelSpec("strong_bulk")
        reg = Strong(a=1.0, b=1.0, p=1.0)
        z = 0.4j
        want = limit_rk(spec, [z])
        errs = []
        for N in (25, 50, 100):
            pa = reg.params_at(N)
            errs.append(abs(rescaled_r1(pa, reg, z) - want))
        assert errs[0] > errs[1] > errs[2]

    def test_r1_bulk_saturates_to_one(self):
        # far from the real axis the rescaled intensity approaches 1
        # (the limiting profile itself is ~1.02 at y=2.5, so a 10% band)
        reg = Strong(a=1.0, b=1.0, p=1.0)
        pa = reg.params_at(100)
        assert rescaled_r1(pa, reg, 2.5j) == pytest.approx(1.0, abs=0.1)
