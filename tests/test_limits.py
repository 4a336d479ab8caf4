import cmath
import functools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import erfi

from sphefaffian import cli, limits, linstat, specfun
from sphefaffian.errors import (
    BranchWarning,
    DomainError,
    DoubleRangeError,
    NumericalError,
    QuadratureError,
)
from sphefaffian.limits import (
    LimitKernelSpec,
    f_profile,
    f_profile_deriv,
    kappa,
    kappa_origin_gamma_form,
    limit_rk,
    ode_residual,
    wronskian_integral,
)
from sphefaffian.cdi import limiting_f
from sphefaffian.params import EnsembleParams, Origin, Strong, Weak
from sphefaffian.pfaffian import pfaffian_intensity
from sphefaffian.specfun import erfc_c, mittag_leffler

BULK = LimitKernelSpec("strong_bulk")
EDGE = LimitKernelSpec("strong_edge")
INNER = LimitKernelSpec("strong_inner_edge")
WEAK = LimitKernelSpec("weak", rho=2.0)
ORIGIN = LimitKernelSpec("origin", L=2.0)

# three points close enough that R3 cancels far below its entries:
# strong edge (perfbench seed 9) and weak rho=2 (perfbench seed 901)
CLOSE_POINTS = [
    (EDGE, [0.37629393518681375 + 0.2528056966643129j,
            0.6125826499046769 - 0.172137687011584j,
            0.4964205180408985 - 0.1466144320345231j]),
    (LimitKernelSpec("weak", rho=2.0), [-0.4620611650814477 - 0.15508827166769493j,
                                        -0.5771727411365966 - 0.10044031232558659j,
                                        -0.24712246206893318 + 0.21608393209529952j]),
]


def _limit_entry(spec):
    # the entry function limit_rk hands to pfaffian_intensity
    def entry(x, y):
        return specfun._unscale(*limits._kappa_scaled(spec, x, y), -abs(x) ** 2 - abs(y) ** 2)

    return entry


def _entry_matrix(entry, points):
    doubled = [x for p in points for x in (p, p.conjugate())]
    return [[entry(x, y) if r < c else -entry(y, x) if r > c else 0j
             for c, y in enumerate(doubled)] for r, x in enumerate(doubled)]


def _pfaffian_by_expansion(a):
    # expansion along the first row, in the arithmetic of the entries
    if not a:
        return 1
    total = 0
    for j in range(1, len(a)):
        rest = [i for i in range(1, len(a)) if i != j]
        minor = [[a[r][c] for c in rest] for r in rest]
        total += (-1) ** (j + 1) * a[0][j] * _pfaffian_by_expansion(minor)
    return total


def _profile_mp(mpmath, x, u):
    return mpmath.erfc(mpmath.sqrt(2) * (x - u)) / 2


def _wronskian_mp(mpmath, z, w, lo, hi):
    # the Wronskian integral at the working precision, split at the midpoint
    c = mpmath.sqrt(2 / mpmath.pi)

    def integrand(u):
        return (_profile_mp(mpmath, w, u) * c * mpmath.exp(-2 * (z - u) ** 2)
                - _profile_mp(mpmath, z, u) * c * mpmath.exp(-2 * (w - u) ** 2))

    return mpmath.quad(integrand, [lo, (lo + hi) / 2, hi])


def _kappa_mp(spec, z, w):
    """The limit kernel's defining integral in 30-digit mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        zm, wm = mpmath.mpc(z), mpmath.mpc(w)
        pref = mpmath.sqrt(mpmath.pi) * mpmath.exp(zm * zm + wm * wm)
        if spec.kind == "strong_edge":
            u0 = limits._cutoff(z, w)
            return complex(pref * _wronskian_mp(mpmath, zm, wm, -u0, 0))
        if spec.kind == "weak":
            h = mpmath.mpf(spec.rho) / (2 * mpmath.sqrt(2))
            f = functools.partial(_profile_mp, mpmath)
            boundary = f(wm, h) * f(zm, -h) - f(zm, h) * f(wm, -h)
            return complex(pref * (_wronskian_mp(mpmath, zm, wm, -h, h) + boundary))
        two_l, x = 2 * mpmath.mpf(spec.L), 2 * zm * wm

        def ml(y):  # E_{2,1+2L}(y), summed to the working precision
            total, k = mpmath.mpf(0), 0
            while True:
                term = y ** k / mpmath.gamma(2 * k + 1 + two_l)
                total += term
                if k > 3 and abs(term) < mpmath.eps * abs(total):
                    return total
                k += 1

        integral = mpmath.quad(lambda s: s ** two_l * (
            zm * mpmath.exp((1 - s * s) * zm * zm) - wm * mpmath.exp((1 - s * s) * wm * wm)
        ) * ml((s * x) ** 2), [0, 1])
        return complex(2 * x ** two_l * integral)


def _cquad(f, lo, hi):
    """Adaptive quadrature of a complex integrand; a warning fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        return quad(f, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=300, complex_func=True)[0]


def _kappa_adaptive(spec, z, w):
    """The limit kernel with the Gauss rules replaced by adaptive quad."""

    def wronskian(lo, hi):
        return _cquad(lambda u: f_profile(w, u) * f_profile_deriv(z, u)
                      - f_profile(z, u) * f_profile_deriv(w, u), lo, hi)

    pref = math.sqrt(math.pi) * cmath.exp(z * z + w * w)
    if spec.kind == "strong_edge":
        return pref * wronskian(-limits._cutoff(z, w), 0.0)
    if spec.kind == "weak":
        h = spec.rho / (2.0 * math.sqrt(2.0))
        boundary = f_profile(w, h) * f_profile(z, -h) - f_profile(z, h) * f_profile(w, -h)
        return pref * (wronskian(-h, h) + boundary)
    two_l, x = 2 * spec.L, 2.0 * z * w
    integral = _cquad(lambda s: s ** two_l * (
        z * cmath.exp((1 - s * s) * z * z) - w * cmath.exp((1 - s * s) * w * w)
    ) * mittag_leffler(2.0, 1.0 + two_l, (s * x) ** 2), 0.0, 1.0)
    return 2.0 * x ** two_l * integral


class TestGaussRules:
    ORACLE_CASES = [
        # the point where adaptive quad raised QuadratureError
        (LimitKernelSpec("weak", rho=2.0), -0.1 - 1.75j, 0.1),
        *[(spec, z, w)
          for spec in (EDGE, LimitKernelSpec("weak", rho=0.5), LimitKernelSpec("weak", rho=8.0),
                       *[LimitKernelSpec("origin", L=L) for L in (0.0, 0.5, 0.75, 2.5)])
          for z, w in ((0.4 + 0.3j, -0.7 + 0.2j), (-1.3 - 0.5j, 0.6 + 1.1j))],
    ]

    @pytest.mark.parametrize("spec, z, w", ORACLE_CASES, ids=lambda v: (
        f"{v.kind}-{v.L if v.rho is None else v.rho}" if isinstance(v, LimitKernelSpec) else None))
    def test_against_30_digit_oracle(self, spec, z, w):
        want = _kappa_mp(spec, z, w)
        assert abs(kappa(spec, z, w) - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("spec", [EDGE, LimitKernelSpec("weak", rho=2.0),
                                      LimitKernelSpec("origin", L=0.5),
                                      LimitKernelSpec("origin", L=2.0)],
                             ids=lambda s: f"{s.kind}-{s.L if s.rho is None else s.rho}")
    def test_against_adaptive_quadrature(self, spec):
        rng = np.random.default_rng(19)
        for _ in range(40):
            z, w = rng.uniform(-2.0, 2.0, 2) + 1j * rng.uniform(-2.0, 2.0, 2)
            want = _kappa_adaptive(spec, complex(z), complex(w))
            assert abs(kappa(spec, z, w) - want) <= 1e-10 * max(1.0, abs(want)), (z, w)

    def test_rules_integrate_their_weights(self):
        assert specfun._gauss(np.exp, 0.0, 0.0, 16, -1.0, 2.0) == pytest.approx(
            math.e ** 2 - 1 / math.e, rel=1e-14)
        # weight s^1.5 on [0, 1], of mass 1/2.5: the integral of s^1.5 * s is 1/3.5
        assert specfun._gauss(lambda s: s / 2.5, 1.5, 0.0, 16) == pytest.approx(
            1 / 3.5, rel=1e-14)

    @pytest.mark.parametrize("alpha, beta", [(799.0, 799.0), (1.0, 2399.0), (0.0, 1599.0)])
    def test_weights_stay_in_range_at_large_exponents(self, alpha, beta):
        # the weight's mass over- or underflows double range at these exponents
        for n in (64, 1024):
            x, wts = specfun._rule(n, alpha, beta)
            assert np.isfinite(x).all() and np.isfinite(wts).all()
            assert wts.sum() == pytest.approx(1.0, rel=1e-14)
        # the mean of s under s^alpha (1-s)^beta is (alpha+1)/(alpha+beta+2)
        assert specfun._gauss(lambda s: s, alpha, beta, 16) == pytest.approx(
            (alpha + 1) / (alpha + beta + 2), rel=1e-14)

    def test_gap_that_never_closes_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_NODES", 64)
        with pytest.raises(QuadratureError):
            specfun._gauss(lambda u: np.exp(400j * u), 0.0, 0.0, 16)
        # the same cap suffices where the rules agree
        assert specfun._gauss(np.cos, 0.0, 0.0, 16) == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_profiles_accept_node_arrays(self):
        u = np.linspace(-1.0, 1.0, 5)
        z = 0.4 - 0.3j
        np.testing.assert_allclose(f_profile(z, u), [f_profile(z, x) for x in u], rtol=1e-15)
        np.testing.assert_allclose(f_profile_deriv(z, u), [f_profile_deriv(z, x) for x in u],
                                   rtol=1e-15)


class TestProfiles:
    def test_saturation(self):
        assert abs(f_profile(0.3, 40.0) - 1.0) < 1e-15

    def test_half_at_center(self):
        assert f_profile(0.8, 0.8) == pytest.approx(0.5)

    def test_value_from_formula(self):
        # f_{0.5}(0) = erfc(sqrt(2)*0.5)/2 = erfc(1/sqrt(2))/2
        want = 0.5 * erfc_c(0.5 * math.sqrt(2.0))
        assert f_profile(0.5, 0.0) == pytest.approx(want.real, rel=1e-13)
        assert f_profile(0.5, 0.0).real == pytest.approx(0.15865525393145705, rel=1e-12)

    def test_derivative_matches_difference(self):
        z, u, h = 0.4 + 0.2j, 0.3, 1e-6
        fd = (f_profile(z, u + h) - f_profile(z, u - h)) / (2 * h)
        assert abs(f_profile_deriv(z, u) - fd) < 1e-9


class TestSpecs:
    def test_bad_kind(self):
        with pytest.raises(DomainError):
            LimitKernelSpec("bulk")

    def test_weak_needs_rho(self):
        with pytest.raises(DomainError):
            LimitKernelSpec("weak")

    def test_origin_needs_L(self):
        with pytest.raises(DomainError):
            LimitKernelSpec("origin")


class TestStrong:
    def test_diagonal_zero(self):
        assert kappa(BULK, 0.7, 0.7) == 0.0

    def test_bulk_closed_value(self):
        want = math.sqrt(math.pi) * math.e * 0.842700792949715
        assert kappa(BULK, 1.0, 0.0).real == pytest.approx(want, rel=1e-12)

    def test_edge_deep_bulk_agreement(self):
        z, w = -3.0, -2.5
        vb = kappa(BULK, z, w)
        ve = kappa(EDGE, z, w)
        assert abs(ve - vb) < 1e-6 * abs(vb)

    def test_inner_edge_is_the_outer_edge_mirrored(self):
        for z, w in ((0.4 + 0.3j, -0.7 + 0.2j), (-1.3 - 0.5j, 0.6 + 1.1j)):
            assert kappa(INNER, z, w) == kappa(EDGE, -w, -z)

    def test_inner_edge_deep_bulk_agreement(self):
        # the droplet lies on the inner edge's side Re z > 0
        z, w = 3.0, 2.5
        vb = kappa(BULK, z, w)
        assert abs(kappa(INNER, z, w) - vb) < 1e-6 * abs(vb)


class TestWeak:
    def test_diagonal_zero(self):
        assert kappa(WEAK, 0.3 + 0.1j, 0.3 + 0.1j) == pytest.approx(0.0, abs=1e-13)

    def test_antisymmetry(self):
        spec = LimitKernelSpec("weak", rho=1.5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)
            w = rng.normal(scale=0.5) + 1j * rng.normal(scale=0.5)
            a = kappa(spec, z, w)
            assert abs(a + kappa(spec, w, z)) <= 1e-10 * max(1.0, abs(a))

    def test_large_rho_recovers_bulk(self):
        z, w = 0.3, -0.1
        assert abs(kappa(LimitKernelSpec("weak", rho=25.0), z, w) - kappa(BULK, z, w)) < 1e-6


class TestOrigin:
    def test_diagonal_zero(self):
        assert kappa(LimitKernelSpec("origin", L=1.0), 0.4, 0.4) == pytest.approx(0.0, abs=1e-14)

    def test_L0_equals_bulk(self):
        for (z, w) in [(0.7, 0.2j), (0.4 + 0.2j, -0.3)]:
            a = kappa(LimitKernelSpec("origin", L=0.0), z, w)
            b = kappa(BULK, z, w)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    @pytest.mark.parametrize("twoL", [1.5, 2, 2.5, 4])
    def test_gamma_representation_agreement(self, twoL):
        L = twoL / 2.0
        for (z, w) in [(0.5, 0.3), (0.4 + 0.2j, 0.6)]:
            a = kappa(LimitKernelSpec("origin", L=L), z, w)
            b = kappa_origin_gamma_form(L, z, w)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a))

    @pytest.mark.parametrize("L", [0.3, 0.75, 1.25])
    def test_gamma_form_against_30_digit_oracle(self, L):
        # z w in each quadrant: at non-integer 2L the upper half plane once
        # took the wrong branch of (-1)^{-2L} (relative errors of order 1)
        for z, w in [(0.5, 0.3 + 0.4j), (-0.5, 0.3 - 0.4j), (-0.9 + 0.2j, 1.1 + 0.6j),
                     (1.2 - 0.7j, 0.4 + 1.3j)]:
            want = _kappa_mp(LimitKernelSpec("origin", L=L), z, w)
            assert abs(kappa_origin_gamma_form(L, z, w) - want) <= 1e-11 * abs(want), (z, w)

    @pytest.mark.parametrize("L", [0.0, 0.3, 0.5, 0.75, 1.0, 1.25, 2.0, 2.5])
    def test_gamma_form_matches_kappa_and_conjugation(self, L):
        rng = np.random.default_rng(int(4 * L))
        for _ in range(5):
            z, w = rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)
            got = kappa_origin_gamma_form(L, z, w)
            want = kappa(LimitKernelSpec("origin", L=L), z, w)
            assert abs(got - want) <= 1e-11 * abs(want), (z, w)
            mirror = kappa_origin_gamma_form(L, z.conjugate(), w.conjugate())
            assert abs(mirror - got.conjugate()) <= 1e-14 * abs(got), (z, w)

    @pytest.mark.parametrize("z, w", [(20.0, 19.8), (30.0, 0.1)])
    def test_gamma_form_overflow_is_typed(self, z, w):
        # kappa raises DoubleRangeError here too; no bare OverflowError, no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DoubleRangeError):
                kappa_origin_gamma_form(2.0, z, w)

    def test_branch_warning_on_negative_axis(self):
        with pytest.warns(BranchWarning):
            kappa(LimitKernelSpec("origin", L=0.75), 1.0, -1.0)

    @pytest.mark.parametrize("L, z, w", [
        (50.0, 25.0, 24.0),  # (2zw)^{2L} overflows, the integral does not underflow
        (400.0, 1.5 + 1j, -1 + 0.5j),  # both leave double range
        (200.0, 0.5 + 0.3j, 0.2 - 0.4j),  # every Mittag-Leffler term underflows to 0
    ])
    def test_kernel_outside_double_range_is_typed(self, L, z, w):
        with pytest.raises(DoubleRangeError):
            kappa(LimitKernelSpec("origin", L=L), z, w)

    def test_integrand_overflow_is_typed_at_the_first_rule(self, monkeypatch):
        # e^{z^2} and E_{2,5}((2 s z w)^2) overflow on the first rule's nodes:
        # no numpy warning and no doubling to a NaN Gauss gap
        calls = []

        def counted(*args):
            calls.append(args)
            return mittag_leffler(*args)

        monkeypatch.setattr(limits, "mittag_leffler", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DoubleRangeError):
                kappa(LimitKernelSpec("origin", L=2.0), 20.0, 19.8)
        assert len(calls) == 1


class TestDoubleRange:
    """Far from the origin e^{z^2+w^2} leaves double range on its own; the
    kernel, its damped form and the intensities need not."""

    @pytest.mark.parametrize("spec", [BULK, ORIGIN], ids=lambda s: s.kind)
    def test_kappa_beyond_double_range_is_typed(self, spec):
        # sqrt(pi) e^{729} erf(26.9) for the bulk; the origin's is as large
        with pytest.raises(DoubleRangeError) as info:
            kappa(spec, 27.0, 0.1)
        assert info.type is DoubleRangeError

    @pytest.mark.parametrize("spec", [EDGE, WEAK], ids=lambda s: s.kind)
    def test_kappa_below_double_range_is_not_an_error(self, spec):
        # 30-digit mpmath: 1.4e-319 (edge) and 1.5e-286 (weak), although the
        # factor e^{729} alone overflows
        assert abs(kappa(spec, 27.0, 0.1)) <= 1e-280

    def test_bulk_one_point_is_translation_invariant(self):
        # R1(x + iy) of the bulk does not depend on x; the entry's damping
        # cancels e^{2 Re z^2} inside one exp
        want = limit_rk(BULK, [0.5j])
        for x in (19.0, 27.0, 100.0):
            assert limit_rk(BULK, [x + 0.5j]) == pytest.approx(want, rel=1e-11)
        pair = [0.5j, 0.8 - 0.3j]
        assert limit_rk(BULK, [p + 27.0 for p in pair]) == pytest.approx(
            limit_rk(BULK, pair), rel=1e-11)

    @pytest.mark.parametrize("spec", [EDGE, WEAK], ids=lambda s: s.kind)
    def test_one_point_outside_the_droplet_vanishes(self, spec):
        assert 0.0 <= limit_rk(spec, [27.0 + 0.5j]) < 1e-12

    @pytest.mark.parametrize("spec", [BULK, EDGE, INNER, WEAK, ORIGIN], ids=lambda s: s.kind)
    def test_ode_residual_is_finite_far_out(self, spec):
        resid, diag = ode_residual(spec, 27.0 + 0.1j, 0.1)
        assert math.isfinite(resid) and resid < 1e-6
        assert diag < 1e-12


class TestOde:
    GRID = [complex(x, y) for x in (-0.6, -0.1, 0.4, 0.8) for y in (-0.5, 0.3)]

    @pytest.mark.parametrize(
        "spec",
        [
            BULK,
            EDGE,
            LimitKernelSpec("weak", rho=0.5),
            LimitKernelSpec("weak", rho=2.0),
            LimitKernelSpec("origin", L=0.0),
            LimitKernelSpec("origin", L=1.0),
        ],
        ids=lambda s: f"{s.kind}-{s.rho or s.L or ''}",
    )
    def test_residual_and_diagonal(self, spec):
        for z in self.GRID[:4]:
            for w in self.GRID[4:]:
                resid, diag = ode_residual(spec, z, w)
                assert resid < 1e-6
                assert diag < 1e-12

    def test_boundary_terms_are_load_bearing(self):
        # negative control: dropping the weak kernel's boundary terms must
        # break the ODE by an O(1) amount
        rho = 2.0
        half = rho / (2.0 * math.sqrt(2.0))
        z, w = 0.3, 0.2

        def k_no_boundary(zz):
            integral = wronskian_integral(zz, w, -half, half)
            return math.sqrt(math.pi) * cmath.exp(zz * zz + w * w) * integral * cmath.exp(
                -zz * zz - w * w
            )

        h = 1e-5
        dk = (k_no_boundary(z + h) - k_no_boundary(z - h)) / (2 * h)
        resid = abs(dk - limiting_f(Weak(rho=rho), z, w))
        assert resid > 1e-2


class TestKinds:
    """A regime names the kind of its own limit, so it selects the same
    kernel and the same F as the LimitKernelSpec of that kind."""

    # the grid of `check ode`
    CHECK_GRID = [complex(x, y) for x in (-0.6, 0.2, 0.7) for y in (-0.5, 0.4)]
    PAIRS = [
        (Strong(a=1.0, b=1.0, p=1.0), BULK),
        (Strong(a=1.0, b=1.0, p=math.sqrt(2.0)), EDGE),
        (Strong(a=1.0, b=1.0, p=math.sqrt(0.5)), INNER),
        (Weak(rho=2.0), WEAK),
        (Origin(L=2.0, b=1.0), ORIGIN),
    ]

    @pytest.mark.parametrize("kind", limits._KINDS)
    def test_ode_residual_for_every_kind(self, kind):
        spec = LimitKernelSpec(kind, rho=2.0 if kind == "weak" else None,
                               L=1.0 if kind == "origin" else None)
        for z in self.CHECK_GRID:
            for w in self.CHECK_GRID:
                resid, diag = ode_residual(spec, z, w)
                assert resid <= 1e-6 and diag < 1e-12, (z, w)

    @pytest.mark.parametrize("regime, spec", PAIRS, ids=lambda v: v.kind)
    def test_regime_selects_its_spec_bit_for_bit(self, regime, spec):
        assert regime.kind == spec.kind
        for z, w in ((0.4 + 0.3j, -0.7 + 0.2j), (-0.6 - 0.5j, 0.2 + 0.4j)):
            assert kappa(regime, z, w) == kappa(spec, z, w)
            assert limiting_f(spec, z, w) == limiting_f(regime, z, w)


class TestLimitRk:
    def test_real_point_zero(self):
        assert limit_rk(BULK, [0.9]) == 0.0

    def test_one_point_golden_value(self):
        # R1(iy) = 2 y sqrt(pi) erfi(2y) e^{-4y^2} from the erf closed form
        y = 1.0
        want = 2 * y * math.sqrt(math.pi) * erfi(2 * y) * math.exp(-4 * y * y)
        assert limit_rk(BULK, [1j * y]) == pytest.approx(want, rel=1e-10)

    def test_two_point_factorization_at_separation(self):
        z1, z2 = 0.5j, 6.0 + 0.5j
        r2 = limit_rk(BULK, [z1, z2])
        r1r1 = limit_rk(BULK, [z1]) * limit_rk(BULK, [z2])
        assert r2 == pytest.approx(r1r1, rel=1e-5)

    def test_weak_one_point_positive(self):
        spec = LimitKernelSpec("weak", rho=2.0)
        assert limit_rk(spec, [0.6j]) > 0.0

    @pytest.mark.parametrize("spec, points", CLOSE_POINTS)
    def test_close_points_pass_residue_check(self, spec, points):
        # |R3| cancels to 6e-14 (edge) and 1e-12 (weak) of the Hadamard scale
        # here, so the residue is judged against that scale, not against |R3|.
        # The value must still match the same entry matrix's Pfaffian in
        # 30-digit mpmath; double elimination keeps 7-8 digits here (7.0e-8
        # and 2.3e-8 relative), so the bound is 1e-6 relative.
        mpmath = pytest.importorskip("mpmath")
        got = limit_rk(spec, points)
        a = _entry_matrix(_limit_entry(spec), points)
        with mpmath.workdps(30):
            ref = _pfaffian_by_expansion([[mpmath.mpc(v) for v in row] for row in a])
            for p in points:
                ref *= mpmath.mpc(p.conjugate() - p)
            ref = complex(ref)
        assert abs(got - ref.real) <= 1e-6 * abs(ref)

    def test_broken_conjugate_symmetry_raises(self):
        entry = _limit_entry(BULK)

        for points in ([0.5j], [0.5j, 6.0 + 0.5j]):
            with pytest.raises(NumericalError):
                pfaffian_intensity(points, lambda x, y: (1 + 1e-3j) * entry(x, y), tol=1e-8)

    def test_residue_check_at_close_points(self):
        # R3 is 6e-14 of the Hadamard scale at these edge points.  A uniform
        # phase on the entries multiplies R3 by (1+1e-3j)^3: the residue,
        # 3e-3 |R3|, is far below 1e-8 of the scale and passes, and the real
        # part moves by the factor 1 - 3e-6.  An additive break of 1e-4j,
        # about 1% of the entries, leaves a residue of 1.5e-5 of the scale
        # and raises.
        points = CLOSE_POINTS[0][1]
        entry = _limit_entry(EDGE)
        r3 = pfaffian_intensity(points, entry, tol=1e-8)
        phased = pfaffian_intensity(points, lambda x, y: (1 + 1e-3j) * entry(x, y), tol=1e-8)
        assert phased == pytest.approx(r3 * (1 - 3e-6), rel=1e-8)
        with pytest.raises(NumericalError):
            pfaffian_intensity(points, lambda x, y: entry(x, y) + 1e-4j, tol=1e-8)


def test_library_runs_no_adaptive_quadrature(monkeypatch, tmp_path):
    # limits.quad and linstat.quad stay bound only for perfbench's tracer
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quad called")

    monkeypatch.setattr(limits, "quad", refuse)
    monkeypatch.setattr(linstat, "quad", refuse)
    kappa_origin_gamma_form(0.75, 0.5, 0.3 + 0.4j)
    params = EnsembleParams(N=5, n=11.0, L=1.0)
    stat = linstat.RadialStatistic.r_squared()
    linstat.asymptotic_mean(params, stat)
    linstat.asymptotic_variance(params, stat)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["linstat", "--b", "r2", "--N", "3", "--n", "6", "--L", "3",
                     "--trials", "2"]) == 0
