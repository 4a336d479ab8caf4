import cmath
import math

import numpy as np
import pytest

from sphefaffian import cdi
from sphefaffian.errors import NumericalError, PoleError
from sphefaffian.params import EnsembleParams, Origin, Strong, Weak, local_scale_delta
from sphefaffian.cdi import (
    beta_gap,
    cdi_derivative,
    cdi_residual,
    cdi_rhs,
    cdi_rhs_beta_form,
    limiting_f,
    rescaled_cdi_terms,
)
from sphefaffian.finitekernel import rescaled_kernel, skew_kernel_tilde_dzeta
from sphefaffian.specfun import _relative_gap, _unscale, erfc_c, reg_inc_gamma_p

TRIPLES = [(2, 4, 0.0), (3, 6, 1.0), (4, 9, 2.5)]


class TestIdentity:
    def test_term3_vanishes_without_charge(self):
        pa = EnsembleParams(N=3, n=6.0, L=0.0)
        terms = cdi_rhs(pa, 0.3 + 0.2j, 0.5 - 0.1j)
        assert terms.term3 == 0.0

    def test_residual_at_spec_point(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        assert cdi_residual(pa, 0.3 + 0.2j, 0.5 - 0.1j) < 1e-8

    @pytest.mark.parametrize("N,n,L", TRIPLES)
    def test_residual_grid(self, N, n, L):
        pa = EnsembleParams(N=N, n=float(n), L=L)
        for x in np.linspace(-0.5, 0.5, 5):
            for y in np.linspace(-0.4, 0.4, 5):
                z = complex(x, y) + 0.05  # keep away from exact zero
                e = complex(y, x) + 0.35
                assert cdi_residual(pa, z, e) < 1e-8

    @pytest.mark.parametrize("L", [0.0, 0.5, 1.0])
    def test_residual_at_zeta_zero(self, L):
        # at L = 1/2 term III keeps zeta^0 = 1 at zeta = 0
        pa = EnsembleParams(N=3, n=6.0, L=L)
        assert cdi_residual(pa, 0.0, 0.3 + 0.1j) < 1e-8

    @pytest.mark.parametrize("fn", [cdi_rhs, cdi_rhs_beta_form])
    def test_pole_at_zeta_eta_minus_one(self, fn):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        zeta = 0.5 + 0.5j  # eta = -1/zeta = -1 + 1j, so 1 + zeta eta is exactly 0
        with pytest.raises(PoleError):
            fn(pa, zeta, -1.0 / zeta)

    def test_residual_finite_where_sides_exceed_double_range(self):
        pa = Strong(a=1.0, b=1.0, p=1.0).params_at(400)
        assert cdi_residual(pa, 1.3 + 0.1j, -0.4 + 0.3j) <= 1e-8

    def test_term_beyond_double_range_is_a_numerical_error(self):
        # a term of cdi_rhs lies beyond double range here; the derivative,
        # whose weight meets the terms before the one exp, does not
        pa = Strong(a=1.0, b=1.0, p=1.0).params_at(400)
        with pytest.raises(NumericalError):
            cdi_rhs(pa, 0.9 - 0.6j, 0.3 + 0.2j)
        assert cmath.isfinite(cdi_derivative(pa, 0.9 - 0.6j, 0.3 + 0.2j))

    @pytest.mark.parametrize("N", [400, 1000])
    def test_derivative_forms_agree_where_terms_exceed_double_range(self, N):
        pa = Strong(a=1.0, b=1.0, p=1.0).params_at(N)
        z, e = 0.9 - 0.6j, 0.3 + 0.2j
        direct = cdi_derivative(pa, z, e)
        beta = _unscale(*cdi._log_derivative(pa, z, cdi._log_beta_terms(pa, z, e)))
        assert cmath.isfinite(direct)
        assert abs(direct - beta) <= 1e-11 * abs(direct)

    def test_identity_second_parameter_set(self):
        # (1+z^2) d khat - 2 z (n+L-1/2) khat equals the three raw sums,
        # checked through the weighted form: both sides here are the full
        # derivative identity with an independently computed left side
        pa = EnsembleParams(N=2, n=4.0, L=1.0)
        z, e = 0.21 + 0.13j, -0.44 + 0.37j
        lhs = skew_kernel_tilde_dzeta(pa, z, e)
        rhs = cdi_derivative(pa, z, e)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestBetaForm:
    @pytest.mark.parametrize("N,n,L", [(4, 9, 1.5), (3, 6, 1.0), (2, 4, 0.0)])
    def test_agreement_real_points(self, N, n, L):
        pa = EnsembleParams(N=N, n=float(n), L=L)
        a = cdi_rhs(pa, 0.2, 0.35)
        b = cdi_rhs_beta_form(pa, 0.2, 0.35)
        for x, y in ((a.term1, b.term1), (a.term2, b.term2), (a.term3, b.term3)):
            denom = max(abs(x), abs(y))
            if denom > 0:
                assert abs(x - y) <= 1e-9 * denom

    def test_agreement_complex_continuation(self):
        pa = EnsembleParams(N=4, n=9.0, L=1.5)
        a = cdi_rhs(pa, 0.2, 0.35 + 0.05j)
        b = cdi_rhs_beta_form(pa, 0.2, 0.35 + 0.05j)
        for x, y in ((a.term1, b.term1), (a.term2, b.term2), (a.term3, b.term3)):
            assert abs(x - y) <= 1e-8 * max(abs(x), abs(y))

    @staticmethod
    def _check_beta_points():
        # the 15 points of `check beta`
        rng = np.random.default_rng(2)
        for _ in range(15):
            z = rng.uniform(0.05, 0.5) + 1j * rng.uniform(-0.05, 0.05)
            e = rng.uniform(0.05, 0.5) + 1j * rng.uniform(-0.05, 0.05)
            yield z, e

    def test_beta_gap_is_the_per_term_rule(self):
        # beta_gap is the largest per-term relative gap of the two forms'
        # (scale, mantissa) terms at their common scale; at the points of
        # `check beta --N 4 --n 9 --L 1.5` every term is in double range, so
        # it is the linear-space |a-b| / max(|a|, |b|) up to rounding
        pa = EnsembleParams(N=4, n=9.0, L=1.5)
        for z, e in self._check_beta_points():
            gaps = [_relative_gap(x, y) for x, y in
                    zip(cdi._log_terms(pa, z, e), cdi._log_beta_terms(pa, z, e))]
            assert beta_gap(pa, z, e) == max(gaps)
            a, b = cdi_rhs(pa, z, e), cdi_rhs_beta_form(pa, z, e)
            linear = max(abs(x - y) / max(abs(x), abs(y)) for x, y in
                         ((a.term1, b.term1), (a.term2, b.term2), (a.term3, b.term3)))
            assert abs(beta_gap(pa, z, e) - linear) <= 2e-15

    def test_terms_below_double_range_are_compared(self):
        # at `check beta --N 400 --n 800 --L 400` 28 of the 45 terms read 0
        # through cdi_rhs; at their common scale every term pair still agrees
        pa = EnsembleParams(N=400, n=800.0, L=400.0)
        zeros = 0
        for z, e in self._check_beta_points():
            a = cdi_rhs(pa, z, e)
            zeros += sum(t == 0 for t in (a.term1, a.term2, a.term3))
            for x, y in zip(cdi._log_terms(pa, z, e), cdi._log_beta_terms(pa, z, e)):
                assert x[1] != 0 and y[1] != 0
                assert _relative_gap(x, y) <= 1e-11
        assert zeros == 28

    def test_beta_gap_propagates_nan(self, monkeypatch):
        monkeypatch.setattr("sphefaffian.cdi.reg_inc_beta", lambda *_a: (0.0, math.nan))
        assert math.isnan(beta_gap(EnsembleParams(N=4, n=9.0, L=1.5), 0.2, 0.35))

    def test_q_sums_vanish_at_origin_eta(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        terms = cdi_rhs_beta_form(pa, 0.3, 0.0)
        assert terms.term2 == 0.0  # q = 0 makes I_0(a>0, b) = 0
        assert terms.term3 == 0.0

    def test_beta_vs_derivative_oracle(self):
        pa = EnsembleParams(N=3, n=6.0, L=1.0)
        z, e = 0.28, 0.41
        lhs = skew_kernel_tilde_dzeta(pa, z, e)
        t = cdi_rhs_beta_form(pa, z, e)
        rhs = (1 + z * z) ** -(pa.nl + 0.5) * (t.term1 - t.term2 - t.term3)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


class TestRescaledIdentity:
    @pytest.mark.parametrize(
        "regime,N,z,w",
        [
            pytest.param(Strong(a=1.0, b=1.0, p=1.0), 20, 0.3, 0.1j, id="regime0-20"),
            pytest.param(Weak(rho=2.0), 20, 0.3, 0.1j, id="regime1-20"),
            pytest.param(Origin(L=1.0, b=1.0), 20, 0.3, 0.1j, id="regime2-20"),
            # zeta = 0, where II1 = III1 = 0
            pytest.param(Origin(L=1.0, b=1.0), 20, 0.0, 0.3, id="regime3-20"),
        ],
    )
    def test_six_factor_identity_vs_finite_difference(self, regime, N, z, w):
        pa = regime.params_at(N)
        terms = rescaled_cdi_terms(pa, regime, z, w)
        h = 1e-5
        d1 = (rescaled_kernel(pa, regime, z + h, w) - rescaled_kernel(pa, regime, z - h, w)) / (2 * h)
        d2 = (rescaled_kernel(pa, regime, z + 2 * h, w) - rescaled_kernel(pa, regime, z - 2 * h, w)) / (4 * h)
        richardson = (4.0 * d1 - d2) / 3.0
        assert abs(terms.combined - richardson) <= 1e-6 * max(1.0, abs(richardson))

    def test_zoomed_pole_is_a_pole_error(self):
        # z = (i - 1) sqrt(N delta) puts the zoomed zeta = p + z / sqrt(N delta) at i
        regime = Strong(a=1.0, b=1.0, p=1.0)
        pa = regime.params_at(20)
        z = (1j - 1.0) * math.sqrt(20 * local_scale_delta(pa, 1.0))
        for fn in (rescaled_kernel, rescaled_cdi_terms):
            with pytest.raises(PoleError):
                fn(pa, regime, z, 0.1j)

    def test_strong_bulk_first_factor_limit(self):
        # I1 -> 2 e^{-(z-w)^2} with decreasing error over an N sweep
        regime = Strong(a=1.0, b=1.0, p=1.0)
        z, w = 0.3, 0.2j
        want = 2.0 * cmath.exp(-((z - w) ** 2))
        errs = []
        for N in (50, 100, 200):
            terms = rescaled_cdi_terms(regime.params_at(N), regime, z, w)
            errs.append(abs(terms.i1 - want))
        assert errs[0] > errs[1] > errs[2]

    def test_strong_bulk_boundary_factors_decay(self):
        # II1, III1 are exponentially small in the interior; the test uses
        # the N^{-2} proxy bound at the largest N
        regime = Strong(a=1.0, b=1.0, p=1.0)
        z, w = 0.3, 0.2j
        maxN = 200
        terms = rescaled_cdi_terms(regime.params_at(maxN), regime, z, w)
        assert abs(terms.ii1) < maxN ** -2
        assert abs(terms.iii1) < maxN ** -2
        # and they decay monotonically across the sweep
        seq2, seq3 = [], []
        for N in (50, 100, 200):
            t = rescaled_cdi_terms(regime.params_at(N), regime, z, w)
            seq2.append(abs(t.ii1))
            seq3.append(abs(t.iii1))
        assert seq2[0] > seq2[1] > seq2[2]
        assert seq3[0] > seq3[1] > seq3[2]

    def test_strong_edge_second_factor_erfc(self):
        # at p = r2 the first sum tends to erfc(z+w)/2
        regime = Strong(a=1.0, b=1.0, p=math.sqrt(2.0))
        z, w = 0.25, 0.1
        want = 0.5 * erfc_c(z + w)
        errs = []
        for N in (50, 100, 200):
            terms = rescaled_cdi_terms(regime.params_at(N), regime, z, w)
            errs.append(abs(terms.i2 - want))
        assert errs[0] > errs[1] > errs[2]

    def test_weak_factor_limits(self):
        regime = Weak(rho=2.0)
        rho = 2.0
        z, w = 0.3, 0.15
        want_ii1 = math.sqrt(2.0) * cmath.exp(-((math.sqrt(2.0) * z - rho / 2.0) ** 2))
        want_iii1 = math.sqrt(2.0) * cmath.exp(-((math.sqrt(2.0) * z + rho / 2.0) ** 2))
        want_i2 = 0.5 * (erfc_c(z + w - rho / math.sqrt(2)) - erfc_c(z + w + rho / math.sqrt(2)))
        errs = {k: [] for k in ("ii1", "iii1", "i2")}
        for N in (30, 60, 120):
            t = rescaled_cdi_terms(regime.params_at(N), regime, z, w)
            errs["ii1"].append(abs(t.ii1 - want_ii1))
            errs["iii1"].append(abs(t.iii1 - want_iii1))
            errs["i2"].append(abs(t.i2 - want_i2))
        for seq in errs.values():
            assert seq[0] > seq[2]
            assert seq[2] < 0.05

    def test_origin_factor_limits(self):
        regime = Origin(L=1.0, b=1.0)
        z, w = 0.4, 0.3
        want_iii1 = 2.0 * math.sqrt(math.pi) * z * math.exp(-z * z)  # L = 1
        want_i2 = reg_inc_gamma_p(2.0, 2 * z * w)
        want_iii2 = reg_inc_gamma_p(1.5, w * w)
        errs = {k: [] for k in ("iii1", "i2", "iii2", "ii1")}
        for N in (50, 100, 200):
            t = rescaled_cdi_terms(regime.params_at(N), regime, z, w)
            errs["iii1"].append(abs(t.iii1 - want_iii1))
            errs["i2"].append(abs(t.i2 - want_i2))
            errs["iii2"].append(abs(t.iii2 - want_iii2))
            errs["ii1"].append(abs(t.ii1))
        for key in ("iii1", "i2", "iii2"):
            assert errs[key][0] > errs[key][2]
        assert errs["ii1"][2] < 200 ** -2


class TestLimitingF:
    def test_strong_bulk_diagonal(self):
        assert limiting_f(Strong(a=1.0, b=1.0, p=1.0), 0.4, 0.4) == pytest.approx(2.0)

    def test_origin_L0_reduces_to_bulk(self):
        reg0 = Origin(L=0.0, b=1.0)
        regs = Strong(a=1.0, b=1.0, p=1.0)
        for (z, w) in [(0.3, 0.2), (0.5 + 0.1j, -0.2)]:
            assert abs(limiting_f(reg0, z, w) - limiting_f(regs, z, w)) < 1e-14

    def test_weak_large_rho_tends_to_bulk(self):
        z, w = 0.2, 0.1
        want = limiting_f(Strong(a=1.0, b=1.0, p=1.0), z, w)
        got = limiting_f(Weak(rho=20.0), z, w)
        assert abs(got - want) < 1e-10

    def test_edge_form_selected_at_limit_radius(self):
        reg = Strong(a=1.0, b=1.0, p=math.sqrt(2.0))
        z, w = 0.2, 0.1
        want = cmath.exp(-((z - w) ** 2)) * erfc_c(z + w) - cmath.exp(
            -2 * z * z
        ) / math.sqrt(2.0) * erfc_c(math.sqrt(2.0) * w)
        assert abs(limiting_f(reg, z, w) - want) < 1e-14
