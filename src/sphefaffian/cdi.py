"""Christoffel-Darboux identity: closed right-hand sides for the kernel
derivative, their incomplete-beta resummations, the rescaled six-factor
form and the three limiting inhomogeneities.

The identity reads

    d/dzeta ktilde_N(zeta, eta)
        = (1+zeta^2)^{-(n+L+1/2)} (I_N - II_N - III_N),

with I_N a binomial-type sum in p = zeta*eta/(1+zeta*eta) and II_N, III_N
binomial-type sums in q = eta^2/(1+eta^2).  Each sum also equals a
difference of two regularised incomplete beta values, which is the form
whose large-N asymptotics produce the limiting kernels.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from .errors import DomainError, PoleError
from .params import EnsembleParams, Origin, RegimeSpec, Strong, Weak, local_scale_delta
from .specfun import erfc_c, inc_gamma_entire_part, reg_inc_beta

__all__ = [
    "CdiFractions",
    "CdiTerms",
    "RescaledCdiTerms",
    "cdi_fractions",
    "cdi_rhs",
    "cdi_rhs_beta_form",
    "cdi_derivative",
    "cdi_residual",
    "rescaled_cdi_terms",
    "limiting_f",
]

_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class CdiFractions:
    """The two Moebius fractions entering the CDI sums."""

    p_frak: complex
    q_frak: complex


@dataclass(frozen=True)
class CdiTerms:
    """The three right-hand-side terms I_N, II_N, III_N."""

    term1: complex
    term2: complex
    term3: complex

    @property
    def combined(self) -> complex:
        return self.term1 - self.term2 - self.term3


@dataclass(frozen=True)
class RescaledCdiTerms:
    """Six factors of the rescaled identity: dz kappa_tilde = I1*I2 - II1*II2 - III1*III2."""

    i1: complex
    i2: complex
    ii1: complex
    ii2: complex
    iii1: complex
    iii2: complex

    @property
    def combined(self) -> complex:
        return self.i1 * self.i2 - self.ii1 * self.ii2 - self.iii1 * self.iii2


def cdi_fractions(zeta: complex, eta: complex) -> CdiFractions:
    zeta, eta = complex(zeta), complex(eta)
    if 1.0 + zeta * eta == 0 or 1.0 + eta * eta == 0:
        raise PoleError("CDI fractions undefined at zeta*eta = -1 or eta^2 = -1")
    return CdiFractions(
        p_frak=zeta * eta / (1.0 + zeta * eta), q_frak=eta * eta / (1.0 + eta * eta)
    )


def _sum_term1(params: EnsembleParams, p: complex) -> complex:
    n, L, N = params.n, params.L, params.N
    ks = np.arange(2 * N, dtype=float)
    lbin = gammaln(2 * n + 2 * L) - gammaln(ks + 2 * L + 1) - gammaln(2 * n - ks)
    if p == 0:
        # only the k with exponent k+2L = 0 survives (k = 0, L = 0)
        return complex(np.exp(lbin[0])) if L == 0 else 0.0 + 0.0j
    lp = cmath.log(p)
    lq = cmath.log(1.0 - p)
    t = lbin + (ks + 2 * L) * lp + (2 * n - ks - 1) * lq
    return complex(np.sum(np.exp(t)))


def _raw_term1(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """Branch-consistent I_N: the prefactor (1+zeta*eta)^{2n+2L-1} is fused
    into the sum, leaving powers of zeta*eta with per-variable principal
    logs -- the same convention the kernel's double sum uses."""
    n, L, N = params.n, params.L, params.N
    ks = np.arange(2 * N, dtype=float)
    lco = gammaln(2 * n + 2 * L + 2) - math.log(2.0) - gammaln(ks + 2 * L + 1) - gammaln(2 * n - ks)
    if zeta == 0 or eta == 0:
        if L == 0:
            return complex(np.exp(lco[0]))
        return 0.0 + 0.0j
    lze = cmath.log(zeta) + cmath.log(eta)
    t = lco + (ks + 2 * L) * lze
    m = float(np.max(t.real))
    return cmath.exp(m) * complex(np.sum(np.exp(t - m)))


def _raw_term2(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    n, L, N = params.n, params.L, params.N
    if zeta == 0:
        return 0.0 + 0.0j
    ks = np.arange(N, dtype=float)
    lco = (
        _LOG_PI
        + gammaln(2 * n + 2 * L + 2)
        - (2 * L + 2 * n) * math.log(2.0)
        - gammaln(N + L + 0.5)
        - gammaln(n - N)
        - gammaln(n - ks + 0.5)
        - gammaln(ks + L + 1.0)
    )
    lz = (2 * N + 2 * L) * cmath.log(zeta)
    if eta == 0:
        if L == 0:
            return cmath.exp(lco[0] + lz)
        return 0.0 + 0.0j
    le = cmath.log(eta)
    t = lco + lz + (2 * ks + 2 * L) * le
    m = float(np.max(t.real))
    return cmath.exp(m) * complex(np.sum(np.exp(t - m)))


def _raw_term3(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    n, L, N = params.n, params.L, params.N
    if L <= 0 or zeta == 0 or eta == 0:
        return 0.0 + 0.0j
    ks = np.arange(N, dtype=float)
    lco = (
        _LOG_PI
        + gammaln(2 * n + 2 * L + 2)
        - (2 * L + 2 * n) * math.log(2.0)
        - gammaln(n + 0.5)
        - gammaln(L)
        - gammaln(n - ks)
        - gammaln(ks + L + 1.5)
    )
    t = lco + (2 * L - 1) * cmath.log(zeta) + (2 * ks + 2 * L + 1) * cmath.log(eta)
    m = float(np.max(t.real))
    return cmath.exp(m) * complex(np.sum(np.exp(t - m)))


def _sum_term2(params: EnsembleParams, q: complex) -> complex:
    n, L, N = params.n, params.L, params.N
    ks = np.arange(N, dtype=float)
    lbin = gammaln(n + L + 0.5) - gammaln(ks + L + 1.0) - gammaln(n - ks + 0.5)
    if q == 0:
        if L == 0:
            return complex(np.exp(lbin[0]))
        return 0.0 + 0.0j
    lq_ = cmath.log(q)
    l1q = cmath.log(1.0 - q)
    t = lbin + (ks + L) * lq_ + (n - ks - 0.5) * l1q
    return complex(np.sum(np.exp(t)))


def _sum_term3(params: EnsembleParams, q: complex) -> complex:
    n, L, N = params.n, params.L, params.N
    ks = np.arange(N, dtype=float)
    lbin = gammaln(n + L + 0.5) - gammaln(ks + L + 1.5) - gammaln(n - ks)
    if q == 0:
        return 0.0 + 0.0j  # exponents k+L+1/2 > 0 always
    lq_ = cmath.log(q)
    l1q = cmath.log(1.0 - q)
    t = lbin + (ks + L + 0.5) * lq_ + (n - ks - 1.0) * l1q
    return complex(np.sum(np.exp(t)))


def _prefactors(params: EnsembleParams, zeta: complex, eta: complex):
    """log-prefactors multiplying the three sums (before the global
    (1+zeta^2)^{-(n+L+1/2)} of the identity)."""
    n, L, N = params.n, params.L, params.N
    oz = 1.0 + zeta * zeta
    oe = 1.0 + eta * eta
    oze = 1.0 + zeta * eta
    if oze == 0 or oe == 0:
        raise PoleError("CDI right-hand side has a pole at zeta*eta = -1 or eta = +-i")
    lg1 = (
        (2 * n + 2 * L - 1) * cmath.log(oze)
        - (n + L - 0.5) * cmath.log(oe)
        + math.log(2 * n + 2 * L + 1)
        + math.log(n + L)
    )
    base2 = _LOG_PI + gammaln(2 * n + 2 * L + 2) - (2 * L + 2 * n) * math.log(2.0) - gammaln(
        n + L + 0.5
    )
    lg2 = None
    lg3 = None
    if zeta != 0:
        lg2 = base2 - gammaln(N + L + 0.5) - gammaln(n - N) + (2 * N + 2 * L) * cmath.log(zeta)
        if L > 0:
            lg3 = base2 - gammaln(n + 0.5) - gammaln(L) + (2 * L - 1) * cmath.log(zeta)
    return lg1, lg2, lg3


def cdi_rhs(params: EnsembleParams, zeta: complex, eta: complex) -> CdiTerms:
    """The three CDI terms by their direct finite sums (log-domain assembly).

    Each term is assembled in the pre-identity raw form with the
    (1+zeta*eta) and (1+eta^2) prefactor powers fused into the sums and
    powers of zeta, eta taken with per-variable principal logs.  In the
    region where the Moebius fractions stay off their cuts this equals
    the displayed binomial form term by term; elsewhere it is the branch
    that matches the kernel's own power convention, so the derivative
    identity holds on all of C^2 minus the poles.

    Conventions: 1/Gamma(L) -> 0 at L = 0 makes term3 vanish identically;
    at zeta = 0 term2 and term3 vanish through their zeta powers (term3
    would diverge for 0 < L < 1/2 -- a PoleError).
    """
    zeta, eta = complex(zeta), complex(eta)
    oe = 1.0 + eta * eta
    if oe == 0 or 1.0 + zeta * eta == 0:
        raise PoleError("CDI right-hand side has a pole at zeta*eta = -1 or eta = +-i")
    if zeta == 0 and 0 < params.L < 0.5:
        raise PoleError("term III diverges at zeta = 0 for 0 < L < 1/2")
    lw = -(params.nl - 0.5) * cmath.log(oe)
    weight = cmath.exp(lw)
    return CdiTerms(
        term1=weight * _raw_term1(params, zeta, eta),
        term2=weight * _raw_term2(params, zeta, eta),
        term3=weight * _raw_term3(params, zeta, eta),
    )


def cdi_rhs_beta_form(params: EnsembleParams, zeta: complex, eta: complex) -> CdiTerms:
    """Same three terms with each sum replaced by its incomplete-beta form.

    I-sum  = I_p(2L, 2n)      - I_p(2N+2L, 2n-2N)
    II-sum = I_q(L, n+1/2)    - I_q(N+L, n-N+1/2)
    III-sum= I_q(L+1/2, n)    - I_q(N+L+1/2, n-N)
    with the a = 0 degenerate case I_x(0, b) = 1 (x != 0).
    """
    zeta, eta = complex(zeta), complex(eta)
    n, L, N = params.n, params.L, params.N
    fr = cdi_fractions(zeta, eta)
    lg1, lg2, lg3 = _prefactors(params, zeta, eta)

    def beta_diff(x, a_lo, b_lo, a_hi, b_hi):
        # a = 0 degenerates to unit mass at the lower end: I_x(0, b) = 1
        lo = 1.0 + 0.0j if a_lo == 0 else reg_inc_beta(x, a_lo, b_lo)
        hi = reg_inc_beta(x, a_hi, b_hi)
        return lo - hi

    s1 = beta_diff(fr.p_frak, 2 * L, 2 * n, 2 * N + 2 * L, 2 * n - 2 * N)
    t1 = cmath.exp(lg1) * s1
    if zeta == 0:
        return CdiTerms(term1=t1, term2=0.0 + 0.0j, term3=0.0 + 0.0j)
    s2 = beta_diff(fr.q_frak, L, n + 0.5, N + L, n - N + 0.5)
    t2 = cmath.exp(lg2) * s2
    if L > 0:
        s3 = beta_diff(fr.q_frak, L + 0.5, n, N + L + 0.5, n - N)
        t3 = cmath.exp(lg3) * s3
    else:
        t3 = 0.0 + 0.0j
    return CdiTerms(term1=t1, term2=t2, term3=t3)


def cdi_derivative(params: EnsembleParams, zeta: complex, eta: complex,
                   beta_form: bool = False) -> complex:
    """d/dzeta of the skew-kernel assembled from the closed-form RHS."""
    zeta = complex(zeta)
    oz = 1.0 + zeta * zeta
    if oz == 0:
        raise PoleError("derivative has a pole at zeta = +-i")
    terms = cdi_rhs_beta_form(params, zeta, eta) if beta_form else cdi_rhs(params, zeta, eta)
    return cmath.exp(-(params.nl + 0.5) * cmath.log(oz)) * terms.combined


def cdi_residual(params: EnsembleParams, zeta: complex, eta: complex) -> float:
    """Relative residual between the exact term-by-term kernel derivative
    and the closed-form right-hand side.  The derivative route never sees
    the RHS formulas, so this is a genuine two-sided identity check."""
    from .finitekernel import skew_kernel_tilde_dzeta

    lhs = skew_kernel_tilde_dzeta(params, zeta, eta)
    rhs = cdi_derivative(params, zeta, eta)
    denom = max(abs(lhs), abs(rhs))
    if denom == 0:
        return 0.0
    return abs(lhs - rhs) / denom


def rescaled_cdi_terms(
    params: EnsembleParams, regime: RegimeSpec, z: complex, w: complex
) -> RescaledCdiTerms:
    """The six factors of the rescaled CDI at the regime's zoom point.

    dz kappa_tilde_N(z, w) = I1*I2 - II1*II2 - III1*III2 with the (1)
    factors carrying all prefactors (including the (1+p^2)^-3 (N delta)^-2
    rescaling) and the (2) factors being the order-one binomial sums.
    """
    from .finitekernel import _check_regime

    _check_regime(params, regime)
    n, L, N = params.n, params.L, params.N
    p = regime.p
    d = local_scale_delta(params, p)
    s = math.sqrt(N * d)
    zeta = p + complex(z) / s
    eta = p + complex(w) / s
    fr = cdi_fractions(zeta, eta)
    oz = 1.0 + zeta * zeta

    lresc = -3.0 * math.log1p(p * p) - 2.0 * math.log(N * d)
    lg1, lg2, lg3 = _prefactors(params, zeta, eta)
    # lg1 carries I's prefactor without the identity's global
    # (1+zeta^2)^{-(n+L+1/2)}; fold that in along with the rescaling.
    i1 = cmath.exp(lresc + lg1 - (n + L + 0.5) * cmath.log(oz))
    i2 = _sum_term1(params, fr.p_frak)
    if zeta == 0:
        ii1 = iii1 = 0.0 + 0.0j
    else:
        ii1 = cmath.exp(lresc + lg2 - (n + L + 0.5) * cmath.log(oz))
        iii1 = (
            cmath.exp(lresc + lg3 - (n + L + 0.5) * cmath.log(oz))
            if L > 0
            else 0.0 + 0.0j
        )
    ii2 = _sum_term2(params, fr.q_frak)
    iii2 = _sum_term3(params, fr.q_frak)
    return RescaledCdiTerms(i1=i1, i2=i2, ii1=ii1, ii2=ii2, iii1=iii1, iii2=iii2)


def limiting_f(regime: RegimeSpec, z: complex, w: complex, variant: str | None = None) -> complex:
    """Limiting inhomogeneity F of the kernel ODE for the given regime.

    variant, when given, must agree with the regime type:
    's' for Strong, 'w' for Weak, 'o' for Origin.
    """
    z, w = complex(z), complex(w)
    if isinstance(regime, Strong):
        if variant not in (None, "s"):
            raise DomainError(f"variant {variant!r} inconsistent with Strong regime")
        if not regime.at_edge:
            return 2.0 * cmath.exp(-((z - w) ** 2))
        return cmath.exp(-((z - w) ** 2)) * erfc_c(z + w) - cmath.exp(
            -2.0 * z * z
        ) / math.sqrt(2.0) * erfc_c(math.sqrt(2.0) * w)
    if isinstance(regime, Weak):
        if variant not in (None, "w"):
            raise DomainError(f"variant {variant!r} inconsistent with Weak regime")
        rho = regime.rho
        g1 = erfc_c(z + w - rho / math.sqrt(2.0)) - erfc_c(z + w + rho / math.sqrt(2.0))
        g2 = erfc_c(math.sqrt(2.0) * w - rho / 2.0) - erfc_c(math.sqrt(2.0) * w + rho / 2.0)
        gauss = cmath.exp(-((math.sqrt(2.0) * z - rho / 2.0) ** 2)) + cmath.exp(
            -((math.sqrt(2.0) * z + rho / 2.0) ** 2)
        )
        return cmath.exp(-((z - w) ** 2)) * g1 - gauss * g2 / math.sqrt(2.0)
    if isinstance(regime, Origin):
        if variant not in (None, "o"):
            raise DomainError(f"variant {variant!r} inconsistent with Origin regime")
        L = regime.L
        first = 2.0 * cmath.exp(-((z - w) ** 2))
        if L == 0:
            return first  # P(0, .) == 1 and 1/Gamma(0) == 0 conventions
        # P(2L, 2zw) with the same principal (2zw)^{2L} as the kernel itself
        # (exact entire power for integer 2L); P(L+1/2, w^2) taken in its
        # odd-in-w continuation w^{2L+1} e^{-w^2} E_{L+1/2}(w^2), which is
        # what the identity analytically continues to off the real axis.
        zw = z * w
        first *= (
            cmath.exp(2 * L * cmath.log(2 * zw) - 2 * zw)
            * inc_gamma_entire_part(2 * L, 2 * zw)
            if zw != 0
            else 0.0
        )
        if z == 0:
            if L < 0.5:
                raise PoleError("F_origin diverges at z = 0 for 0 < L < 1/2")
            zpow = 1.0 if L == 0.5 else 0.0  # z^{2L-1} at z = 0
        else:
            zpow = cmath.exp((2 * L - 1) * cmath.log(z) - z * z)
        p_odd = (
            w ** (2 * L + 1) * cmath.exp(-w * w) * inc_gamma_entire_part(L + 0.5, w * w)
            if w != 0
            else 0.0
        )
        second = 2.0 * math.sqrt(math.pi) * float(rgamma(L)) * zpow * p_odd
        return first - second
    raise DomainError(f"unknown regime {regime!r}")
