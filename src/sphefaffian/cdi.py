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

Large n+L puts single terms far outside double range, so the sums and the
incomplete betas are carried in specfun's (scale, mantissa) convention: a
value is exp(scale) * mantissa with a complex scale, a zero mantissa
marking a vanishing factor.  Each term is exponentiated once, after its
weight, and one still beyond double range raises DoubleRangeError (a
NumericalError); cdi_residual compares its two sides at their common
scale, so it never overflows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, rgamma

from .errors import DomainError, PoleError
from .finitekernel import _kernel_dzeta_scaled, _log, _power_sum, _zoom
from .params import EnsembleParams, Origin, RegimeSpec, Strong, Weak
from .specfun import (
    _common_scale,
    _relative_gap,
    _unscale,
    erfc_c,
    inc_gamma_entire_part,
    reg_inc_beta,
)

__all__ = [
    "CdiTerms",
    "RescaledCdiTerms",
    "cdi_rhs",
    "cdi_rhs_beta_form",
    "cdi_derivative",
    "cdi_residual",
    "beta_gap",
    "rescaled_cdi_terms",
    "limiting_f",
]

_LOG_PI = math.log(math.pi)


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


def _power(lc: float, e: float, lz):
    """exp(lc) zeta^e as (scale, mantissa), with lz = log zeta or None at zeta = 0."""
    if lz is not None:
        return lc + e * lz, 1.0
    if e < 0:
        raise PoleError(f"CDI prefactor zeta^{e:g} diverges at zeta = 0")
    return (lc, 1.0) if e == 0 else (0.0, 0.0)


def _log_prefactors(params: EnsembleParams, zeta: complex, eta: complex):
    """Prefactors of I_N, II_N, III_N as (scale, mantissa) pairs: the constant
    (2n+2L+1)(n+L), and zeta^{2N+2L} and zeta^{2L-1} times gamma ratios,
    1/Gamma(L) making III vanish at L = 0."""
    n, L, N, nl = params.n, params.L, params.N, params.nl
    if 1.0 + zeta * eta == 0 or 1.0 + eta * eta == 0:
        raise PoleError("CDI sums have a pole at zeta*eta = -1 or eta = +-i")
    lz = _log(zeta)
    lc = _LOG_PI + gammaln(2 * nl + 2) - 2 * nl * math.log(2.0) - gammaln(nl + 0.5)
    return (
        (math.log(2 * nl + 1) + math.log(nl), 1.0),
        _power(lc - gammaln(N + L + 0.5) - gammaln(n - N), 2 * N + 2 * L, lz),
        _power(lc - gammaln(n + 0.5) - gammaln(L), 2 * L - 1, lz) if L > 0 else (0.0, 0.0),
    )


def _log_sums(params: EnsembleParams, zeta: complex, eta: complex):
    """I_N, II_N, III_N before the weight (1+eta^2)^{-(n+L-1/2)}, as one
    (prefactor, power sum) pair of (scale, mantissa) pairs per term.  The
    power sums are the binomial sums in p and q times (1+zeta eta)^{2n+2L-1}
    (I) or (1+eta^2)^{n+L-1/2} (II, III):

        I:   sum_{k<2N} Gamma(2n+2L) / (Gamma(k+2L+1) Gamma(2n-k)) (zeta eta)^{k+2L}
        II:  sum_{k<N} Gamma(n+L+1/2) / (Gamma(k+L+1) Gamma(n-k+1/2)) eta^{2k+2L}
        III: sum_{k<N} Gamma(n+L+1/2) / (Gamma(k+L+3/2) Gamma(n-k)) eta^{2k+2L+1}
    """
    n, L, N, nl = params.n, params.L, params.N, params.nl
    le = _log(eta)
    lze = None if zeta == 0 or le is None else cmath.log(zeta) + le
    j = np.arange(2 * N, dtype=float)
    k = j[:N]
    lg = gammaln(nl + 0.5)
    return list(zip(_log_prefactors(params, zeta, eta), (
        _power_sum(gammaln(2 * nl) - gammaln(j + 2 * L + 1) - gammaln(2 * n - j), j + 2 * L, lze),
        _power_sum(lg - gammaln(k + L + 1.0) - gammaln(n - k + 0.5), 2 * k + 2 * L, le),
        _power_sum(lg - gammaln(k + L + 1.5) - gammaln(n - k), 2 * k + 2 * L + 1, le),
    )))


def _log_terms(params: EnsembleParams, zeta: complex, eta: complex):
    """I_N, II_N, III_N as (scale, mantissa) pairs, weight included."""
    sums = _log_sums(params, zeta, eta)
    lw = -(params.nl - 0.5) * cmath.log(1.0 + eta * eta)
    return [(lw + lp + m, c * s) for (lp, c), (m, s) in sums]


def _derivative_weight(params: EnsembleParams, zeta: complex) -> complex:
    """log (1+zeta^2)^{-(n+L+1/2)}, the derivative's weight, with its pole at zeta = +-i."""
    oz = 1.0 + zeta * zeta
    if oz == 0:
        raise PoleError("derivative has a pole at zeta = +-i")
    return -(params.nl + 0.5) * cmath.log(oz)


def cdi_rhs(params: EnsembleParams, zeta: complex, eta: complex) -> CdiTerms:
    """The three CDI terms by their direct finite sums (log-domain assembly).

    Powers of zeta and eta take per-variable principal logs, the kernel's
    own convention: off the Moebius fractions' cuts this is the displayed
    binomial form, elsewhere the branch on which the derivative identity
    holds on all of C^2 minus the poles.  1/Gamma(L) -> 0 makes term3
    vanish at L = 0; at zeta = 0 term2 vanishes, and term3 too unless
    L = 1/2 (it diverges for 0 < L < 1/2 -- a PoleError).
    """
    return CdiTerms(*(_unscale(*t) for t in _log_terms(params, complex(zeta), complex(eta))))


def cdi_rhs_beta_form(params: EnsembleParams, zeta: complex, eta: complex) -> CdiTerms:
    """Same three terms with each sum replaced by its incomplete-beta form.

    I-sum  = I_p(2L, 2n)      - I_p(2N+2L, 2n-2N),   p = zeta eta / (1 + zeta eta)
    II-sum = I_q(L, n+1/2)    - I_q(N+L, n-N+1/2),   q = eta^2 / (1 + eta^2)
    III-sum= I_q(L+1/2, n)    - I_q(N+L+1/2, n-N)
    with the a = 0 degenerate case I_x(0, b) = 1 (x != 0).  The two betas
    of a sum meet at their common scale, and each term is exponentiated
    once, so a term in double range is finite however small its betas.
    """
    zeta, eta = complex(zeta), complex(eta)
    n, L, N, nl = params.n, params.L, params.N, params.nl
    (l1, c1), (l2, c2), (l3, c3) = _log_prefactors(params, zeta, eta)
    # the q-sums carry the weight (1-q)^{n+L-1/2} themselves; the p-sum
    # needs it and (1+zeta*eta)^{2n+2L-1} in its prefactor
    l1 += (2 * nl - 1) * cmath.log(1.0 + zeta * eta) - (nl - 0.5) * cmath.log(1.0 + eta * eta)
    p, q = zeta * eta / (1.0 + zeta * eta), eta * eta / (1.0 + eta * eta)

    def term(scale, c, x, a_lo, b_lo, a_hi, b_hi):
        if c == 0:
            return 0.0 + 0.0j
        # a = 0 degenerates to unit mass at the lower end: I_x(0, b) = 1
        lo = (0.0, 1.0) if a_lo == 0 else reg_inc_beta(x, a_lo, b_lo)
        m, (u, v) = _common_scale([lo, reg_inc_beta(x, a_hi, b_hi)])
        return _unscale(scale + m, c * (u - v))

    return CdiTerms(
        term1=term(l1, c1, p, 2 * L, 2 * n, 2 * N + 2 * L, 2 * n - 2 * N),
        term2=term(l2, c2, q, L, n + 0.5, N + L, n - N + 0.5),
        term3=term(l3, c3, q, L + 0.5, n, N + L + 0.5, n - N),
    )


def cdi_derivative(params: EnsembleParams, zeta: complex, eta: complex,
                   beta_form: bool = False) -> complex:
    """d/dzeta of the skew-kernel assembled from the closed-form RHS."""
    zeta = complex(zeta)
    lw = _derivative_weight(params, zeta)
    terms = cdi_rhs_beta_form(params, zeta, eta) if beta_form else cdi_rhs(params, zeta, eta)
    return _unscale(lw, terms.combined)


def cdi_residual(params: EnsembleParams, zeta: complex, eta: complex) -> float:
    """Relative residual between the exact term-by-term kernel derivative
    and the closed-form right-hand side.  The derivative route never sees
    the RHS formulas, so this is a genuine two-sided identity check.  The
    sides meet at their common scale, so it is finite at any N."""
    zeta, eta = complex(zeta), complex(eta)
    lhs = _kernel_dzeta_scaled(params, zeta, eta)
    lz = _derivative_weight(params, zeta)
    m, (t1, t2, t3) = _common_scale([(lz + x, s) for x, s in _log_terms(params, zeta, eta)])
    return _relative_gap(lhs, (m, t1 - t2 - t3))


def beta_gap(params: EnsembleParams, zeta: complex, eta: complex) -> float:
    """Largest relative gap between cdi_rhs and cdi_rhs_beta_form over the
    three terms: |a-b| / max(|a|, |b|), or |a-b| where both are 0; NaN if
    a term is NaN.

    The terms meet in linear space, where a term below double range reads 0
    on both sides and passes.  Both forms carry their terms at their own
    scale and exponentiate once, so a term in double range, however small
    its incomplete betas, is compared digit for digit.
    """
    t1, t2 = cdi_rhs(params, zeta, eta), cdi_rhs_beta_form(params, zeta, eta)
    gaps = []
    for a, b in ((t1.term1, t2.term1), (t1.term2, t2.term2), (t1.term3, t2.term3)):
        denom = max(abs(a), abs(b))
        gaps.append(abs(a - b) / denom if denom > 0 else abs(a - b))
    return float(np.max(gaps))


def rescaled_cdi_terms(
    params: EnsembleParams, regime: RegimeSpec, z: complex, w: complex
) -> RescaledCdiTerms:
    """The six factors of the rescaled CDI at the regime's zoom point.

    dz kappa_tilde_N(z, w) = I1*I2 - II1*II2 - III1*III2 with the (1)
    factors carrying all prefactors (including the (1+p^2)^-3 (N delta)^-2
    rescaling) and the (2) factors being the order-one binomial sums in
    p and q: the power sums times (1+zeta*eta)^{-(2n+2L-1)} for I and the
    weight (1+eta^2)^{-(n+L-1/2)} for II and III.
    """
    n, L = params.n, params.L
    nd, (zeta, eta) = _zoom(params, regime, z, w)
    lg = (-3.0 * math.log1p(regime.p * regime.p) - 2.0 * math.log(nd)
          + _derivative_weight(params, zeta))
    (i1, i2), (ii1, ii2), (iii1, iii2) = _log_sums(params, zeta, eta)
    lk = (2 * n + 2 * L - 1) * cmath.log(1.0 + zeta * eta)
    lw = -(n + L - 0.5) * cmath.log(1.0 + eta * eta)
    return RescaledCdiTerms(
        i1=_unscale(*i1, lg + lk + lw), i2=_unscale(*i2, -lk),
        ii1=_unscale(*ii1, lg), ii2=_unscale(*ii2, lw),
        iii1=_unscale(*iii1, lg), iii2=_unscale(*iii2, lw),
    )


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
