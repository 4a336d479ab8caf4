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

Large n+L puts single terms far outside double range, so _log_terms (the
sums) and _log_beta_terms (the betas) give them in specfun's (scale,
mantissa) convention, exp(scale) * mantissa with a complex scale.  cdi_rhs
and cdi_rhs_beta_form exponentiate each term once (DoubleRangeError beyond
double range); cdi_derivative, cdi_residual and beta_gap meet terms at
their common scale first, so a term outside double range costs no digits.
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


def _log_beta_terms(params: EnsembleParams, zeta: complex, eta: complex):
    """I_N, II_N, III_N by their incomplete-beta forms as (scale, mantissa)
    pairs, weight included; the two betas of a sum meet at their common scale:

    I-sum  = I_p(2L, 2n)      - I_p(2N+2L, 2n-2N),   p = zeta eta / (1 + zeta eta)
    II-sum = I_q(L, n+1/2)    - I_q(N+L, n-N+1/2),   q = eta^2 / (1 + eta^2)
    III-sum= I_q(L+1/2, n)    - I_q(N+L+1/2, n-N)
    with the a = 0 degenerate case I_x(0, b) = 1 (x != 0).
    """
    n, L, N, nl = params.n, params.L, params.N, params.nl
    (l1, c1), (l2, c2), (l3, c3) = _log_prefactors(params, zeta, eta)
    # the q-sums carry the weight (1-q)^{n+L-1/2} themselves; the p-sum
    # needs it and (1+zeta*eta)^{2n+2L-1} in its prefactor
    l1 += (2 * nl - 1) * cmath.log(1.0 + zeta * eta) - (nl - 0.5) * cmath.log(1.0 + eta * eta)
    p, q = zeta * eta / (1.0 + zeta * eta), eta * eta / (1.0 + eta * eta)

    def term(scale, c, x, a_lo, b_lo, a_hi, b_hi):
        if c == 0:
            return 0.0, 0.0
        # a = 0 degenerates to unit mass at the lower end: I_x(0, b) = 1
        lo = (0.0, 1.0) if a_lo == 0 else reg_inc_beta(x, a_lo, b_lo)
        m, (u, v) = _common_scale([lo, reg_inc_beta(x, a_hi, b_hi)])
        return scale + m, c * (u - v)

    return [
        term(l1, c1, p, 2 * L, 2 * n, 2 * N + 2 * L, 2 * n - 2 * N),
        term(l2, c2, q, L, n + 0.5, N + L, n - N + 0.5),
        term(l3, c3, q, L + 0.5, n, N + L + 0.5, n - N),
    ]


def _derivative_weight(params: EnsembleParams, zeta: complex) -> complex:
    """log (1+zeta^2)^{-(n+L+1/2)}, the derivative's weight, with its pole at zeta = +-i."""
    oz = 1.0 + zeta * zeta
    if oz == 0:
        raise PoleError("derivative has a pole at zeta = +-i")
    return -(params.nl + 0.5) * cmath.log(oz)


def _log_derivative(params: EnsembleParams, zeta: complex, terms):
    """The identity's right side (1+zeta^2)^{-(n+L+1/2)} (I - II - III) as
    (scale, mantissa), its three terms, from either list, met at their common scale."""
    lw = _derivative_weight(params, zeta)
    m, (t1, t2, t3) = _common_scale([(lw + x, s) for x, s in terms])
    return m, t1 - t2 - t3


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
    """Same three terms with each sum replaced by its incomplete-beta form
    (see _log_beta_terms), each exponentiated once: a term in double range
    is finite however small its betas, one beyond it raises DoubleRangeError.
    """
    return CdiTerms(*(_unscale(*t) for t in _log_beta_terms(params, complex(zeta), complex(eta))))


def cdi_derivative(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """d/dzeta of the skew-kernel assembled from the direct-sum RHS; finite
    wherever it lies in double range, even where a term of cdi_rhs does not."""
    zeta = complex(zeta)
    return _unscale(*_log_derivative(params, zeta, _log_terms(params, zeta, complex(eta))))


def cdi_residual(params: EnsembleParams, zeta: complex, eta: complex) -> float:
    """Relative residual between the exact term-by-term kernel derivative
    and the closed-form right-hand side.  The derivative route never sees
    the RHS formulas, so this is a genuine two-sided identity check.  The
    sides meet at their common scale, so it is finite at any N."""
    zeta, eta = complex(zeta), complex(eta)
    return _relative_gap(_kernel_dzeta_scaled(params, zeta, eta),
                         _log_derivative(params, zeta, _log_terms(params, zeta, eta)))


def beta_gap(params: EnsembleParams, zeta: complex, eta: complex) -> float:
    """Largest relative gap |a-b| / max(|a|, |b|) between the direct and the
    incomplete-beta terms, each pair at its common scale (0 where both
    vanish, NaN if a term is NaN): a term outside double range is compared
    digit for digit instead of reading 0 or overflowing on both sides."""
    zeta, eta = complex(zeta), complex(eta)
    return float(np.max([_relative_gap(a, b) for a, b in zip(
        _log_terms(params, zeta, eta), _log_beta_terms(params, zeta, eta))]))


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


def limiting_f(regime: RegimeSpec, z: complex, w: complex) -> complex:
    """Limiting inhomogeneity F of the kernel ODE for the given regime."""
    z, w = complex(z), complex(w)
    if isinstance(regime, Strong):
        if not regime.at_edge:
            return 2.0 * cmath.exp(-((z - w) ** 2))
        return cmath.exp(-((z - w) ** 2)) * erfc_c(z + w) - cmath.exp(
            -2.0 * z * z
        ) / math.sqrt(2.0) * erfc_c(math.sqrt(2.0) * w)
    if isinstance(regime, Weak):
        rho = regime.rho
        g1 = erfc_c(z + w - rho / math.sqrt(2.0)) - erfc_c(z + w + rho / math.sqrt(2.0))
        g2 = erfc_c(math.sqrt(2.0) * w - rho / 2.0) - erfc_c(math.sqrt(2.0) * w + rho / 2.0)
        gauss = cmath.exp(-((math.sqrt(2.0) * z - rho / 2.0) ** 2)) + cmath.exp(
            -((math.sqrt(2.0) * z + rho / 2.0) ** 2)
        )
        return cmath.exp(-((z - w) ** 2)) * g1 - gauss * g2 / math.sqrt(2.0)
    if isinstance(regime, Origin):
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
