"""Special functions backing the kernel formulas.

Everything here is scalar complex/real double precision:

* ``erfc_c`` / ``erf_c`` -- error functions of a complex argument, thin
  wrappers over scipy's Faddeeva-based ``erfc``/``erf`` (about 1e-13
  relative on |z| <= 10),
* ``mittag_leffler`` -- two-parameter Mittag-Leffler series E_{a,b}(z),
* ``reg_inc_gamma_p`` -- regularised lower incomplete gamma P(c,z) for
  complex z along the straight ray from 0,
* ``reg_inc_beta`` -- regularised incomplete beta I_x(a,b) in the cut
  plane via the hypergeometric series.

The series stop after three consecutive terms below ``_REL_TOL`` (1e-13)
of the running sum and raise ConvergenceError after ``_MAX_TERMS`` (10**6)
terms.  Both are module constants, read at each call.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import erf as _erf, erfc as _erfc, gammaln, rgamma

from .errors import ConvergenceError, DomainError

__all__ = [
    "erfc_c",
    "erf_c",
    "mittag_leffler",
    "inc_gamma_entire_part",
    "reg_inc_gamma_p",
    "reg_inc_beta",
]


_REL_TOL = 1e-13
_MAX_TERMS = 10**6


# -- complex error function -------------------------------------------------

def erfc_c(z: complex) -> complex:
    """Complementary error function of a complex argument."""
    return complex(_erfc(complex(z)))


def erf_c(z: complex) -> complex:
    """Error function of a complex argument."""
    return complex(_erf(complex(z)))


# -- Mittag-Leffler ---------------------------------------------------------

def mittag_leffler(a: float, b: float, z: complex) -> complex:
    """Two-parameter Mittag-Leffler E_{a,b}(z) = sum_k z^k / Gamma(a k + b).

    Terms are assembled as exp(k log z - lgamma(ak+b)) so large |z| never
    overflows intermediate powers.  Truncation: |term| < _REL_TOL * |sum|
    for 3 consecutive terms.
    """
    if not a > 0:
        raise DomainError(f"mittag_leffler needs a > 0, got a={a}")
    z = complex(z)
    first = float(rgamma(b))
    if z == 0:
        return complex(first)
    logz = cmath.log(z)
    total = complex(first)
    small_streak = 0
    chunk = 64
    k0 = 1
    while k0 <= _MAX_TERMS:
        ks = np.arange(k0, min(k0 + chunk, _MAX_TERMS + 1))
        args = a * ks + b
        terms = np.empty(len(ks), dtype=complex)
        pos = args > 0
        terms[pos] = np.exp(ks[pos] * logz - gammaln(args[pos]))
        if not pos.all():
            # rgamma handles poles of Gamma at nonpositive integers (-> 0)
            terms[~pos] = np.exp(ks[~pos] * logz) * rgamma(args[~pos])
        for t in terms:
            total += t
            if abs(t) < _REL_TOL * abs(total):
                small_streak += 1
                if small_streak >= 3:
                    return total
            else:
                small_streak = 0
        k0 += chunk
    raise ConvergenceError(
        f"mittag_leffler(a={a}, b={b}) did not converge within {_MAX_TERMS} terms"
    )


# -- regularised incomplete gamma -------------------------------------------

def inc_gamma_entire_part(c: float, z: complex) -> complex:
    """The entire function E_c(z) = sum_{m>=0} z^m / Gamma(c+m+1).

    P(c,z) factors as z^c e^{-z} E_c(z); exposing E_c lets callers choose
    the branch of z^c themselves (needed for the odd-in-w continuations
    of the limiting origin kernel).
    """
    z = complex(z)
    total = complex(np.exp(-gammaln(c + 1.0)))
    if z == 0:
        return total
    logz = cmath.log(z)
    small_streak = 0
    for m in range(1, _MAX_TERMS + 1):
        t = cmath.exp(m * logz - gammaln(c + m + 1.0))
        total += t
        if abs(t) < _REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(f"inc_gamma_entire_part(c={c}, z={z}) did not converge")


def reg_inc_gamma_p(c: float, z: complex) -> complex:
    """P(c,z) = gamma(c,z)/Gamma(c), the lower incomplete gamma along the ray 0->z.

    Uses the everywhere-convergent series
    P(c,z) = z^c e^{-z} sum_{m>=0} z^m / Gamma(c+m+1)
    with the principal branch of z^c.
    """
    if not c > 0:
        raise DomainError(f"reg_inc_gamma_p needs c > 0, got c={c}")
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    log_pref = c * cmath.log(z) - z
    return cmath.exp(log_pref) * inc_gamma_entire_part(c, z)


# -- regularised incomplete beta --------------------------------------------

def reg_inc_beta(x: complex, a: float, b: float) -> complex:
    """Regularised incomplete beta I_x(a,b) on the cut plane C \\ (-inf, 0).

    Evaluated through
    I_x(a,b) = [Gamma(a+b)/(Gamma(a)Gamma(b))] x^a (1-x)^{b-1}/a
               * 2F1(1, 1-b; a+1; x/(x-1)),
    with the reflection I_x(a,b) = 1 - I_{1-x}(b,a) applied for Re x > 1/2
    so the hypergeometric series argument stays inside the unit disc.
    That series converges like |x/(x-1)|^s and stalls as Re x -> 1/2, so
    where |x| is the smaller ratio (|1-x| < 1) the Euler-transformed
    I_x(a,b) = [Gamma(a+b)/(Gamma(a)Gamma(b))] x^a (1-x)^b/a
               * 2F1(1, a+b; a+1; x)
    is summed instead.
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"reg_inc_beta needs a, b > 0, got a={a}, b={b}")
    x = complex(x)
    if x == 0:
        return 0.0 + 0.0j
    if x == 1:
        return 1.0 + 0.0j
    if x.imag == 0.0 and x.real < 0.0:
        raise DomainError(f"reg_inc_beta: x={x} lies on the branch cut (-inf, 0)")
    if x.real > 0.5:
        return 1.0 - reg_inc_beta(1.0 - x, b, a)
    u = x / (x - 1.0)
    if abs(x) < abs(u):
        f = _hyp2f1_unit_series(a + b, a + 1.0, x)
        b_exp = b
    else:
        f = _hyp2f1_unit_series(1.0 - b, a + 1.0, u)
        b_exp = b - 1.0
    log_pref = (
        gammaln(a + b)
        - gammaln(a)
        - gammaln(b)
        + a * cmath.log(x)
        + b_exp * cmath.log(1.0 - x)
        - math.log(a)
    )
    return cmath.exp(log_pref) * f


def _hyp2f1_unit_series(beta: float, gamma_: float, u: complex) -> complex:
    # 2F1(1, beta; gamma; u) = sum_s (beta)_s / (gamma)_s u^s
    term = 1.0 + 0.0j
    total = 1.0 + 0.0j
    small_streak = 0
    for s in range(_MAX_TERMS):
        term *= (beta + s) / (gamma_ + s) * u
        total += term
        if abs(term) > 1e250:
            raise ConvergenceError(
                f"reg_inc_beta hypergeometric series diverging (|term|>{1e250:g}) "
                f"at s={s}; parameters too large for the series route"
            )
        if abs(term) < _REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
    raise ConvergenceError("reg_inc_beta hypergeometric series stalled")
