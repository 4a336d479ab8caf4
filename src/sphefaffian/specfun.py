"""Special functions backing the kernel formulas.

Everything here is complex/real double precision; the first three take arrays:

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
``_gauss`` integrates against s^alpha (1-s)^beta by Gauss rules of
``_JACOBI_NODES`` (16) nodes and up, doubling to at most ``_MAX_NODES`` (1024).
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import erf as _erf, erfc as _erfc, gammaln, rgamma

from .errors import ConvergenceError, DomainError, DoubleRangeError, QuadratureError

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
_JACOBI_NODES, _MAX_NODES = 16, 1024  # Gauss rules: first n, cap


# -- complex error function -------------------------------------------------

def erfc_c(z):
    """Complementary error function of a complex argument, elementwise on an ndarray."""
    return _erfc(z.astype(complex)) if isinstance(z, np.ndarray) else complex(_erfc(complex(z)))


def erf_c(z):
    """Error function of a complex argument, elementwise on an ndarray."""
    return _erf(z.astype(complex)) if isinstance(z, np.ndarray) else complex(_erf(complex(z)))


# -- Mittag-Leffler ---------------------------------------------------------

def mittag_leffler(a: float, b: float, z):
    """Two-parameter Mittag-Leffler E_{a,b}(z) = sum_k z^k / Gamma(a k + b).

    Terms are assembled as exp(k log z - lgamma(ak+b)) so large |z| never
    overflows intermediate powers.  An array z is summed in chunks of 16
    terms for all its elements at once; each element stops after its own 3
    consecutive |term| < _REL_TOL * |sum|, so it equals the scalar call.
    An element still summing to exactly 0 once k Re log z - lgamma(ak+b) is
    below -745 and falling (concave in k: every later term is 0) raises DoubleRangeError.
    """
    if not a > 0:
        raise DomainError(f"mittag_leffler needs a > 0, got a={a}")
    zs = np.asarray(z, dtype=complex)
    out = np.full(zs.size, float(rgamma(b)), dtype=complex)
    live = np.flatnonzero(zs)  # flat indices of elements still summing
    logz = np.log(zs.ravel()[live])[:, None]
    total, streak = out[live], np.zeros(live.size, dtype=int)
    for k0 in range(1, _MAX_TERMS + 1, 16):
        if not live.size:
            break
        ks = np.arange(k0, min(k0 + 16, _MAX_TERMS + 1))
        args = a * ks + b
        terms = np.empty((live.size, ks.size), dtype=complex)
        pos = args > 0
        terms[:, pos] = np.exp(ks[pos] * logz - gammaln(args[pos]))
        if not pos.all():
            # rgamma handles poles of Gamma at nonpositive integers (-> 0)
            terms[:, ~pos] = np.exp(ks[~pos] * logz) * rgamma(args[~pos])
        # cumsum adds left to right, as a scalar loop would
        sums = np.cumsum(np.concatenate([total[:, None], terms], axis=1), axis=1)[:, 1:]
        # length of the run of small terms ending at each column, counting the carried streak
        col = np.arange(ks.size)
        small = np.abs(terms) < _REL_TOL * np.abs(sums)
        run = col - np.maximum.accumulate(np.where(small, -1 - streak[:, None], col), axis=1)
        done = (run >= 3).any(axis=1)
        out[live[done]] = sums[done, (run[done] >= 3).argmax(axis=1)]
        live, logz = live[~done], logz[~done]
        total, streak = sums[~done, -1], run[~done, -1]
        if not total.all() and a * ks[-1] + b > 0:  # some sum is still exactly 0
            k, re_logz = ks[-1], logz.real[total == 0, 0]
            lt = k * re_logz - gammaln(a * k + b)
            if ((lt < -745.0) & ((k + 1) * re_logz - gammaln(a * k + a + b) < lt)).any():
                raise DoubleRangeError(f"mittag_leffler(a={a}, b={b}) lies outside double range")
    if live.size:
        raise ConvergenceError(f"mittag_leffler(a={a}, b={b}) needs over {_MAX_TERMS} terms")
    return out.reshape(zs.shape) if zs.ndim else complex(out[0])


# -- regularised incomplete gamma -------------------------------------------

def inc_gamma_entire_part(c: float, z: complex) -> complex:
    """The entire function E_c(z) = sum_{m>=0} z^m / Gamma(c+m+1).

    P(c,z) factors as z^c e^{-z} E_c(z); exposing E_c lets callers choose
    the branch of z^c themselves (needed for the odd-in-w continuations
    of the limiting origin kernel).

    Re z < 0 sums Kummer's E_c(z) = e^z/Gamma(c+1) sum_m c/(c+m) (-z)^m/m!
    (m = 0 term 1), which keeps 1e-14 relative where the power series
    cancels (3.7e9 at (2, -60)).  Near the imaginary axis both cancel, but
    Kummer's less: 1.5e-6 against 1.3e-3 relative at (2, -5+30j).
    """
    z = complex(z)
    kummer = z.real < 0  # power: Kummer's (-z)^m/m!, a recurrence rounds less than exp()
    total = power = 1.0 + 0.0j if kummer else complex(np.exp(-gammaln(c + 1.0)))
    if z == 0:
        return total
    logz = cmath.log(z)
    small_streak = 0
    for m in range(1, _MAX_TERMS + 1):
        if kummer:
            power *= -z / m
            if cmath.isinf(power):
                raise ConvergenceError(f"inc_gamma_entire_part(c={c}, z={z}) overflows")
            t = c / (c + m) * power
        else:
            t = cmath.exp(m * logz - gammaln(c + m + 1.0))
        total += t
        if abs(t) < _REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return cmath.exp(z - gammaln(c + 1.0)) * total if kummer else total
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


# -- Gauss rules ------------------------------------------------------------

@functools.lru_cache(maxsize=512)  # one char_function call at N=200 uses 400 rules
def _rule(n: int, alpha: float, beta: float):
    """n-node Gauss rule on [0, 1] for the weight s^alpha (1-s)^beta: (nodes, weights).

    Legendre at alpha = beta = 0, else the Jacobi matrix's eigenvalues with
    weights 1/sum_k p_k(x)^2 over the orthonormal polynomials, that sum rescaled
    to 1 at each k: weights summing to 1, finite at any exponents."""
    if alpha == 0 and beta == 0:
        x, wts = leggauss(n)
        return (1.0 + x) / 2.0, wts / 2.0
    # x p_k = b_k p_{k+1} + a_k p_k + b_{k-1} p_{k-1} for (1-x)^beta (1+x)^alpha on [-1, 1]
    m = 2 * np.arange(n) + alpha + beta
    a = (alpha * alpha - beta * beta) / (m * (m + 2))
    k, m = np.arange(1.0, n), m[1:]
    b = 2 / m * np.sqrt(k * (k + alpha) * (k + beta) * (m - k) / (m * m - 1))
    x = eigvalsh_tridiagonal(a, b)
    p_prev, p, log_w = np.zeros(n), np.ones(n), np.zeros(n)  # p_{-1} = 0, p_0 = 1
    for j in range(n - 1):
        p_prev, p = p, ((x - a[j]) * p - b[j - 1] * p_prev) / b[j]
        c = np.sqrt(1.0 + p * p)
        p_prev, p, log_w = p_prev / c, p / c, log_w - 2.0 * np.log(c)
    wts = np.exp(log_w - log_w.max())
    return (1.0 + x) / 2.0, wts / wts.sum()


def _gauss(g, alpha: float, beta: float, n: int, lo: float = 0.0, hi: float = 1.0) -> complex:
    """(hi - lo) times the mean of g(u) over [lo, hi] under the weight s^alpha (1-s)^beta,
    s = (u - lo)/(hi - lo): the integral of g itself when alpha = beta = 0.

    g is called once per try, on the n- and 2n-node rules' nodes together.
    The 2n-node sum is returned once it is within 1e-11 max(1, |I_2n|) of
    the n-node one; else n doubles up to _MAX_NODES, then QuadratureError."""
    while True:
        (x1, w1), (x2, w2) = _rule(n, alpha, beta), _rule(2 * n, alpha, beta)
        vals = (hi - lo) * g(lo + (hi - lo) * np.concatenate([x1, x2]))
        i_2n = w2 @ vals[n:]
        gap = abs(w1 @ vals[:n] - i_2n)
        if gap <= 1e-11 * max(1.0, abs(i_2n)):
            return complex(i_2n)
        if 4 * n > _MAX_NODES:
            raise QuadratureError(f"Gauss gap {gap:.3g} on [{lo}, {hi}] at {2 * n} nodes")
        n *= 2
