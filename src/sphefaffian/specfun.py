"""Special functions backing the kernel formulas, and the package's
(scale, mantissa) convention: a value is exp(scale) * mantissa with a
complex scale, a zero mantissa marking a vanishing factor, so magnitudes far
outside double range keep their digits.  ``_common_scale``,
``_relative_gap``, ``_unscale``, ``_lbeta`` and ``_stirling_rest`` are its
helpers; every other module imports them from here.

Everything here is complex/real double precision; the first four take arrays:

* ``erfc_c`` / ``erf_c`` -- error functions of a complex argument, thin
  wrappers over scipy's Faddeeva-based ``erfc``/``erf`` (about 1e-13
  relative on |z| <= 10),
* ``mittag_leffler`` -- two-parameter Mittag-Leffler series E_{a,b}(z),
* ``inc_gamma_entire_part`` -- the incomplete gamma's entire part
  E_c(z) = E_{1,c+1}(z), by Kummer's series where Re z < 0,
* ``reg_inc_gamma_p`` -- regularised lower incomplete gamma P(c,z) for
  complex z along the straight ray from 0,
* ``reg_inc_beta`` -- regularised incomplete beta I_x(a,b) in the cut
  plane as (scale, mantissa), by one continued fraction (about 1e-14
  relative at a, b <= 20, 2e-12 at a, b up to 6000).

The series stop after three consecutive terms below ``_REL_TOL`` (1e-13)
of the running sum and raise ConvergenceError after ``_MAX_TERMS`` (10**6)
terms; the fraction stops at a step below ``_CF_TOL`` (1e-15) and raises
after ``_CF_MAX`` (10**4).  All are module constants, read at each call.
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
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


# -- the (scale, mantissa) convention: value = exp(scale) * mantissa ---------

def _common_scale(pieces):
    """Bring (scale, mantissa) pieces to their largest real scale m.

    Returns (m, [exp(scale - m) * mantissa, ...]); a zero mantissa marks a
    vanishing piece, which stays 0 and does not set m (0.0 if all vanish).
    """
    m = max((mi.real for mi, si in pieces if si != 0), default=0.0)
    return m, [cmath.exp(mi - m) * si if si != 0 else 0.0 for mi, si in pieces]


def _relative_gap(p, q) -> float:
    """|x - y| / max(|x|, |y|) of two (scale, mantissa) values, at their common
    scale: 0 where both vanish, NaN where either is NaN."""
    _, (x, y) = _common_scale([p, q])
    denom = max(abs(x), abs(y))
    return abs(x - y) / denom if denom else abs(x - y)


def _unscale(scale: complex, mantissa: complex, shift: complex = 0.0) -> complex:
    """exp(shift + scale) * mantissa in one exp, log(mantissa) folded in: a value
    in double range neither overflows on the way nor rounds twice if subnormal;
    one beyond it raises DoubleRangeError."""
    if mantissa == 0:
        return 0.0 + 0.0j
    x = shift + scale + cmath.log(mantissa)
    if x.real < -708.0:  # subnormal: cmath.exp would round modulus, then phase
        v = cmath.exp(x + 64 * math.log(2.0))
        return complex(math.ldexp(v.real, -64), math.ldexp(v.imag, -64))
    try:
        return cmath.exp(x)
    except OverflowError:
        raise DoubleRangeError(f"value exp({x.real:.1f}) exceeds double range") from None


def _stirling_rest(x):
    """lgamma(x) - ((x-1/2) log x - x + log(2 pi)/2): its asymptotic series
    from x = 20, directly below."""
    big = x >= 20.0
    xs = np.where(big, x, 20.0)
    r = (1.0 / xs) ** 2
    series = (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / xs
    xd = np.where(big, 1.0, x)
    return np.where(big, series, gammaln(xd) - (xd - 0.5) * np.log(xd) + xd - _HALF_LOG_2PI)


def _lbeta(a, b):
    """log B(a, b) for a, b > 0 to a few ulps of the result, where the sum of
    three gammaln loses digits to cancellation (1e-11 absolute at a+b ~ 1e4)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    s, lo, hi = a + b, np.minimum(a, b), np.maximum(a, b)
    return ((lo - 0.5) * np.log(lo / s) + (hi - 0.5) * np.log1p(-lo / s) - 0.5 * np.log(s)
            + _HALF_LOG_2PI + _stirling_rest(a) + _stirling_rest(b) - _stirling_rest(s))


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

def inc_gamma_entire_part(c: float, z):
    """The entire function E_c(z) = sum_{m>=0} z^m / Gamma(c+m+1), elementwise
    on an ndarray z.

    P(c,z) factors as z^c e^{-z} E_c(z); exposing E_c lets callers choose
    the branch of z^c themselves (needed for the odd-in-w continuations
    of the limiting origin kernel).

    Re z >= 0 is the Mittag-Leffler series E_{1,c+1}(z), by ``mittag_leffler``.
    Re z < 0 sums Kummer's E_c(z) = e^z/Gamma(c+1) sum_m c/(c+m) (-z)^m/m!
    (m = 0 term 1) one element at a time, which keeps 1e-14 relative where
    the power series cancels (3.7e9 at (2, -60)).  Near the imaginary axis
    both cancel, but Kummer's less: 1.5e-6 against 1.3e-3 relative at
    (2, -5+30j).
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    out = np.empty(flat.shape, dtype=complex)
    right = flat.real >= 0
    out[right] = mittag_leffler(1.0, c + 1.0, flat[right])
    out[~right] = [_kummer(c, v) for v in flat[~right].tolist()]
    return out.reshape(zs.shape) if zs.ndim else complex(out[0])


def _kummer(c: float, z: complex) -> complex:
    """E_c(z) by Kummer's series; its (-z)^m/m! by a recurrence, which rounds
    less than exp()."""
    total = power = 1.0 + 0.0j
    small_streak = 0
    for m in range(1, _MAX_TERMS + 1):
        power *= -z / m
        if cmath.isinf(power):
            raise ConvergenceError(f"inc_gamma_entire_part(c={c}, z={z}) overflows")
        t = c / (c + m) * power
        total += t
        if abs(t) < _REL_TOL * abs(total):
            small_streak += 1
            if small_streak >= 3:
                return cmath.exp(z - gammaln(c + 1.0)) * total
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

_CF_TOL, _CF_MAX, _TINY = 1e-15, 10**4, 1e-300  # fraction: stop below, cap, Lentz's shift


@functools.lru_cache(maxsize=256)
def _log_a_beta(a: float, b: float) -> float:
    """log(a B(a, b)), the fraction's normaliser, once per (a, b)."""
    return math.log(a) + float(_lbeta(a, b))


def _beta_fraction(x: complex, a: float, b: float):
    """I_x(a, b) = x^a (1-x)^b / (a B(a, b)) / (1 + d_1/(1 + d_2/(1 + ...))) as
    (scale, mantissa), by DLMF 8.17.22's continued fraction in the modified
    Lentz form (Thompson & Barnett, J. Comput. Phys. 64 (1986) 490)."""
    scale = a * cmath.log(x) + b * cmath.log(1.0 - x) - _log_a_beta(a, b)
    f, c, d = 1.0 + 0.0j, 1.0 + 0.0j, 0.0j
    for j in range(1, _CF_MAX + 1):
        m = j // 2
        if j % 2:  # d_{2m+1}
            num = -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1.0)) * x
        else:  # d_{2m}
            num = m * (b - m) / ((a + 2 * m - 1.0) * (a + 2 * m)) * x
        d = 1.0 / (1.0 + num * d or _TINY)  # a zero denominator is shifted off 0
        c = 1.0 + num / c or _TINY
        step = c * d
        f *= step
        if abs(step - 1.0) < _CF_TOL:
            return scale, 1.0 / f
    raise ConvergenceError(f"reg_inc_beta(x={x}, a={a}, b={b}) needs over {_CF_MAX} fraction terms")


def reg_inc_beta(x: complex, a: float, b: float):
    """Regularised incomplete beta I_x(a,b) on C \\ ((-inf, 0] u [1, inf)) as
    (scale, mantissa), I = exp(scale) * mantissa, so I far outside double
    range keeps its digits:

        log I = a log x + b log(1-x) - log a - log B(a,b) + log CF,

    CF the continued fraction of DLMF 8.17.22.  Where Re x >= (a+1)/(a+b+2)
    the fraction converges slowly, and I = 1 - I_{1-x}(b,a) is formed once,
    from the fraction at 1-x, which is then on the fast side for (b, a).
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"reg_inc_beta needs a, b > 0, got a={a}, b={b}")
    x = complex(x)
    if x == 0 or x == 1:  # I_0 = 0 and I_1 = 1: the mantissa is x itself
        return 0.0, x
    if x.imag == 0.0 and not 0.0 < x.real < 1.0:
        raise DomainError(f"reg_inc_beta: x={x} lies on a branch cut, (-inf, 0] or [1, inf)")
    if x.real < (a + 1.0) / (a + b + 2.0):
        return _beta_fraction(x, a, b)
    m, (one, rest) = _common_scale([(0.0, 1.0), _beta_fraction(1.0 - x, b, a)])
    return m, one - rest


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
