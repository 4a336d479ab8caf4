"""Exact finite-N machinery: skew-orthogonal polynomials, the double-sum
kernel, the skew-kernels, k-point correlations and the microscopic rescaling.

Two independent routes to the same skew-kernel are kept side by side:

* ``skew_kernel_tilde`` -- the double gamma-sum form,
* ``skew_kernel_via_sop`` -- the skew-orthogonal polynomial sum, with
  coefficients from cumulative moment ratios and the (zeta*eta)^{2L}
  branch convention applied to the entire polynomial kernel.

Both are the N(N+1)/2 terms sum_k A_k x^k sum_{l<=k} B_l y^l, each with its
own coefficients, and both go through one O(N) prefix sum (``_power_sum``)
carried in (scale, mantissa) form, value = exp(scale) * mantissa, so n+L
of several thousand stays finite.  Their agreement to ~1e-12 relative is
the structural self-check of the whole finite-N layer.

Values leave that form through ``specfun._unscale`` (one exp, weight folded
in, DoubleRangeError beyond double range), except the two routes' own exits.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalError, PoleError
from .params import (
    EnsembleParams,
    RegimeSpec,
    local_scale_delta,
    log_weight_omega,
)
from .pfaffian import pfaffian_intensity
from .specfun import _common_scale, _lbeta, _relative_gap, _unscale

__all__ = [
    "SkewOPSystem",
    "log_moments_h",
    "skew_op_system",
    "g_hat",
    "skew_kernel_tilde",
    "skew_kernel_tilde_dzeta",
    "skew_kernel_via_sop",
    "route_gap",
    "correlation_rk",
    "rescaled_kernel",
    "rescaled_r1",
]

def log_moments_h(params: EnsembleParams, k):
    """log h_k, h_k = Gamma(k+2L+1) Gamma(2n-k+1) / Gamma(2n+2L+2) = B(k+2L+1, 2n-k+1),
    elementwise for an array k."""
    n, L = params.n, params.L
    if np.any(k + 2 * L + 1 <= 0) or np.any(2 * n - k + 1 <= 0):
        raise DomainError(
            f"moment h_k undefined (non-integrable) for k={k} with n={n}, L={L}"
        )
    return _lbeta(k + 2 * L + 1, 2 * n - k + 1)


@dataclass(frozen=True)
class SkewOPSystem:
    """Skew-orthogonal polynomial data for a parameter triple, in logs.

    q_{2k+1} is the monomial zeta^{2k+1} and
    q_{2k} = sum_{l<=k} exp(log_c[k] - log_c[l]) zeta^{2l}; log_norms[k] is
    log r_k of the skew-norm r_k = 2 h_{2k+1}.
    """

    params: EnsembleParams
    log_c: np.ndarray  # C_k = sum_{i<k} log(h_{2i+2}/h_{2i+1}), k = 0..N-1
    log_norms: np.ndarray  # log r_k, k = 0..N-1

    @property
    def norms(self) -> np.ndarray:
        """r_k for display; it underflows to 0 at large n+L, the kernel reads log_norms."""
        return np.exp(self.log_norms)


def skew_op_system(params: EnsembleParams) -> SkewOPSystem:
    """Construct the N skew-orthogonal polynomial pairs for the ensemble.

    Even coefficients come from the cumulative sums of log moment ratios
    h_{m+1}/h_m = (m+2L+1)/(2n-m) over odd m, which avoids Gamma at
    negative arguments entirely.
    """
    N, n, L = params.N, params.n, params.L
    m = 2.0 * np.arange(N - 1) + 1
    log_c = np.concatenate(([0.0], np.cumsum(np.log((m + 2 * L + 1) / (2 * n - m)))))
    log_norms = math.log(2.0) + log_moments_h(params, 2.0 * np.arange(N) + 1)
    return SkewOPSystem(params=params, log_c=log_c, log_norms=log_norms)


@lru_cache(maxsize=64)
def _log_coeff_arrays(N: int, n: float, L: float):
    """k- and l-indexed log coefficients of the double sum, plus log prefactor:
    pi Gamma(2n+2L+2) / (2^{2n+2L+1} Gamma(k+L+3/2) Gamma(n-k) Gamma(n-l+1/2)
    Gamma(l+L+1)) = B(1/2, n+L+1) / (B(k+L+3/2, n-k) B(l+L+1, n-l+1/2))."""
    ks = np.arange(N, dtype=float)
    la = -_lbeta(ks + L + 1.5, n - ks)
    lb = -_lbeta(ks + L + 1.0, n - ks + 0.5)
    return la, lb, float(_lbeta(0.5, n + L + 1))


_RESCALE = 300.0  # a prefix sum re-shifts where its running max grows by this much


def _log(z: complex):
    """Principal log z, or None at z = 0: the argument form _power_sum reads."""
    return cmath.log(z) if z != 0 else None


def _log_power_terms(c, e, lx):
    """c_k + e_k log x; at x = 0 (lx None) only the x^0 terms survive."""
    if lx is None:
        return np.where(e == 0, c, -np.inf) + 0j
    return c + e * lx


def _power_sum(a, e, lx, b=None, f=None, ly=None):
    """sum_k exp(a_k) x^{e_k} sum_{l<=k} exp(b_l) y^{f_l} as (scale, mantissa),
    with lx, ly from _log; without b it is the plain sum_k exp(a_k) x^{e_k}.

    The inner sum is a prefix sum, run in chunks that share one shift, the
    running max of Re log-term at the chunk's end; a chunk ends where that
    max has grown by _RESCALE, so an early prefix far below the largest
    inner term keeps its digits instead of flushing to zero.  A term of
    coefficient exp(-inf) = 0 is allowed.
    """
    t = _log_power_terms(a, e, lx)
    mant = np.ones(t.shape) if b is None else np.zeros(t.shape, dtype=complex)
    if b is not None:
        v = _log_power_terms(b, f, ly)
        top = np.maximum.accumulate(v.real)
        carry, at = 0.0, -np.inf  # the prefix so far is exp(at) * carry
        start = 0
        while start < v.size:
            end = int(np.searchsorted(top, top[start] + _RESCALE, side="right"))
            shift = top[end - 1]
            if shift > -np.inf:  # else every inner term so far vanishes
                chunk = carry * math.exp(at - shift) + np.cumsum(np.exp(v[start:end] - shift))
                mant[start:end] = chunk
                t[start:end] += shift
                carry, at = chunk[-1], shift
            start = end
    keep = (mant != 0) & (t.real > -np.inf)
    if not keep.any():
        return 0.0, 0.0 + 0.0j
    t, mant = t[keep], mant[keep]
    m = float(np.max(t.real))
    return m, complex(np.sum(np.exp(t - m) * mant))


def _g_hat_scaled(params: EnsembleParams, zeta: complex, eta: complex,
                  d_dzeta: bool = False, d_deta: bool = False):
    """Scaled double sum: returns (M, S) with G_hat = exp(M) * S.

    G_hat = sum_{l<=k<N} exp(lpref + la_k + lb_l) zeta^{2k+2L+1} eta^{2l+2L};
    with d_dzeta/d_deta the term-by-term derivative in the first/second
    argument is returned instead (same scaling convention).
    """
    la, lb, lpref = _log_coeff_arrays(params.N, params.n, params.L)
    e = 2.0 * np.arange(params.N) + 2 * params.L + 1
    a, f = lpref + la, e - 1
    if d_dzeta:
        a, e = a + np.log(e), e - 1
    if d_deta:
        with np.errstate(divide="ignore"):  # eta^0 at L = 0 differentiates to 0
            lb, f = lb + np.log(f), f - 1
    return _power_sum(a, e, _log(complex(zeta)), lb, f, _log(complex(eta)))


def g_hat(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """The double-sum building block of the skew-kernel.

    Raises DoubleRangeError (an OverflowError) when the value exceeds double
    range; callers at large n+L should use the rescaled kernel, which folds
    the weight in before exponentiating.
    """
    return _unscale(*_g_hat_scaled(params, zeta, eta))


def _log_weight(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """log of the kernel weight ((1+zeta^2)(1+eta^2))^{-(n+L-1/2)}, per-factor
    principal logs; its poles at zeta or eta = +-i raise PoleError."""
    oz, oe = 1.0 + zeta * zeta, 1.0 + eta * eta
    if oz == 0 or oe == 0:
        raise PoleError(f"skew kernel has a pole at zeta or eta = +-i (got {zeta}, {eta})")
    return -(params.nl - 0.5) * (cmath.log(oz) + cmath.log(oe))


def _kernel_scaled(params: EnsembleParams, zeta: complex, eta: complex):
    """(M, v) with skew_kernel_tilde = exp(M) * v; M is complex."""
    zeta, eta = complex(zeta), complex(eta)
    lw = _log_weight(params, zeta, eta)
    m, (g1, g2) = _common_scale(
        [_g_hat_scaled(params, zeta, eta), _g_hat_scaled(params, eta, zeta)]
    )
    return m + lw, g1 - g2


def skew_kernel_tilde(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """The antisymmetric weighted kernel at finite N (double-sum route)."""
    m, v = _kernel_scaled(params, zeta, eta)
    # bare cmath.exp, as in skew_kernel_via_sop: perfbench/ledger.json lists their OverflowError
    return cmath.exp(m) * v if v != 0 else 0.0 + 0.0j


def _kernel_dzeta_scaled(params: EnsembleParams, zeta: complex, eta: complex):
    """(M, v) with skew_kernel_tilde_dzeta = exp(M) * v; M is complex."""
    zeta, eta = complex(zeta), complex(eta)
    lw = _log_weight(params, zeta, eta)
    m, (g1, g2, d1, d2) = _common_scale([
        _g_hat_scaled(params, zeta, eta),
        _g_hat_scaled(params, eta, zeta),
        _g_hat_scaled(params, zeta, eta, d_dzeta=True),
        _g_hat_scaled(params, eta, zeta, d_deta=True),
    ])
    khat, dkhat = g1 - g2, d1 - d2
    # d/dz [e^{lw} khat] = e^{lw} (dkhat - (n+L-1/2) * 2 zeta/(1+zeta^2) khat)
    inner = dkhat - (params.nl - 0.5) * 2.0 * zeta / (1.0 + zeta * zeta) * khat
    return m + lw, inner


def skew_kernel_tilde_dzeta(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """Exact d/dzeta of skew_kernel_tilde by term-by-term differentiation.

    This is the independent oracle for the Christoffel-Darboux residual:
    it never touches the closed-form right-hand side.
    """
    return _unscale(*_kernel_dzeta_scaled(params, zeta, eta))


def _sop_scaled(system: SkewOPSystem, zeta: complex, eta: complex):
    """(M, v) with skew_kernel_via_sop = exp(M) * v; M is complex."""
    params = system.params
    zeta, eta = complex(zeta), complex(eta)
    lw = _log_weight(params, zeta, eta)
    if params.L != 0 and (zeta == 0 or eta == 0):
        return 0.0, 0.0 + 0.0j
    lz, le = _log(zeta), _log(eta)
    a = system.log_c - system.log_norms
    odd = 2.0 * np.arange(params.N) + 1
    m, (p1, p2) = _common_scale([
        _power_sum(a, odd, lz, -system.log_c, odd - 1, le),
        _power_sum(a, odd, le, -system.log_c, odd - 1, lz),
    ])
    if params.L != 0:
        lw += 2.0 * params.L * (lz + le)
    return m + lw, p1 - p2


def skew_kernel_via_sop(system: SkewOPSystem, zeta: complex, eta: complex) -> complex:
    """Skew-kernel assembled from the skew-orthogonal polynomial sum.

    sum_k (q_{2k+1}(zeta) q_{2k}(eta) - q_{2k}(zeta) q_{2k+1}(eta)) / r_k is
    multiplied by (zeta*eta)^{2L} (principal branches) and the same
    (1+zeta^2)(1+eta^2) power as the double-sum route, so the two routes
    target the identical function.
    """
    m, v = _sop_scaled(system, zeta, eta)
    return cmath.exp(m) * v if v != 0 else 0.0 + 0.0j


def route_gap(system: SkewOPSystem, zeta: complex, eta: complex) -> float:
    """Relative difference of the double-sum and the polynomial route, finite
    even where the kernel itself exceeds double range."""
    return _relative_gap(_kernel_scaled(system.params, zeta, eta),
                         _sop_scaled(system, zeta, eta))


def correlation_rk(params: EnsembleParams, points) -> float:
    """k-point eigenvalue intensity via the 2k x 2k Pfaffian.

    Builds the skew matrix over the interleaved points
    (zeta_1, conj(zeta_1), ..., zeta_k, conj(zeta_k)) with entries
    omega(zeta_j) omega(zeta_l) ktilde(., .), takes the Pfaffian and
    multiplies by prod_j (conj(zeta_j) - zeta_j).  The result is real up
    to rounding; an imaginary residue above 1e-9 of the Hadamard scale
    raises (see ``pfaffian.pfaffian_intensity``).
    """
    def entry(x: complex, y: complex) -> complex:
        return _unscale(*_kernel_scaled(params, x, y),
                        log_weight_omega(params, x) + log_weight_omega(params, y))

    return pfaffian_intensity(points, entry, tol=1e-9)


def _zoom(params: EnsembleParams, regime: RegimeSpec, *points):
    """N delta and the points p + z / sqrt(N delta) around the regime's zoom
    point p; params must be the regime's own at N."""
    ref = regime.params_at(params.N)
    if not (math.isclose(ref.n, params.n, rel_tol=1e-9, abs_tol=1e-9)
            and math.isclose(ref.L, params.L, rel_tol=1e-9, abs_tol=1e-9)):
        raise DomainError(
            f"params {params} inconsistent with regime {regime} at N={params.N} "
            f"(expected n={ref.n}, L={ref.L})"
        )
    nd = params.N * local_scale_delta(params, regime.p)
    return nd, [regime.p + complex(z) / math.sqrt(nd) for z in points]


def rescaled_kernel(
    params: EnsembleParams, regime: RegimeSpec, z: complex, w: complex
) -> complex:
    """Microscopically rescaled kernel at the regime's zoom point.

    kappa_tilde_N(z, w) = (1+p^2)^{-3} (N delta)^{-3/2}
                          ktilde_N(p + z/sqrt(N delta), p + w/sqrt(N delta)).
    """
    nd, (zeta, eta) = _zoom(params, regime, z, w)
    lpref = -3.0 * math.log1p(regime.p * regime.p) - 1.5 * math.log(nd)
    return _unscale(*_kernel_scaled(params, zeta, eta), lpref)


def rescaled_r1(params: EnsembleParams, regime: RegimeSpec, z: complex) -> float:
    """Rescaled one-point intensity, normalized to O(1) in the bulk.

    Includes the (N delta)^{-1} Jacobian of the microscopic change of
    variables, so the value tends to the limiting Pfaffian one-point
    function (-> 1 deep in the strong bulk).
    """
    nd, (zeta,) = _zoom(params, regime, z)
    lw = 2.0 * log_weight_omega(params, zeta) - math.log(nd)
    val = _unscale(*_kernel_scaled(params, zeta, zeta.conjugate()), lw) * (zeta.conjugate() - zeta)
    if abs(val) > 0 and abs(val.imag) > 1e-9 * abs(val):
        raise NumericalError(f"rescaled R1 has imaginary residue {val.imag:.3e}")
    return val.real
