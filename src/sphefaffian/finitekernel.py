"""Exact finite-N machinery: skew-orthogonal polynomials, the double-sum
kernel, the skew-kernels, k-point correlations and the microscopic rescaling.

Two independent routes to the same skew-kernel are kept side by side:

* ``skew_kernel_tilde`` -- the double gamma-sum form, assembled in the log
  domain so n+L of a few hundred stays finite,
* ``skew_kernel_via_sop`` -- the skew-orthogonal polynomial sum (monic
  odd/even polynomials with gamma-ratio norms), an entire-function route
  that pins down all branch conventions.

Their agreement to ~1e-12 relative is the structural self-check of the
whole finite-N layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, NumericalError, PoleError
from .params import (
    EnsembleParams,
    RegimeSpec,
    local_scale_delta,
    log_weight_omega,
)
from .pfaffian import pfaffian_intensity

__all__ = [
    "SkewOPSystem",
    "KernelPoint",
    "moments_h",
    "log_moments_h",
    "skew_op_system",
    "g_hat",
    "skew_kernel_tilde",
    "skew_kernel_tilde_dzeta",
    "skew_kernel_via_sop",
    "correlation_rk",
    "rescaled_kernel",
    "rescaled_r1",
]

_LOG_PI = math.log(math.pi)


def log_moments_h(params: EnsembleParams, k: float) -> float:
    """log h_k with h_k = Gamma(k+2L+1) Gamma(2n-k+1) / Gamma(2n+2L+2)."""
    n, L = params.n, params.L
    if k + 2 * L + 1 <= 0 or 2 * n - k + 1 <= 0:
        raise DomainError(
            f"moment h_k undefined (non-integrable) for k={k} with n={n}, L={L}"
        )
    return float(gammaln(k + 2 * L + 1) + gammaln(2 * n - k + 1) - gammaln(2 * n + 2 * L + 2))


def moments_h(params: EnsembleParams, k: float) -> float:
    """Squared orthogonal norm h_k of |zeta|^k under the ensemble weight."""
    return math.exp(log_moments_h(params, k))


@dataclass(frozen=True)
class SkewOPSystem:
    """Skew-orthogonal polynomial data for a parameter triple.

    q_odd are the monomials zeta^{2k+1}; q_even[k] holds the coefficients
    of zeta^{0}, zeta^{2}, ..., zeta^{2k} of q_{2k}.  norms[k] is the
    skew-norm r_k = 2 h_{2k+1}.
    """

    params: EnsembleParams
    q_even: tuple  # tuple of float tuples
    norms: tuple  # r_k, k = 0..N-1

    def q_even_at(self, k: int, zeta: complex) -> complex:
        z2 = zeta * zeta
        acc = 0.0 + 0.0j
        for c in reversed(self.q_even[k]):
            acc = acc * z2 + c
        return acc

    def q_odd_at(self, k: int, zeta: complex) -> complex:
        return zeta ** (2 * k + 1)


@dataclass(frozen=True)
class KernelPoint:
    """A skew-kernel evaluation with its provenance."""

    zeta: complex
    eta: complex
    value: complex
    route: str  # 'double_sum' | 'sop_sum'

    @classmethod
    def evaluate(cls, params: EnsembleParams, zeta: complex, eta: complex,
                 route: str = "double_sum") -> "KernelPoint":
        if route == "double_sum":
            value = skew_kernel_tilde(params, zeta, eta)
        elif route == "sop_sum":
            value = skew_kernel_via_sop(skew_op_system(params), zeta, eta)
        else:
            raise DomainError(f"unknown kernel route {route!r}")
        return cls(zeta=complex(zeta), eta=complex(eta), value=value, route=route)


def skew_op_system(params: EnsembleParams) -> SkewOPSystem:
    """Construct the N skew-orthogonal polynomial pairs for the ensemble.

    Even coefficients come from the cumulative products of moment ratios
    h_{m+1}/h_m = (m+2L+1)/(2n-m), which avoids Gamma at negative
    arguments entirely.
    """
    N, n, L = params.N, params.n, params.L
    q_even = []
    for k in range(N):
        coef = [0.0] * (k + 1)
        coef[k] = 1.0
        for low in range(k - 1, -1, -1):
            # prod_{j=0}^{k-low-1} h_{2low+2j+2}/h_{2low+2j+1}
            m = 2 * low + 1
            ratio = 1.0
            for j in range(k - low):
                mm = m + 2 * j
                ratio *= (mm + 2 * L + 1) / (2 * n - mm)
            coef[low] = ratio
        q_even.append(tuple(coef))
    norms = tuple(2.0 * math.exp(log_moments_h(params, 2 * k + 1)) for k in range(N))
    return SkewOPSystem(params=params, q_even=tuple(q_even), norms=norms)


@lru_cache(maxsize=64)
def _log_coeff_arrays(N: int, n: float, L: float):
    """k- and l-indexed log coefficients of the double sum, plus log prefactor."""
    ks = np.arange(N, dtype=float)
    la = -gammaln(ks + L + 1.5) - gammaln(n - ks)
    lb = -gammaln(n - ks + 0.5) - gammaln(ks + L + 1.0)
    lpref = _LOG_PI + gammaln(2 * n + 2 * L + 2) - (2 * L + 2 * n + 1) * math.log(2.0)
    return la, lb, lpref


def _scaled_sum(t, fac=1.0):
    """(m, s) with sum(exp(t) * fac) = exp(m) * s, shifted by the largest Re t."""
    m = float(np.max(t.real))
    return m, complex(np.sum(np.exp(t - m) * fac))


def _common_scale(pieces):
    """Bring (scale, mantissa) pieces to their largest real scale m.

    Returns (m, [exp(scale - m) * mantissa, ...]); a zero mantissa marks a
    vanishing piece, which stays 0 and does not set m (0.0 if all vanish).
    """
    m = max((mi.real for mi, si in pieces if si != 0), default=0.0)
    return m, [cmath.exp(mi - m) * si if si != 0 else 0.0 for mi, si in pieces]


def _g_hat_scaled(params: EnsembleParams, zeta: complex, eta: complex,
                  d_dzeta: bool = False, d_deta: bool = False):
    """Scaled double sum: returns (M, S) with G_hat = exp(M) * S.

    With d_dzeta/d_deta the term-by-term derivative in the first/second
    argument is returned instead (same scaling convention).  Terms carry
    zeta^{2k+2L+1} eta^{2l+2L}; vanishing arguments kill every term whose
    exponent stays positive, which the branches below enumerate.
    """
    N, n, L = params.N, params.n, params.L
    zeta = complex(zeta)
    eta = complex(eta)
    la, lb, lpref = _log_coeff_arrays(N, n, L)
    ks = np.arange(N, dtype=float)

    if zeta == 0:
        # zeta exponents 2k+2L+1 >= 1: value vanishes; the derivative
        # survives only through the k=0 term when its exponent is exactly 1.
        if not d_dzeta or L != 0:
            return 0.0, 0.0 + 0.0j
        # only (k,l) = (0,0) survives with d/dzeta zeta^1 = 1 and eta^0 = 1
        return float(lpref + la[0] + lb[0]), 1.0 + 0.0j

    if eta == 0:
        # eta exponents 2l+2L: value needs 2L = 0 at l = 0,
        # derivative needs 2L = 1 at l = 0; otherwise everything vanishes.
        keep_value = (not d_deta) and L == 0
        keep_deriv = d_deta and 2 * L == 1
        if not (keep_value or keep_deriv):
            return 0.0, 0.0 + 0.0j
        lz = cmath.log(zeta)
        t = lpref + la + lb[0] + (2 * ks + 2 * L + 1) * lz
        fac = (2 * ks + 2 * L + 1) / zeta if d_dzeta else 1.0
        return _scaled_sum(t, fac)

    lz = cmath.log(zeta)
    le = cmath.log(eta)
    K, Lo = np.meshgrid(ks, ks, indexing="ij")
    mask = Lo <= K
    T = lpref + la[:, None] + lb[None, :] + (2 * K + 2 * L + 1) * lz + (2 * Lo + 2 * L) * le
    tm = T[mask]
    if d_dzeta:
        fac = ((2 * K + 2 * L + 1)[mask]) / zeta
    elif d_deta:
        fac = ((2 * Lo + 2 * L)[mask]) / eta
    else:
        fac = 1.0
    return _scaled_sum(tm, fac)


def g_hat(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """The double-sum building block of the skew-kernel.

    Raises OverflowError when the value exceeds double range; callers at
    large n+L should use the rescaled kernel, which folds the weight in
    before exponentiating.
    """
    if not params.n > params.N:
        raise DomainError("g_hat requires n > N")
    m, s = _g_hat_scaled(params, zeta, eta)
    if s == 0:
        return 0.0 + 0.0j
    total = m + math.log(abs(s))
    if total > 700.0:
        raise OverflowError(
            f"g_hat magnitude exp({total:.1f}) exceeds double range; "
            "use rescaled_kernel for large n+L"
        )
    return cmath.exp(m) * s


def _kernel_scaled(params: EnsembleParams, zeta: complex, eta: complex):
    """(M, v) with skew_kernel_tilde = exp(M) * v."""
    zeta = complex(zeta)
    eta = complex(eta)
    oz = 1.0 + zeta * zeta
    oe = 1.0 + eta * eta
    if oz == 0 or oe == 0:
        raise PoleError(f"skew kernel has a pole at zeta or eta = +-i (got {zeta}, {eta})")
    m, (g1, g2) = _common_scale(
        [_g_hat_scaled(params, zeta, eta), _g_hat_scaled(params, eta, zeta)]
    )
    diff = g1 - g2
    lw = -(params.nl - 0.5) * (cmath.log(oz) + cmath.log(oe))
    scale = m + lw.real
    return scale, diff * cmath.exp(1j * lw.imag)


def skew_kernel_tilde(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """The antisymmetric weighted kernel at finite N (double-sum route)."""
    m, v = _kernel_scaled(params, zeta, eta)
    return cmath.exp(m) * v if v != 0 else 0.0 + 0.0j


def _kernel_dzeta_scaled(params: EnsembleParams, zeta: complex, eta: complex):
    """(M, v) with skew_kernel_tilde_dzeta = exp(M) * v; M is complex."""
    zeta = complex(zeta)
    eta = complex(eta)
    oz = 1.0 + zeta * zeta
    oe = 1.0 + eta * eta
    if oz == 0 or oe == 0:
        raise PoleError("derivative requested at a kernel pole")
    m, (g1, g2, d1, d2) = _common_scale([
        _g_hat_scaled(params, zeta, eta),
        _g_hat_scaled(params, eta, zeta),
        _g_hat_scaled(params, zeta, eta, d_dzeta=True),
        _g_hat_scaled(params, eta, zeta, d_deta=True),
    ])
    khat, dkhat = g1 - g2, d1 - d2
    lw = -(params.nl - 0.5) * (cmath.log(oz) + cmath.log(oe))
    # d/dz [e^{lw} khat] = e^{lw} (dkhat - (n+L-1/2) * 2 zeta/(1+zeta^2) khat)
    inner = dkhat - (params.nl - 0.5) * 2.0 * zeta / oz * khat
    return m + lw, inner


def skew_kernel_tilde_dzeta(params: EnsembleParams, zeta: complex, eta: complex) -> complex:
    """Exact d/dzeta of skew_kernel_tilde by term-by-term differentiation.

    This is the independent oracle for the Christoffel-Darboux residual:
    it never touches the closed-form right-hand side.
    """
    m, v = _kernel_dzeta_scaled(params, zeta, eta)
    return cmath.exp(m) * v


def skew_kernel_via_sop(system: SkewOPSystem, zeta: complex, eta: complex) -> complex:
    """Skew-kernel assembled from the skew-orthogonal polynomial sum.

    The canonical polynomial kernel is multiplied by (zeta*eta)^{2L}
    (principal branches) and the same (1+zeta^2)(1+eta^2) power as the
    double-sum route, so the two routes target the identical function.
    """
    params = system.params
    zeta = complex(zeta)
    eta = complex(eta)
    oz = 1.0 + zeta * zeta
    oe = 1.0 + eta * eta
    if oz == 0 or oe == 0:
        raise PoleError("skew kernel has a pole at zeta or eta = +-i")
    total = 0.0 + 0.0j
    for k in range(params.N):
        qoz = system.q_odd_at(k, zeta)
        qoe = system.q_odd_at(k, eta)
        qez = system.q_even_at(k, zeta)
        qee = system.q_even_at(k, eta)
        total += (qoz * qee - qez * qoe) / system.norms[k]
    if params.L != 0:
        if zeta == 0 or eta == 0:
            return 0.0 + 0.0j
        total *= cmath.exp(2.0 * params.L * (cmath.log(zeta) + cmath.log(eta)))
    lw = -(params.nl - 0.5) * (cmath.log(oz) + cmath.log(oe))
    return cmath.exp(lw) * total


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
        m, v = _kernel_scaled(params, x, y)
        if v == 0:
            return 0.0 + 0.0j
        return cmath.exp(m + log_weight_omega(params, x) + log_weight_omega(params, y)) * v

    return pfaffian_intensity(points, entry, tol=1e-9)


def _check_regime(params: EnsembleParams, regime: RegimeSpec) -> None:
    ref = regime.params_at(params.N)
    ok = math.isclose(ref.n, params.n, rel_tol=1e-9, abs_tol=1e-9) and math.isclose(
        ref.L, params.L, rel_tol=1e-9, abs_tol=1e-9
    )
    if not ok:
        raise DomainError(
            f"params {params} inconsistent with regime {regime} at N={params.N} "
            f"(expected n={ref.n}, L={ref.L})"
        )


def rescaled_kernel(
    params: EnsembleParams, regime: RegimeSpec, z: complex, w: complex
) -> complex:
    """Microscopically rescaled kernel at the regime's zoom point.

    kappa_tilde_N(z, w) = (1+p^2)^{-3} (N delta)^{-3/2}
                          ktilde_N(p + z/sqrt(N delta), p + w/sqrt(N delta)).
    """
    _check_regime(params, regime)
    p = regime.p
    d = local_scale_delta(params, p)
    s = math.sqrt(params.N * d)
    zeta = p + complex(z) / s
    eta = p + complex(w) / s
    m, v = _kernel_scaled(params, zeta, eta)
    if v == 0:
        return 0.0 + 0.0j
    lpref = -3.0 * math.log1p(p * p) - 1.5 * math.log(params.N * d)
    return cmath.exp(m + lpref) * v


def rescaled_r1(params: EnsembleParams, regime: RegimeSpec, z: complex) -> float:
    """Rescaled one-point intensity, normalized to O(1) in the bulk.

    Includes the (N delta)^{-1} Jacobian of the microscopic change of
    variables, so the value tends to the limiting Pfaffian one-point
    function (-> 1 deep in the strong bulk).
    """
    _check_regime(params, regime)
    p = regime.p
    d = local_scale_delta(params, p)
    s = math.sqrt(params.N * d)
    zeta = p + complex(z) / s
    m, v = _kernel_scaled(params, zeta, zeta.conjugate())
    if v == 0:
        return 0.0
    lw = 2.0 * log_weight_omega(params, zeta)
    val = cmath.exp(m + lw - math.log(params.N * d)) * v * (zeta.conjugate() - zeta)
    if abs(val) > 0 and abs(val.imag) > 1e-9 * abs(val):
        raise NumericalError(f"rescaled R1 has imaginary residue {val.imag:.3e}")
    return val.real
