"""The three universal limiting kernels and their correlation assemblies.

Each kernel kappa is antisymmetric, and the damped combination
K(z,w) = e^{-z^2-w^2} kappa(z,w) solves dK/dz = F(z,w) with K(w,w) = 0,
where F is the matching inhomogeneity from the rescaled finite-N identity.
``ode_residual`` verifies exactly that, with a finite-difference dK/dz.
The edge, weak and origin kernels use fixed Gauss rules on node arrays
(``specfun._gauss``); the origin's second route keeps adaptive ``quad``.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .cdi import limiting_f
from .errors import BranchWarning, DomainError, DoubleRangeError, QuadratureError
from .params import Origin, RegimeSpec, Strong, Weak
from .pfaffian import pfaffian_intensity
from .specfun import (
    _JACOBI_NODES,
    _gauss,
    _unscale,
    erf_c,
    erfc_c,
    mittag_leffler,
    reg_inc_gamma_p,
)

__all__ = [
    "LimitKernelSpec",
    "f_profile",
    "f_profile_deriv",
    "wronskian_integral",
    "kappa",
    "kappa_strong",
    "kappa_weak",
    "kappa_origin",
    "kappa_origin_gamma_form",
    "ode_residual",
    "limit_rk",
]

_SQRT_PI = math.sqrt(math.pi)
_KINDS = ("strong_bulk", "strong_edge", "weak", "origin")
_LEGENDRE_NODES = 32  # first n of the Wronskian's Gauss-Legendre rules


@dataclass(frozen=True)
class LimitKernelSpec:
    """Selector for one of the universal limits.

    kind 'weak' needs rho > 0; kind 'origin' needs L >= 0; the strong
    kinds carry no parameters (bulk integrates the Wronskian over the
    whole line, edge over (-inf, 0)).
    """

    kind: str
    rho: float | None = None
    L: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "weak" and not (self.rho is not None and self.rho > 0):
            raise DomainError("weak limit needs rho > 0")
        if self.kind == "origin" and not (self.L is not None and self.L >= 0):
            raise DomainError("origin limit needs L >= 0")

    def to_regime(self) -> RegimeSpec:
        """A representative finite-N regime whose limit is this kernel."""
        if self.kind == "strong_bulk":
            return Strong(a=1.0, b=1.0, p=1.0)
        if self.kind == "strong_edge":
            return Strong(a=1.0, b=1.0, p=math.sqrt(2.0))  # p = r2
        if self.kind == "weak":
            return Weak(rho=self.rho)
        return Origin(L=self.L, b=1.0)


def f_profile(z: complex, u):
    """Half-erfc profile (1/2) erfc(sqrt(2)(z-u)), elementwise in an array u."""
    return 0.5 * erfc_c(math.sqrt(2.0) * (complex(z) - u))


def f_profile_deriv(z: complex, u):
    """d/du of f_profile, in closed form: sqrt(2/pi) e^{-2(z-u)^2}; u may be an array."""
    return math.sqrt(2.0 / math.pi) * np.exp(-2.0 * (complex(z) - u) ** 2)


def _cquad(f, lo: float, hi: float) -> complex:
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            re = quad(lambda u: f(u).real, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=300)[0]
            im = quad(lambda u: f(u).imag, lo, hi, epsabs=1e-12, epsrel=1e-11, limit=300)[0]
        except IntegrationWarning as exc:
            raise QuadratureError(f"adaptive quadrature on [{lo}, {hi}] failed: {exc}") from exc
    return re + 1j * im


def wronskian_integral(z: complex, w: complex, lo: float, hi: float) -> complex:
    """integral over [lo, hi] of W(f_w, f_z)(u) = f_w f_z' - f_z f_w'."""
    z, w = complex(z), complex(w)

    def integrand(u):
        return f_profile(w, u) * f_profile_deriv(z, u) - f_profile(z, u) * f_profile_deriv(w, u)

    return _gauss(integrand, 0.0, 0.0, _LEGENDRE_NODES, lo, hi)


def _cutoff(z: complex, w: complex) -> float:
    # beyond u = 8 + |Re z| + |Re w| the Gaussian factors are < 1e-16
    return 8.0 + abs(complex(z).real) + abs(complex(w).real)


def kappa_strong(spec: LimitKernelSpec, z: complex, w: complex) -> complex:
    """Strong non-unitarity kernel; bulk short-circuits to the erf form."""
    if spec.kind not in ("strong_bulk", "strong_edge"):
        raise DomainError(f"kappa_strong needs a strong spec, got {spec.kind}")
    z, w = complex(z), complex(w)
    pref = _SQRT_PI * cmath.exp(z * z + w * w)
    if spec.kind == "strong_bulk":
        return pref * erf_c(z - w)
    u0 = _cutoff(z, w)
    return pref * wronskian_integral(z, w, -u0, 0.0)


def kappa_weak(rho: float, z: complex, w: complex) -> complex:
    """Almost-circular kernel: finite Wronskian integral plus boundary terms."""
    if not rho > 0:
        raise DomainError(f"kappa_weak needs rho > 0, got {rho}")
    z, w = complex(z), complex(w)
    half_width = rho / (2.0 * math.sqrt(2.0))
    integral = wronskian_integral(z, w, -half_width, half_width)
    boundary = f_profile(w, half_width) * f_profile(z, -half_width) - f_profile(
        z, half_width
    ) * f_profile(w, -half_width)
    return _SQRT_PI * cmath.exp(z * z + w * w) * (integral + boundary)


def kappa_origin(L: float, z: complex, w: complex) -> complex:
    """Spectral-singularity kernel via the Mittag-Leffler quadrature, Gauss-Jacobi in s^{2L}."""
    if L < 0:
        raise DomainError(f"kappa_origin needs L >= 0, got {L}")
    z, w = complex(z), complex(w)
    zw = z * w
    if L > 0:
        if zw == 0:
            return 0.0 + 0.0j
        if (2 * L) != int(2 * L) and zw.real < 0 and abs(zw.imag) <= 1e-12 * abs(zw):
            warnings.warn(
                "z*w on the negative real axis with non-integer 2L: "
                "principal branch of (2zw)^{2L} is discontinuous here",
                BranchWarning,
                stacklevel=2,
            )
    log_pref = 2.0 * L * cmath.log(2.0 * zw) if L > 0 else 0.0

    def integrand(s):
        with np.errstate(over="raise"):
            envelope = z * np.exp((1 - s * s) * z * z) - w * np.exp((1 - s * s) * w * w)
            # / (2L+1), the mass of s^{2L}: _gauss averages over the weight
            return envelope * mittag_leffler(2.0, 1.0 + 2 * L, (2.0 * s * zw) ** 2) / (1 + 2 * L)

    try:
        integral = _gauss(integrand, 2 * L, 0.0, _JACOBI_NODES)
    except FloatingPointError as exc:  # e^{z^2} or the series overflowed on a node
        raise DoubleRangeError(f"kappa_origin integrand lies outside double range: {exc}") from exc
    # (2zw)^{2L} meets the integral in one exp: DoubleRangeError only off double range
    return 2.0 * _unscale(log_pref, integral)


def kappa_origin_gamma_form(L: float, z: complex, w: complex) -> complex:
    """Alternative origin kernel via regularised incomplete gamma functions.

    Uses the principal branch for (-1)^{-2L} = e^{-2 pi i L} and the
    P(0, .) = 1 convention at L = 0.
    """
    if L < 0:
        raise DomainError(f"kappa_origin_gamma_form needs L >= 0, got {L}")
    z, w = complex(z), complex(w)
    zw = z * w
    phase = cmath.exp(-2.0j * math.pi * L)

    def p_reg(c, x):
        if c == 0:
            return 1.0 + 0.0j
        if x == 0:
            return 0.0 + 0.0j
        return reg_inc_gamma_p(c, x)

    def integrand(s):
        envelope = z * cmath.exp((1 - s * s) * z * z) - w * cmath.exp((1 - s * s) * w * w)
        x = 2.0 * s * zw
        return envelope * (
            cmath.exp(x) * p_reg(2 * L, x) + phase * cmath.exp(-x) * p_reg(2 * L, -x)
        )

    return _cquad(integrand, 0.0, 1.0)


def kappa(spec: LimitKernelSpec, z: complex, w: complex) -> complex:
    """Dispatch to the limit kernel selected by spec."""
    if spec.kind in ("strong_bulk", "strong_edge"):
        return kappa_strong(spec, z, w)
    if spec.kind == "weak":
        return kappa_weak(spec.rho, z, w)
    return kappa_origin(spec.L, z, w)


def _k_damped(spec: LimitKernelSpec, z: complex, w: complex) -> complex:
    z, w = complex(z), complex(w)
    return cmath.exp(-z * z - w * w) * kappa(spec, z, w)


def ode_residual(spec: LimitKernelSpec, z: complex, w: complex):
    """(|dK/dz - F|, |K(w,w)|) for K = e^{-z^2-w^2} kappa.

    dK/dz by central difference with h = 1e-5 max(1, |z|); F comes from
    the rescaled identity's limit (cdi.limiting_f), so this check couples
    the two modules through the same equation that defines the kernels.
    """
    z, w = complex(z), complex(w)
    h = 1e-5 * max(1.0, abs(z))
    dk = (_k_damped(spec, z + h, w) - _k_damped(spec, z - h, w)) / (2.0 * h)
    f = limiting_f(spec.to_regime(), z, w)
    diag = abs(_k_damped(spec, w, w))
    return abs(dk - f), diag


def limit_rk(spec: LimitKernelSpec, points) -> float:
    """k-point limiting intensity via the 2k x 2k Pfaffian assembly."""

    def entry(x: complex, y: complex) -> complex:
        return cmath.exp(-abs(x) ** 2 - abs(y) ** 2) * kappa(spec, x, y)

    return pfaffian_intensity(points, entry, tol=1e-8)
