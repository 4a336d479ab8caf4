"""The universal limiting kernels of five kinds (``_KINDS``: strong bulk,
outer edge r2, inner edge r1, weak, origin) and their correlation assemblies.

Each kernel kappa is antisymmetric, and the damped combination
K(z,w) = e^{-z^2-w^2} kappa(z,w) solves dK/dz = F(z,w) with K(w,w) = 0,
where F is the matching inhomogeneity from the rescaled finite-N identity.
``ode_residual`` verifies exactly that, with a finite-difference dK/dz.

A LimitKernelSpec or a regime (which names the kind of its own limit)
selects a kernel: both carry ``.kind``, ``.rho`` and ``.L``.
``_kappa_scaled`` is the one dispatch on the kind (cdi.limiting_f is the
one for F): kappa in specfun's (scale, mantissa) convention, the scale
holding e^{z^2+w^2} (or the origin's (2zw)^{2L} e^{z^2 or w^2}).
``kappa``, K and ``limit_rk``'s entries all leave it through
``specfun._unscale``, so a damping factor cancels the scale inside one
exp, and DoubleRangeError is raised only where the value itself lies
outside double range.  The edge, weak and origin kernels use fixed Gauss
rules on node arrays (``specfun._gauss``), and so does the origin's second
route, ``kappa_origin_gamma_form``, which evaluates
``specfun.inc_gamma_entire_part`` on the Gauss-Jacobi rule's node arrays.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad  # bound only for perfbench's tracer

from .cdi import limiting_f
from .errors import BranchWarning, DomainError, DoubleRangeError
from .params import RegimeSpec
from .pfaffian import pfaffian_intensity
from .specfun import (
    _JACOBI_NODES,
    _gauss,
    _unscale,
    erf_c,
    erfc_c,
    inc_gamma_entire_part,
    mittag_leffler,
)

__all__ = [
    "LimitKernelSpec",
    "f_profile",
    "f_profile_deriv",
    "wronskian_integral",
    "kappa",
    "kappa_origin_gamma_form",
    "ode_residual",
    "limit_rk",
]

_LOG_2, _LOG_PI = math.log(2.0), math.log(math.pi)
_KINDS = ("strong_bulk", "strong_edge", "strong_inner_edge", "weak", "origin")
_LEGENDRE_NODES = 32  # first n of the Wronskian's Gauss-Legendre rules


@dataclass(frozen=True)
class LimitKernelSpec:
    """Selector for one of the universal limits, by a kind of _KINDS.

    kind 'weak' needs rho > 0; kind 'origin' needs L >= 0; the strong
    kinds carry no parameters (bulk integrates the Wronskian over the
    whole line, the outer edge over (-inf, 0); the inner edge is the outer
    edge mirrored, kappa_edge(-w, -z)).
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


def f_profile(z: complex, u):
    """Half-erfc profile (1/2) erfc(sqrt(2)(z-u)), elementwise in an array u."""
    return 0.5 * erfc_c(math.sqrt(2.0) * (complex(z) - u))


def f_profile_deriv(z: complex, u):
    """d/du of f_profile, in closed form: sqrt(2/pi) e^{-2(z-u)^2}; u may be an array."""
    return math.sqrt(2.0 / math.pi) * np.exp(-2.0 * (complex(z) - u) ** 2)


def wronskian_integral(z: complex, w: complex, lo: float, hi: float) -> complex:
    """integral over [lo, hi] of W(f_w, f_z)(u) = f_w f_z' - f_z f_w'."""
    z, w = complex(z), complex(w)

    def integrand(u):
        return f_profile(w, u) * f_profile_deriv(z, u) - f_profile(z, u) * f_profile_deriv(w, u)

    return _gauss(integrand, 0.0, 0.0, _LEGENDRE_NODES, lo, hi)


def _cutoff(z: complex, w: complex) -> float:
    # beyond u = 8 + |Re z| + |Re w| the Gaussian factors are < 1e-16
    return 8.0 + abs(complex(z).real) + abs(complex(w).real)


def _kappa_scaled(spec: LimitKernelSpec | RegimeSpec, z: complex, w: complex):
    """kappa(z, w) as (scale, mantissa), kappa = exp(scale) * mantissa: the one
    dispatch on spec.kind.  The scale carries the factor that leaves double
    range, sqrt(pi) e^{z^2+w^2}, or 2 (2zw)^{2L} e^c at the origin."""
    z, w = complex(z), complex(w)
    if spec.kind != "origin":
        scale = z * z + w * w + 0.5 * _LOG_PI
        if spec.kind == "strong_bulk":
            return scale, erf_c(z - w)
        if spec.kind == "strong_inner_edge":  # the outer edge mirrored
            return scale, wronskian_integral(-w, -z, -_cutoff(z, w), 0.0)
        if spec.kind == "strong_edge":
            return scale, wronskian_integral(z, w, -_cutoff(z, w), 0.0)
        # weak: the finite Wronskian integral plus its boundary terms
        h = spec.rho / (2.0 * math.sqrt(2.0))
        boundary = f_profile(w, h) * f_profile(z, -h) - f_profile(z, h) * f_profile(w, -h)
        return scale, wronskian_integral(z, w, -h, h) + boundary
    L, zw = spec.L, z * w
    if L > 0:
        if zw == 0:
            return 0.0, 0.0j
        if (2 * L) != int(2 * L) and zw.real < 0 and abs(zw.imag) <= 1e-12 * abs(zw):
            warnings.warn(
                "z*w on the negative real axis with non-integer 2L: "
                "principal branch of (2zw)^{2L} is discontinuous here",
                BranchWarning,
                stacklevel=3,
            )
    # e^c, c the one of z^2, w^2 with the larger real part, moves from the envelope to the scale
    c = max(z * z, w * w, key=lambda v: v.real)

    def integrand(s):
        with np.errstate(over="raise"):
            envelope = z * np.exp((1 - s * s) * z * z - c) - w * np.exp((1 - s * s) * w * w - c)
            # / (2L+1), the mass of s^{2L}: _gauss averages over the weight
            return envelope * mittag_leffler(2.0, 1.0 + 2 * L, (2.0 * s * zw) ** 2) / (1 + 2 * L)

    try:
        integral = _gauss(integrand, 2 * L, 0.0, _JACOBI_NODES)
    except FloatingPointError as exc:  # the envelope or the series overflowed on a node
        raise DoubleRangeError(f"origin kernel integrand lies outside double range: {exc}") from exc
    return _LOG_2 + (2.0 * L * cmath.log(2.0 * zw) if L > 0 else 0.0) + c, integral


def kappa(spec: LimitKernelSpec | RegimeSpec, z: complex, w: complex) -> complex:
    """The limit kernel selected by spec or a regime, exponentiated once:
    DoubleRangeError where kappa itself lies outside double range."""
    return _unscale(*_kappa_scaled(spec, z, w))


def kappa_origin_gamma_form(L: float, z: complex, w: complex) -> complex:
    """Alternative origin kernel via the incomplete gamma's entire part E_c.

    With P(c,x) = x^c e^{-x} E_c(x) and x = 2szw, the integrand
    e^x P(2L,x) + (-1)^{-2L} e^{-x} P(2L,-x) is x^{2L} [E_{2L}(x) + E_{2L}(-x)].
    The principal power (2zw)^{2L}, as in kappa, leaves the integral, and
    s^{2L} becomes the Gauss-Jacobi weight on [0, 1]; E_{2L} is evaluated on
    the rule's node arrays.  DoubleRangeError where the integrand overflows.
    """
    if L < 0:
        raise DomainError(f"kappa_origin_gamma_form needs L >= 0, got {L}")
    z, w = complex(z), complex(w)
    x = 2.0 * z * w
    if L > 0 and x == 0:
        return 0.0j

    def integrand(s):
        with np.errstate(over="raise"):
            envelope = z * np.exp((1 - s * s) * z * z) - w * np.exp((1 - s * s) * w * w)
            # one call at +-sx: its Mittag-Leffler half, where an overflow raises, runs first
            return envelope * inc_gamma_entire_part(2 * L, np.outer((1, -1), s * x)).sum(axis=0)

    try:
        integral = _gauss(integrand, 2 * L, 0.0, _JACOBI_NODES)
    except FloatingPointError as exc:  # the envelope or E_{2L} overflowed on a node
        raise DoubleRangeError(f"gamma-form integrand lies outside double range: {exc}") from exc
    return _unscale(2.0 * L * cmath.log(x) if L > 0 else 0.0, integral / (2 * L + 1))


def _k_damped(spec: LimitKernelSpec, z: complex, w: complex) -> complex:
    z, w = complex(z), complex(w)
    return _unscale(*_kappa_scaled(spec, z, w), -z * z - w * w)


def ode_residual(spec: LimitKernelSpec, z: complex, w: complex):
    """(|dK/dz - F|, |K(w,w)|) for K = e^{-z^2-w^2} kappa.

    dK/dz by central difference with h = 1e-5 max(1, |z|); F comes from
    the rescaled identity's limit (cdi.limiting_f), so this check couples
    the two modules through the same equation that defines the kernels.
    """
    z, w = complex(z), complex(w)
    h = 1e-5 * max(1.0, abs(z))
    dk = (_k_damped(spec, z + h, w) - _k_damped(spec, z - h, w)) / (2.0 * h)
    f = limiting_f(spec, z, w)
    diag = abs(_k_damped(spec, w, w))
    return abs(dk - f), diag


def limit_rk(spec: LimitKernelSpec, points) -> float:
    """k-point limiting intensity via the 2k x 2k Pfaffian assembly."""

    def entry(x: complex, y: complex) -> complex:
        return _unscale(*_kappa_scaled(spec, x, y), -abs(x) ** 2 - abs(y) ** 2)

    return pfaffian_intensity(points, entry, tol=1e-8)
