"""Linear statistics B = sum_j b(|zeta_j|): exact characteristic function,
asymptotic mean/variance, Monte Carlo estimates and the Laplace saddle.

The radial weight factorizes the statistic into N independent radial
components, so the characteristic function is the product of per-degree
phase averages u_l(b)/u_l.  All radial integrals are evaluated after the
substitution t = r^2/(1+r^2), which maps them to beta-type integrands on
[0,1] with no tails; each integrand is rescaled by its interior maximum,
so ratios stay well-conditioned for n+L in the hundreds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DegenerateSaddleWarning, DomainError, QuadratureError
from .params import EnsembleParams, droplet
from .sampler import SampleBatch

__all__ = [
    "RadialStatistic",
    "LinStatSummary",
    "char_function",
    "asymptotic_mean",
    "asymptotic_variance",
    "exact_mean",
    "exact_variance",
    "mc_linear_statistic",
    "laplace_saddle",
]


@dataclass(frozen=True)
class RadialStatistic:
    """A radial test function b with derivative, e.g. b(r) = r^2."""

    b: callable
    b_prime: callable
    label: str = ""

    @staticmethod
    def r_squared() -> "RadialStatistic":
        return RadialStatistic(b=lambda r: r * r, b_prime=lambda r: 2.0 * r, label="r^2")

    @staticmethod
    def constant(c: float) -> "RadialStatistic":
        return RadialStatistic(b=lambda r: c, b_prime=lambda r: 0.0, label=f"const:{c}")

    @staticmethod
    def radius() -> "RadialStatistic":
        return RadialStatistic(b=lambda r: r, b_prime=lambda r: 1.0, label="r")


def _radial_average(params: EnsembleParams, l: int, func) -> complex:
    """<func(r)>_l under the weight r^{4l+4L+3} (1+r^2)^{-2(n+L+1)} dr.

    In t = r^2/(1+r^2) the weight becomes t^{2l+2L+1} (1-t)^{2(n-l)-1}/2,
    a beta integrand on [0,1]; both numerator and denominator carry the
    same exp(-logmax) rescaling, which cancels in the ratio.
    """
    n, L = params.n, params.L
    a_exp = 2 * l + 2 * L + 1.0
    b_exp = 2 * (n - l) - 1.0
    if b_exp <= -1.0 or a_exp <= -1.0:
        raise DomainError(f"radial moment not integrable at l={l} for {params}")
    t_star = a_exp / (a_exp + b_exp) if a_exp + b_exp > 0 else 0.5
    t_star = min(max(t_star, 1e-12), 1 - 1e-12)
    log_max = a_exp * math.log(t_star) + b_exp * math.log1p(-t_star)

    def weight(t):
        return math.exp(a_exp * math.log(t) + b_exp * math.log1p(-t) - log_max)

    def r_of(t):
        return math.sqrt(t / (1.0 - t))

    den, den_err = quad(weight, 0.0, 1.0, points=[t_star], epsabs=1e-14, epsrel=1e-12, limit=200)
    if den <= 0 or den_err > 1e-8 * den:
        raise QuadratureError(f"denominator quadrature unreliable at l={l}")
    re, re_err = quad(lambda t: weight(t) * func(r_of(t)).real, 0.0, 1.0,
                      points=[t_star], epsabs=1e-14, epsrel=1e-12, limit=200)
    im, _ = quad(lambda t: weight(t) * func(r_of(t)).imag, 0.0, 1.0,
                 points=[t_star], epsabs=1e-14, epsrel=1e-12, limit=200)
    return complex(re, im) / den


def char_function(params: EnsembleParams, stat: RadialStatistic, k_fourier: float) -> complex:
    """Characteristic function of B at frequency k: prod_l u_l(b)/u_l.

    The per-degree ratios are phase averages, computed directly in scaled
    form so the product never touches the (possibly subnormal) raw u_l.
    """
    if k_fourier == 0.0:
        return 1.0 + 0.0j
    out = 1.0 + 0.0j
    for l in range(params.N):
        out *= _radial_average(params, l, lambda r: np.exp(1j * k_fourier * stat.b(r)))
    return out


def exact_mean(params: EnsembleParams, stat: RadialStatistic) -> float:
    """Finite-N mean of B through the independent radial components."""
    return float(
        sum(
            _radial_average(params, l, lambda r: complex(stat.b(r))).real
            for l in range(params.N)
        )
    )


def exact_variance(params: EnsembleParams, stat: RadialStatistic) -> float:
    """Finite-N variance of B through the independent radial components."""
    total = 0.0
    for l in range(params.N):
        m1 = _radial_average(params, l, lambda r: complex(stat.b(r))).real
        m2 = _radial_average(params, l, lambda r: complex(stat.b(r) ** 2)).real
        total += m2 - m1 * m1
    return total


def asymptotic_mean(params: EnsembleParams, stat: RadialStatistic) -> float:
    """Macroscopic mean (n+L) * 2 int_{r1}^{r2} b(r) r (1+r^2)^{-2} dr."""
    geo = droplet(params)
    val, err = quad(
        lambda r: stat.b(r) * r / (1.0 + r * r) ** 2, geo.r1, geo.r2,
        epsabs=1e-13, epsrel=1e-12, limit=200,
    )
    if err > 1e-8 * max(abs(val), 1e-30):
        raise QuadratureError("asymptotic mean quadrature unreliable")
    return 2.0 * params.nl * val


def asymptotic_variance(
    params: EnsembleParams, stat: RadialStatistic, method: str = "radial"
) -> float:
    """Limiting variance of B.

    method='radial': (1/4) int_{r1}^{r2} r b'(r)^2 dr.
    method='surface': (1/8) int_S |grad b|^2 dA evaluated as a genuine 2D
    quadrature; equals the radial form and serves as its cross-check.
    """
    geo = droplet(params)
    if method == "radial":
        val, err = quad(
            lambda r: r * stat.b_prime(r) ** 2, geo.r1, geo.r2,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        if err > 1e-8 * max(abs(val), 1e-30):
            raise QuadratureError("asymptotic variance quadrature unreliable")
        return 0.25 * val
    if method == "surface":
        from scipy.integrate import dblquad

        val, err = dblquad(
            lambda theta, r: r * stat.b_prime(r) ** 2 / math.pi,
            geo.r1, geo.r2, 0.0, 2.0 * math.pi,
            epsabs=1e-12, epsrel=1e-11,
        )
        return 0.125 * val
    raise DomainError(f"unknown variance method {method!r}")


@dataclass(frozen=True)
class LinStatSummary:
    """Monte Carlo summary of a linear statistic over a batch."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    samples: np.ndarray


def mc_linear_statistic(batch: SampleBatch, stat: RadialStatistic) -> LinStatSummary:
    """Per-trial B = sum over the N upper-half representatives of b(|zeta|).

    Each conjugate pair counts once: the Gibbs measure is over the N
    independent eigenvalues, so doubling would double the mean.
    """
    if batch.trials < 1:
        raise DomainError("empty batch")
    # b is a scalar map; do not assume it broadcasts over arrays
    samples = np.array(
        [sum(stat.b(float(r)) for r in np.abs(trial)) for trial in batch.eigen_pairs],
        dtype=float,
    )
    mean = float(np.mean(samples))
    if batch.trials > 1:
        var = float(np.var(samples, ddof=1))
        se_mean = math.sqrt(var / batch.trials)
        se_var = var * math.sqrt(2.0 / (batch.trials - 1))
    else:
        var, se_mean, se_var = 0.0, math.inf, math.inf
    return LinStatSummary(
        mean=mean, variance=var, se_mean=se_mean, se_variance=se_var, samples=samples
    )


def laplace_saddle(params: EnsembleParams, l: int):
    """Saddle of the leading radial exponent f0(r) = -2(n+L)log(1+r^2) + 4(L+l)log r.

    Returns (r_l, f0''(r_l)) with r_l = sqrt((L+l)/(n-l)) and
    f0''(r_l) = -8(n-l)^2/(n+L); the stationarity f0'(r_l) = 0 is
    verified numerically whenever the saddle is interior (r_l > 0).
    """
    n, L = params.n, params.L
    if l < 0 or l >= n:
        raise DomainError(f"need 0 <= l < n, got l={l}, n={n}")
    r_l = math.sqrt((L + l) / (n - l))
    fpp = -8.0 * (n - l) ** 2 / (n + L)
    if r_l == 0.0:
        warnings.warn(
            "saddle degenerates to the boundary r = 0 (l = 0, L = 0)",
            DegenerateSaddleWarning,
            stacklevel=2,
        )
        return r_l, fpp
    fprime = -4.0 * (n + L) * r_l / (1.0 + r_l * r_l) + 4.0 * (L + l) / r_l
    if abs(fprime) > 1e-9 * (abs(4.0 * (L + l) / r_l) + 1.0):
        raise QuadratureError(f"saddle stationarity check failed: f0'({r_l}) = {fprime}")
    return r_l, fpp
