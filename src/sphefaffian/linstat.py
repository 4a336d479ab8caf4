"""Linear statistics B = sum_j b(|zeta_j|): exact characteristic function,
asymptotic mean/variance, Monte Carlo estimates and the Laplace saddle.

The radial weight factorizes the statistic into N independent radial
components, so the characteristic function is the product of per-degree
phase averages u_l(b)/u_l.  The substitution t = r^2/(1+r^2) maps each
radial weight to the Jacobi weight t^{2l+2L+1} (1-t)^{2(n-l)-1} on [0,1],
so each average is one Gauss-Jacobi mean (``specfun._gauss``) whose
weights sum to 1: no moment u_l is formed, and none leaves double range
for n+L in the hundreds.  Only the macroscopic moments use adaptive quad.
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
from .specfun import _JACOBI_NODES, _gauss

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
    """A radial test function b with derivative, e.g. b(r) = r^2.

    b and b_prime map an ndarray of radii elementwise."""

    b: callable
    b_prime: callable
    label: str = ""

    @staticmethod
    def r_squared() -> "RadialStatistic":
        return RadialStatistic(b=lambda r: r * r, b_prime=lambda r: 2.0 * r, label="r^2")

    @staticmethod
    def constant(c: float) -> "RadialStatistic":
        return RadialStatistic(b=lambda r: np.full_like(r, c, dtype=float),
                               b_prime=np.zeros_like, label=f"const:{c}")

    @staticmethod
    def radius() -> "RadialStatistic":
        return RadialStatistic(b=lambda r: r, b_prime=np.ones_like, label="r")


def _radial_average(params: EnsembleParams, l: int, func) -> complex:
    """<func(r)>_l under the weight r^{4l+4L+3} (1+r^2)^{-2(n+L+1)} dr.

    In t = r^2/(1+r^2) the weight is t^{2l+2L+1} (1-t)^{2(n-l)-1}/2 on [0,1]
    (n > N keeps 2(n-l)-1 > 1): one Gauss-Jacobi mean, func called on the node
    array r = sqrt(t/(1-t)); QuadratureError if the rules never agree."""
    a_exp, b_exp = 2 * l + 2 * params.L + 1.0, 2 * (params.n - l) - 1.0
    return _gauss(lambda t: func(np.sqrt(t / (1.0 - t))), a_exp, b_exp, _JACOBI_NODES)


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
    return float(sum(_radial_average(params, l, stat.b).real for l in range(params.N)))


def exact_variance(params: EnsembleParams, stat: RadialStatistic) -> float:
    """Finite-N variance of B through the independent radial components."""
    total = 0.0
    for l in range(params.N):
        m1 = _radial_average(params, l, stat.b).real
        m2 = _radial_average(params, l, lambda r: stat.b(r) ** 2).real
        total += m2 - m1 * m1
    return total


def _droplet_integral(params: EnsembleParams, f, what: str) -> float:
    """int_{r1}^{r2} f(r) dr over the droplet's radii by adaptive quad."""
    geo = droplet(params)
    val, err = quad(f, geo.r1, geo.r2, epsabs=1e-13, epsrel=1e-12, limit=200)
    if err > 1e-8 * max(abs(val), 1e-30):
        raise QuadratureError(f"asymptotic {what} quadrature unreliable")
    return val


def asymptotic_mean(params: EnsembleParams, stat: RadialStatistic) -> float:
    """Macroscopic mean (n+L) * 2 int_{r1}^{r2} b(r) r (1+r^2)^{-2} dr."""
    mean = _droplet_integral(params, lambda r: stat.b(r) * r / (1.0 + r * r) ** 2, "mean")
    return 2.0 * params.nl * mean


def asymptotic_variance(params: EnsembleParams, stat: RadialStatistic) -> float:
    """Limiting variance of B, (1/4) int_{r1}^{r2} r b'(r)^2 dr."""
    return 0.25 * _droplet_integral(params, lambda r: r * stat.b_prime(r) ** 2, "variance")


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
    samples = np.array([stat.b(np.abs(trial)).sum() for trial in batch.eigen_pairs], dtype=float)
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
