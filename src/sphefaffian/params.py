"""Ensemble parameterization, weight/potential, droplet geometry and regimes.

The ensemble of N independent eigenvalues is governed by the radial
potential

    Q(zeta) = ((n+L+1)/N) log(1+|zeta|^2) - (2L/N) log|zeta|,

with n > N and L >= 0.  The eigenvalues concentrate on the annulus
r1 <= |zeta| <= r2 with r1^2 = L/n, r2^2 = (N+L)/(n-N), carrying the
normalized density ((n+L)/N) / (1+|zeta|^2)^2 there (unit total mass;
the 1-point intensity is ~ N times this density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import DomainError

__all__ = [
    "EnsembleParams",
    "DropletGeometry",
    "Strong",
    "Weak",
    "Origin",
    "RegimeSpec",
    "potential_q",
    "weight_omega",
    "droplet",
    "macroscopic_density",
    "local_scale_delta",
]


@dataclass(frozen=True)
class EnsembleParams:
    """Parameters (N, n, L) of the induced spherical symplectic ensemble.

    n and L may be non-integer (the kernel formulas are Gamma-based);
    the matrix-model sampler separately insists on integers.
    """

    N: int
    n: float
    L: float = 0.0

    def __post_init__(self):
        if not isinstance(self.N, (int,)) or self.N < 1:
            raise DomainError(f"N must be a positive integer, got {self.N!r}")
        if not (self.n > self.N and math.isfinite(self.n)):
            raise DomainError(
                f"n must be finite and exceed N (outer radius r2 and Gamma(n-N) "
                f"require n > N), got n={self.n}, N={self.N}"
            )
        if not (self.L >= 0 and math.isfinite(self.L)):
            raise DomainError(f"L must be finite and nonnegative, got {self.L}")

    @property
    def nl(self) -> float:
        """n + L, the exponent scale that controls overflow behaviour."""
        return self.n + self.L


@dataclass(frozen=True)
class DropletGeometry:
    """Inner/outer radii of the supporting annulus."""

    r1: float
    r2: float


@dataclass(frozen=True)
class Strong:
    """Strong non-unitarity: L = a*N, n = (b+1)*N, zoom at p in (r1, r2] U {r1}."""

    a: float
    b: float
    p: float

    def __post_init__(self):
        if self.a < 0 or self.b <= 0 or self.p <= 0:
            raise DomainError(f"Strong regime needs a >= 0, b > 0, p > 0; got {self}")

    def params_at(self, N: int) -> EnsembleParams:
        return EnsembleParams(N=N, n=(self.b + 1.0) * N, L=self.a * N)

    @property
    def limit_radii(self) -> DropletGeometry:
        return DropletGeometry(
            r1=math.sqrt(self.a / (self.b + 1.0)), r2=math.sqrt((self.a + 1.0) / self.b)
        )

    @property
    def at_edge(self) -> bool:
        """Whether the zoom point p is an edge r1 or r2 of the limiting droplet."""
        radii = self.limit_radii
        return any(
            math.isclose(self.p, r, rel_tol=1e-12, abs_tol=1e-12) for r in (radii.r1, radii.r2)
        )


@dataclass(frozen=True)
class Weak:
    """Weak non-unitarity (almost-circular): L = N^2/rho^2 - N, n = N^2/rho^2, p = 1."""

    rho: float

    def __post_init__(self):
        if self.rho <= 0:
            raise DomainError(f"Weak regime needs rho > 0, got {self.rho}")

    @property
    def p(self) -> float:
        return 1.0

    def params_at(self, N: int) -> EnsembleParams:
        n = N * N / (self.rho * self.rho)
        if not n > N:
            raise DomainError(
                f"Weak regime needs N > rho^2 so that n = N^2/rho^2 > N; "
                f"got N={N}, rho={self.rho}"
            )
        return EnsembleParams(N=N, n=n, L=n - N)


@dataclass(frozen=True)
class Origin:
    """Spectral singularity at the origin: L fixed, n = (b+1)*N, p = 0."""

    L: float
    b: float

    def __post_init__(self):
        if self.L < 0 or self.b <= 0:
            raise DomainError(f"Origin regime needs L >= 0, b > 0; got {self}")

    @property
    def p(self) -> float:
        return 0.0

    def params_at(self, N: int) -> EnsembleParams:
        return EnsembleParams(N=N, n=(self.b + 1.0) * N, L=self.L)


RegimeSpec = Union[Strong, Weak, Origin]


def potential_q(params: EnsembleParams, zeta: complex) -> float:
    """Radial potential Q(zeta); infinite (DomainError) at 0 when L > 0."""
    az2 = abs(zeta) ** 2
    if az2 == 0.0:
        if params.L > 0:
            raise DomainError("Q(0) = +infinity when L > 0 (log|zeta| term)")
        return 0.0
    return (
        (params.n + params.L + 1.0) / params.N * math.log1p(az2)
        - params.L / params.N * math.log(az2)
    )


def weight_omega(params: EnsembleParams, zeta: complex) -> float:
    """Pfaffian weight |1+zeta^2|^{n+L-1/2} / (1+|zeta|^2)^{n+L+1}.

    Computed in the log domain so n+L up to ~1e4 neither overflows nor
    underflows prematurely.
    """
    return math.exp(log_weight_omega(params, zeta))  # exp(-inf) = 0 at zeta = +-i


def log_weight_omega(params: EnsembleParams, zeta: complex) -> float:
    """log of weight_omega; -inf at zeta = +-i."""
    z = complex(zeta)
    a = abs(1.0 + z * z)
    if a == 0.0:
        return -math.inf
    return (params.nl - 0.5) * math.log(a) - (params.nl + 1.0) * math.log1p(abs(z) ** 2)


def droplet(params: EnsembleParams) -> DropletGeometry:
    """Annulus radii r1 = sqrt(L/n), r2 = sqrt((N+L)/(n-N))."""
    return DropletGeometry(
        r1=math.sqrt(params.L / params.n),
        r2=math.sqrt((params.N + params.L) / (params.n - params.N)),
    )


def macroscopic_density(params: EnsembleParams, zeta: complex) -> float:
    """Normalized macroscopic density at zeta: ((n+L)/N)/(1+|zeta|^2)^2 on the annulus.

    Integrates to exactly 1 over the droplet with respect to dA = d^2z/pi;
    the eigenvalue intensity R_{N,1} is approximately N times this value.
    """
    r = abs(zeta)
    geo = droplet(params)
    if geo.r1 <= r <= geo.r2:
        return (params.nl / params.N) / (1.0 + r * r) ** 2
    return 0.0


def local_scale_delta(params: EnsembleParams, p: float) -> float:
    """Density-at-p scale delta = ((n+L)/N)/(1+p^2)^2 used in microscopic rescaling."""
    if p < 0:
        raise DomainError(f"zoom point p must be >= 0, got {p}")
    return (params.nl / params.N) / (1.0 + p * p) ** 2
