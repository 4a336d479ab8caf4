"""Monte Carlo sampler for the quaternion matrix model.

The model is G = U (Y^dagger Y)^{1/2} with Y = X A^{-1/2}, where X is an
(N+L) x N standard quaternion Ginibre matrix, A is the Wishart matrix of
an n x N quaternion Ginibre, and U is Haar on the symplectic unitary
group.  All matrices live in their 2x2-block complex representation; the
2N eigenvalues of G close under conjugation and the N upper-half-plane
representatives are the sample.

A trial draws that spectrum in law without forming X, Y or any Hermitian
matrix square root.  Write B = Y^dagger Y = W Lambda W^dagger with W
symplectic unitary.  Then U B^{1/2} is similar to (W^dagger U W)
Lambda^{1/2}, and W^dagger U W is again Haar and independent of Lambda.
Lambda^{1/2} is the set of singular values of R_x R_a^{-1}, where
R_x^dagger R_x = X^dagger X and R_a^dagger R_a = A (``wishart_inv_sqrt``
returns R_a^{-1}).  Each R is a Bartlett factor: for the Wishart matrix of
an m x N quaternion Ginibre it is upper triangular, with quaternion
Ginibre entries above the diagonal and R_jj^2 ~ Gamma(2(m-j)) on it (four
real N(0, 1/2) components per entry, so R_jj^2 ~ chi^2_{4(m-j)}/2;
Dumitriu & Edelman, J. Math. Phys. 43 (2002) 5830).  U is the Q of a QR
factorisation with its column phases fixed by diag(R) (Mezzadri, Notices
AMS 54 (2007) 592).  A trial costs O(N^3) time and O(N^2) memory, whatever
n and L are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular, svdvals

from .errors import (
    CoincidenceError,
    DomainError,
    EigensolverError,
    PairingError,
    SingularError,
)
from .params import EnsembleParams, droplet

__all__ = [
    "QuaternionMatrix",
    "SampleBatch",
    "SpherePoint",
    "RadialHistogram",
    "ginibre_quaternion",
    "wishart_inv_sqrt",
    "haar_symplectic_unitary",
    "sample_ensemble",
    "to_sphere",
    "from_sphere",
    "cayley_klein",
    "coulomb_energy",
    "empirical_radial_density",
]


@dataclass(frozen=True)
class QuaternionMatrix:
    """rows x cols quaternion matrix stored as its 2rows x 2cols complex form.

    Every 2x2 block is [[alpha, beta], [-conj(beta), conj(alpha)]].
    """

    rows: int
    cols: int
    data: np.ndarray

    def structure_deviation(self) -> float:
        """Largest absolute violation of the quaternion block structure."""
        d = self.data
        b11 = d[0::2, 0::2]
        b12 = d[0::2, 1::2]
        b21 = d[1::2, 0::2]
        b22 = d[1::2, 1::2]
        return float(
            max(
                np.max(np.abs(b21 + np.conj(b12))) if b12.size else 0.0,
                np.max(np.abs(b22 - np.conj(b11))) if b11.size else 0.0,
            )
        )


def ginibre_quaternion(rows: int, cols: int, rng: np.random.Generator) -> QuaternionMatrix:
    """Standard quaternion Ginibre matrix: blocks with independent complex
    Gaussian alpha, beta of unit total variance (Re, Im each N(0, 1/2))."""
    if rows < 1 or cols < 1:
        raise DomainError(f"need rows, cols >= 1, got {rows}, {cols}")
    alpha = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)
    beta = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)
    data = np.empty((2 * rows, 2 * cols), dtype=complex)
    data[0::2, 0::2] = alpha
    data[0::2, 1::2] = beta
    data[1::2, 0::2] = -np.conj(beta)
    data[1::2, 1::2] = np.conj(alpha)
    return QuaternionMatrix(rows, cols, data)


def _bartlett_factor(m: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Complex form of an upper-triangular quaternion R such that R^dagger R
    has the law of the Wishart matrix of an m x N quaternion Ginibre."""
    upper = np.kron(np.triu(np.ones((N, N)), 1), np.ones((2, 2)))
    r = ginibre_quaternion(N, N, rng).data * upper
    np.fill_diagonal(r, np.repeat(np.sqrt(rng.gamma(2.0 * (m - np.arange(N)))), 2))
    return r


def wishart_inv_sqrt(n: int, N: int, rng: np.random.Generator) -> QuaternionMatrix:
    """Inverse square root W of a Wishart matrix A, in the sense W^dagger A W = I.

    A is the Wishart matrix of an n x N quaternion Ginibre, drawn as
    A = R^dagger R through its Bartlett factor R, and W = R^{-1} is upper
    triangular.
    """
    if n < N:
        raise DomainError(f"wishart_inv_sqrt needs n >= N, got n={n}, N={N}")
    r = _bartlett_factor(n, N, rng)
    try:
        w = solve_triangular(r, np.eye(2 * N))
    except np.linalg.LinAlgError as exc:
        raise SingularError("singular Bartlett factor (measure-zero event)") from exc
    return QuaternionMatrix(N, N, w)


def haar_symplectic_unitary(N: int, rng: np.random.Generator) -> QuaternionMatrix:
    """Haar symplectic unitary: the Q of a quaternion Ginibre matrix's QR,
    with each column scaled by the phase of its diagonal entry of R.

    Complex QR with a positive diagonal is unique, and the quaternion QR
    (block upper-triangular R with positive scalar diagonal blocks) is such
    a factorisation, so this Q keeps the quaternion block structure to
    rounding.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    q, r = np.linalg.qr(ginibre_quaternion(N, N, rng).data)
    diag = np.diagonal(r)
    if not np.all(diag):
        raise SingularError("degenerate column in Haar QR (measure-zero event)")
    return QuaternionMatrix(N, N, q * (diag / np.abs(diag)))


@dataclass(frozen=True)
class SampleBatch:
    """Eigenvalue sample: one length-N array of upper-half representatives
    per trial, plus the reproducibility contract (seed, params)."""

    seed: int
    params: EnsembleParams
    trials: int
    eigen_pairs: tuple  # tuple of (N,) complex ndarrays

    def all_points(self) -> np.ndarray:
        return np.concatenate(self.eigen_pairs)


def _pair_conjugates(lam: np.ndarray, tol_rel: float = 1e-8) -> np.ndarray:
    """Pair a conjugation-closed spectrum by sorting on (real, imaginary)
    part; return the closed upper-half-plane representative of each pair."""
    pairs = lam[np.lexsort((lam.imag, lam.real))].reshape(-1, 2)
    tol = tol_rel * max(float(np.max(np.abs(lam))), 1e-300)
    gap = np.abs(pairs[:, 0] - np.conj(pairs[:, 1]))
    bad = np.flatnonzero(~(gap <= tol))
    if bad.size:
        i = bad[0]
        raise PairingError(
            f"no conjugate partner within {tol:.3e} for eigenvalue {pairs[i, 0]:.6g} "
            f"(nearest by real part at distance {gap[i]:.3e})"
        )
    top = np.where(pairs[:, 0].imag >= pairs[:, 1].imag, pairs[:, 0], pairs[:, 1])
    return top.real + 1j * np.abs(top.imag)


def _one_trial(params: EnsembleParams, rng: np.random.Generator, trial: int) -> np.ndarray:
    N = params.N
    r_x = _bartlett_factor(N + int(round(params.L)), N, rng)
    w = wishart_inv_sqrt(int(round(params.n)), N, rng).data
    u = haar_symplectic_unitary(N, rng).data
    try:
        d = svdvals(r_x @ w)
        # average the Kramers pairs (svdvals sorts them adjacent)
        d = np.repeat(d.reshape(-1, 2).mean(axis=1), 2)
        lam = np.linalg.eigvals(u * d)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on trial {trial}") from exc
    return np.sort_complex(_pair_conjugates(lam))


def sample_ensemble(params: EnsembleParams, trials: int, seed: int) -> SampleBatch:
    """Sample the matrix model; deterministic per (seed, trial index).

    Requires integer n and L.  Each trial owns an independent child RNG
    stream.
    """
    if trials < 1:
        raise DomainError(f"need trials >= 1, got {trials}")
    if abs(params.n - round(params.n)) > 1e-9 or abs(params.L - round(params.L)) > 1e-9:
        raise DomainError(
            f"sampler needs integer n and L, got n={params.n}, L={params.L}"
        )
    children = np.random.SeedSequence(seed).spawn(trials)
    results = [
        _one_trial(params, np.random.default_rng(c), t) for t, c in enumerate(children)
    ]
    return SampleBatch(
        seed=seed, params=params, trials=trials, eigen_pairs=tuple(results)
    )


@dataclass(frozen=True)
class SpherePoint:
    """Point on the unit-diameter sphere, stereographic from the south pole."""

    theta: float
    phi: float


def to_sphere(z: complex) -> SpherePoint:
    """Inverse stereographic image of z = e^{i phi} tan(theta/2)."""
    z = complex(z)
    theta = 2.0 * math.atan(abs(z))
    phi = math.atan2(z.imag, z.real) % (2.0 * math.pi)
    return SpherePoint(theta=theta, phi=phi)


def from_sphere(p: SpherePoint) -> complex:
    return math.tan(p.theta / 2.0) * complex(math.cos(p.phi), math.sin(p.phi))


def cayley_klein(p: SpherePoint) -> tuple[complex, complex]:
    """Cayley-Klein parameters u = cos(theta/2) e^{i phi/2},
    v = -i sin(theta/2) e^{-i phi/2}."""
    half = p.theta / 2.0
    u = math.cos(half) * complex(math.cos(p.phi / 2.0), math.sin(p.phi / 2.0))
    v = -1j * math.sin(half) * complex(math.cos(p.phi / 2.0), -math.sin(p.phi / 2.0))
    return u, v


def coulomb_energy(points, q1: float, q2: float) -> float:
    """Total Coulomb energy U0 + U1 of unit charges on the sphere with
    fixed charges m*q1 at the north pole and m*q2 at the south pole.

    U0 = -sum_{j<k} log|u_j v_k - u_k v_j|;
    U1 = -m q1 sum log|v_j| - m q2 sum log|u_j|.
    """
    pts = list(points)
    m = len(pts)
    uv = [cayley_klein(p) for p in pts]
    u0 = 0.0
    for j in range(m):
        for k in range(j + 1, m):
            cross = abs(uv[j][0] * uv[k][1] - uv[k][0] * uv[j][1])
            if cross < 1e-15:
                raise CoincidenceError(
                    f"points {j} and {k} coincide on the sphere (|cross| = {cross:.2e})"
                )
            u0 -= math.log(cross)
    u1 = 0.0
    for u, v in uv:
        av, au = abs(v), abs(u)
        if q1 != 0.0:
            u1 -= m * q1 * (math.log(av) if av > 0 else -math.inf)
        if q2 != 0.0:
            u1 -= m * q2 * (math.log(au) if au > 0 else -math.inf)
    return u0 + u1


@dataclass(frozen=True)
class RadialHistogram:
    """Observed vs predicted radial counts for a sample batch."""

    edges: np.ndarray
    counts: np.ndarray
    predicted: np.ndarray


def empirical_radial_density(batch: SampleBatch, bins) -> RadialHistogram:
    """Radial histogram of |zeta| with per-bin predictions from the
    macroscopic density: expected count in [a,b] equals
    trials * (n+L) * (1/(1+a'^2) - 1/(1+b'^2)) with [a',b'] the bin
    clipped to the droplet annulus."""
    radii = np.abs(batch.all_points())
    counts, edges = np.histogram(radii, bins=bins)
    geo = droplet(batch.params)
    nl = batch.params.nl

    def cdf_mass(a: float, b: float) -> float:
        lo = max(a, geo.r1)
        hi = min(b, geo.r2)
        if hi <= lo:
            return 0.0
        return 1.0 / (1.0 + lo * lo) - 1.0 / (1.0 + hi * hi)

    predicted = np.array(
        [batch.trials * nl * cdf_mass(edges[i], edges[i + 1]) for i in range(len(counts))]
    )
    return RadialHistogram(edges=edges, counts=counts, predicted=predicted)
