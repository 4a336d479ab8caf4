"""Monte Carlo sampler for the quaternion matrix model.

The model is G = U (Y^dagger Y)^{1/2} with Y = X A^{-1/2}, where X is an
(N+L) x N standard quaternion Ginibre matrix, A is the Wishart matrix of
an n x N quaternion Ginibre, and U is Haar on the symplectic unitary
group.  All matrices live in their 2x2-block complex representation; the
2N eigenvalues of G close under conjugation and the N upper-half-plane
representatives are the sample.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

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


def _as_quaternion(rows: int, cols: int, data: np.ndarray) -> QuaternionMatrix:
    return QuaternionMatrix(rows=rows, cols=cols, data=data)


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
    return _as_quaternion(rows, cols, data)


def _herm_func(a: np.ndarray, f, floor_rel: float = 1e-12, floor_frac_max: float = 0.01):
    """f(A) for Hermitian A by eigendecomposition with an eigenvalue floor."""
    lam, v = np.linalg.eigh(a)
    lmax = float(np.max(np.abs(lam))) if lam.size else 0.0
    floor = floor_rel * lmax
    n_floored = int(np.sum(lam < floor))
    if n_floored > floor_frac_max * lam.size:
        raise SingularError(
            f"{n_floored}/{lam.size} eigenvalues below the relative floor "
            f"{floor_rel:g}; matrix too close to singular"
        )
    lam = np.maximum(lam, floor)
    return (v * f(lam)) @ np.conj(v.T)


def wishart_inv_sqrt(n: int, N: int, rng: np.random.Generator) -> QuaternionMatrix:
    """A^{-1/2} for A = Y^dagger Y with Y an n x N quaternion Ginibre."""
    if n < N:
        raise DomainError(f"wishart_inv_sqrt needs n >= N, got n={n}, N={N}")
    y = ginibre_quaternion(n, N, rng)
    a = np.conj(y.data.T) @ y.data
    inv_sqrt = _herm_func(a, lambda lam: lam ** -0.5)
    return _as_quaternion(N, N, inv_sqrt)


def haar_symplectic_unitary(N: int, rng: np.random.Generator) -> QuaternionMatrix:
    """Haar symplectic unitary via quaternion-granularity Gram-Schmidt.

    Orthonormalizes the quaternion columns of a quaternion Ginibre matrix;
    the diagonal of the implied R consists of positive real scalars (the
    quaternion norms), which is the block-wise analogue of the phase fix
    that makes complex QR Haar.  A second orthogonalization pass keeps
    U^dagger U at machine precision.
    """
    if N < 1:
        raise DomainError(f"need N >= 1, got {N}")
    g = ginibre_quaternion(N, N, rng)
    q = g.data.copy()
    for j in range(N):
        col = q[:, 2 * j : 2 * j + 2]
        for _ in range(2):  # two MGS passes
            for i in range(j):
                prev = q[:, 2 * i : 2 * i + 2]
                col -= prev @ (np.conj(prev.T) @ col)
        norm = math.sqrt((np.conj(col[:, 0]) @ col[:, 0]).real)
        if norm == 0.0:
            raise SingularError("degenerate column in Haar QR (measure-zero event)")
        col /= norm
    return _as_quaternion(N, N, q)


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
    """Match a conjugation-closed spectrum into pairs; return the closed
    upper-half-plane representatives (one per pair)."""
    lam = np.asarray(lam)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    tol = tol_rel * max(scale, 1e-300)
    order = np.argsort(-np.abs(lam.imag), kind="stable")
    unused = list(order)
    reps = []
    while unused:
        i = unused.pop(0)
        li = lam[i]
        if abs(li.imag) <= tol:
            # numerically real eigenvalue: Kramers degeneracy means another
            # near-equal real copy exists; match it if present.
            best_j, best_d = None, math.inf
            for j in unused:
                d = abs(lam[j] - li)
                if d < best_d:
                    best_j, best_d = j, d
            if best_j is not None and best_d <= tol:
                unused.remove(best_j)
                reps.append(complex(li.real, abs(li.imag)))
                continue
            warnings.warn(
                f"self-paired numerically real eigenvalue {li:.6g}", stacklevel=3
            )
            reps.append(complex(li.real, 0.0))
            continue
        target = li.conjugate()
        best_j, best_d = None, math.inf
        for j in unused:
            d = abs(lam[j] - target)
            if d < best_d:
                best_j, best_d = j, d
        if best_j is None or best_d > tol:
            raise PairingError(
                f"no conjugate partner within {tol:.3e} for eigenvalue {li:.6g} "
                f"(best distance {best_d:.3e})"
            )
        unused.remove(best_j)
        reps.append(li if li.imag > 0 else lam[best_j])
    return np.array(reps, dtype=complex)


def _one_trial(params: EnsembleParams, rng: np.random.Generator, trial: int) -> np.ndarray:
    N = params.N
    n_int = int(round(params.n))
    L_int = int(round(params.L))
    x = ginibre_quaternion(N + L_int, N, rng)
    a_inv_sqrt = wishart_inv_sqrt(n_int, N, rng)
    y = x.data @ a_inv_sqrt.data
    b = np.conj(y.T) @ y
    sqrt_b = _herm_func(b, lambda lam: np.sqrt(np.maximum(lam, 0.0)))
    u = haar_symplectic_unitary(N, rng)
    g = u.data @ sqrt_b
    try:
        lam = np.linalg.eigvals(g)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on trial {trial}") from exc
    reps = _pair_conjugates(lam)
    if len(reps) != N:
        raise PairingError(f"trial {trial}: expected {N} pairs, got {len(reps)}")
    return np.sort_complex(reps)


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
