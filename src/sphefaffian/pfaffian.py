"""Pfaffian of complex skew-symmetric matrices.

Parlett-Reid style skew tridiagonalization with partial pivoting: congruence
transforms by unit-determinant eliminations reduce the matrix two rows and
columns at a time, accumulating Pf(A) = prod of the (k, k+1) pivots times
(-1)^{#swaps}.  O(m^3), no square-root sign ambiguity.

``pfaffian_intensity`` is the k-point correlation assembly shared by the
finite-N and the limiting kernels.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, SkewSymmetryWarning

__all__ = ["pfaffian", "pfaffian_intensity"]


def pfaffian(a) -> complex:
    """Pfaffian of a square, even-dimensional matrix's skew part (A - A^T)/2.

    Asymmetry beyond 1e-10 times the largest entry magnitude is reported
    through :class:`SkewSymmetryWarning`.
    """
    a = np.array(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    dim = a.shape[0]
    if dim % 2 != 0:
        raise DimensionError(
            f"Pfaffian needs even dimension, got {dim} "
            "(odd-dimensional skew matrices have Pf = 0 by convention "
            "but are rejected here)"
        )
    if dim == 0:
        return 1.0 + 0.0j
    scale, asym = np.max(np.abs(a)), np.max(np.abs(a + a.T))
    if scale > 0 and asym > 1e-10 * scale:
        warnings.warn(
            f"input deviates from skew symmetry by {asym:.3e} "
            f"(relative {asym / scale:.3e}); antisymmetrizing",
            SkewSymmetryWarning,
            stacklevel=2,
        )
    m = 0.5 * (a - a.T)
    pf = 1.0 + 0.0j
    for k in range(0, dim - 2, 2):
        # pivot: largest |m[k, i]| for i > k, moved into position k+1
        col = np.abs(m[k, k + 1 :])
        i = int(np.argmax(col)) + k + 1
        if col[i - k - 1] == 0.0:
            return 0.0 + 0.0j
        if i != k + 1:
            m[[k + 1, i], :] = m[[i, k + 1], :]
            m[:, [k + 1, i]] = m[:, [i, k + 1]]
            pf = -pf
        pivot = m[k, k + 1]
        pf *= pivot
        # eliminate row/col k and k+1 beyond position k+1 with unit-determinant
        # congruences: col_j -= f_j col_{k+1} kills m[k, j]; then
        # col_j -= g_j col_k kills m[k+1, j] without reintroducing m[k, j].
        f = m[k, k + 2 :] / pivot
        m[k + 2 :, :] -= np.outer(f, m[k + 1, :])
        m[:, k + 2 :] -= np.outer(m[:, k + 1], f)
        g = m[k + 1, k + 2 :] / (-pivot)
        m[k + 2 :, :] -= np.outer(g, m[k, :])
        m[:, k + 2 :] -= np.outer(m[:, k], g)
    pf *= m[dim - 2, dim - 1]
    return complex(pf)


def pfaffian_intensity(points, entry, tol: float) -> float:
    """k-point intensity prod_j (conj(z_j) - z_j) Pf[entry(x_r, x_c)].

    The 2k x 2k skew matrix runs over the interleaved points
    x = (z_1, conj(z_1), ..., z_k, conj(z_k)); entry(x_r, x_c) is the
    weighted kernel.  The result is real up to rounding.  Its imaginary
    residue is measured against the Hadamard bound
    sqrt(prod_i ||a_i||) * prod_j |conj(z_j) - z_j| on |result|
    (|Pf A|^2 = |det A| <= prod of the row norms), not against |result|,
    which cancels far below its entries when points sit close together.
    A residue above ``tol`` times that scale raises NumericalError.  The
    check thus bounds an absolute error relative to the Hadamard scale,
    not the relative error of the result: where the result is a small
    fraction of the scale, an entry function that breaks conjugate
    symmetry can move the result by more than its own size and pass.
    """
    pts = [complex(p) for p in points]
    if not pts:
        raise DomainError("a k-point intensity needs at least one point")
    doubled = [x for p in pts for x in (p, p.conjugate())]
    dim = len(doubled)
    a = np.zeros((dim, dim), dtype=complex)
    for r in range(dim):
        for c in range(r + 1, dim):
            a[r, c] = entry(doubled[r], doubled[c])
            a[c, r] = -a[r, c]
    if not np.all(np.isfinite(a)):
        raise NumericalError("non-finite kernel entries in correlation matrix")
    gaps = [p.conjugate() - p for p in pts]
    pf = pfaffian(a)
    for g in gaps:
        pf *= g
    scale = np.prod(np.sqrt(np.linalg.norm(a, axis=1))) * math.prod(abs(g) for g in gaps)
    if abs(pf.imag) > tol * scale:
        raise NumericalError(
            f"correlation has imaginary residue {pf.imag:.3e} vs Hadamard scale {scale:.3e}"
        )
    return pf.real
