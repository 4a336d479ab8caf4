import warnings

import numpy as np
import pytest

from sphefaffian.errors import DimensionError, SkewSymmetryWarning
from sphefaffian.pfaffian import pfaffian


def random_skew(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m - m.T


def pfaffian_matching_sum(a):
    """Brute force over perfect matchings; exponential, dims <= 8 only."""
    n = a.shape[0]

    def rec(items):
        if not items:
            return 1.0 + 0.0j
        first, rest = items[0], items[1:]
        total = 0.0 + 0.0j
        for i, other in enumerate(rest):
            total += (-1) ** i * a[first, other] * rec(rest[:i] + rest[i + 1 :])
        return total

    return rec(tuple(range(n)))


class TestSmallCases:
    def test_two_by_two(self):
        a = 3.0 - 2.0j
        assert pfaffian([[0, a], [-a, 0]]) == pytest.approx(a)

    def test_four_by_four_textbook(self):
        rng = np.random.default_rng(0)
        a = random_skew(rng, 4)
        want = a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]
        assert pfaffian(a) == pytest.approx(want, rel=1e-13)

    def test_matching_sum_dim6(self):
        rng = np.random.default_rng(1)
        a = random_skew(rng, 6)
        want = pfaffian_matching_sum(a)
        assert pfaffian(a) == pytest.approx(want, rel=1e-12)

    def test_congruence(self):
        rng = np.random.default_rng(2)
        a = random_skew(rng, 6)
        b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        lhs = pfaffian(b.T @ a @ b)
        rhs = np.linalg.det(b) * pfaffian_matching_sum(a)
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestProperties:
    @pytest.mark.parametrize("dim", range(2, 22, 2))
    def test_square_is_determinant(self, dim):
        rng = np.random.default_rng(dim)
        a = random_skew(rng, dim)
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert pf * pf == pytest.approx(det, rel=1e-9)

    def test_row_col_swap_flips_sign(self):
        rng = np.random.default_rng(5)
        a = random_skew(rng, 8)
        b = a.copy()
        b[[2, 5], :] = b[[5, 2], :]
        b[:, [2, 5]] = b[:, [5, 2]]
        assert pfaffian(b) == pytest.approx(-pfaffian(a), rel=1e-12)

    def test_zero_row_gives_zero(self):
        a = np.zeros((4, 4), dtype=complex)
        a[2, 3] = 5.0
        a[3, 2] = -5.0
        assert pfaffian(a) == 0.0

    def test_empty(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0


class TestConstruction:
    def test_odd_dimension_rejected(self):
        with pytest.raises(DimensionError):
            pfaffian(np.zeros((3, 3)))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            pfaffian(np.zeros((2, 4)))

    def test_antisymmetrization_warns(self):
        a = np.array([[0.0, 1.0], [-1.0 + 1e-3, 0.0]])
        with pytest.warns(SkewSymmetryWarning):
            pfaffian(a)

    def test_small_noise_silent(self):
        rng = np.random.default_rng(6)
        a = random_skew(rng, 4)
        a[0, 1] += 1e-14
        with warnings.catch_warnings():
            warnings.simplefilter("error", SkewSymmetryWarning)
            got = pfaffian(a)
        assert got == pfaffian(0.5 * (a - a.T))  # the skew part, exactly
