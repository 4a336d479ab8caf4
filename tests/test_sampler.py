import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import ks_2samp, kstest

from sphefaffian.errors import CoincidenceError, DomainError, PairingError
from sphefaffian.params import EnsembleParams, droplet
from sphefaffian.sampler import (
    _bartlett_factor,
    _pair_conjugates,
    SpherePoint,
    cayley_klein,
    coulomb_energy,
    empirical_radial_density,
    from_sphere,
    ginibre_quaternion,
    haar_symplectic_unitary,
    sample_ensemble,
    to_sphere,
    wishart_inv_sqrt,
)


class TestGinibre:
    def test_block_structure_exact(self):
        g = ginibre_quaternion(6, 4, np.random.default_rng(0))
        assert g.structure_deviation() == 0.0

    def test_moments(self):
        rng = np.random.default_rng(1)
        g = ginibre_quaternion(100, 100, rng)
        alpha = g.data[0::2, 0::2].ravel()
        n = alpha.size
        assert abs(alpha.mean()) < 4.0 / math.sqrt(n)  # 4 sigma on the mean
        assert np.var(alpha.real) == pytest.approx(0.5, rel=0.05)
        assert np.var(alpha.imag) == pytest.approx(0.5, rel=0.05)
        assert np.mean(np.abs(alpha) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_bad_shape(self):
        with pytest.raises(DomainError):
            ginibre_quaternion(0, 3, np.random.default_rng(0))


class TestWishart:
    def test_defining_property(self):
        # reproduce A = R^dagger R from the same stream, then check the inverse sqrt
        r = _bartlett_factor(8, 4, np.random.default_rng(2))
        a = np.conj(r.T) @ r
        inv_sqrt = wishart_inv_sqrt(8, 4, np.random.default_rng(2)).data
        res = np.conj(inv_sqrt.T) @ a @ inv_sqrt
        assert np.max(np.abs(res - np.eye(8))) < 1e-8

    def test_bartlett_law_matches_ginibre_gram(self):
        # R^dagger R of the Bartlett factor and Y^dagger Y of an m x N
        # quaternion Ginibre Y: two-sample KS on the pooled eigenvalues
        # and on the (1,1) entry
        N, m, draws = 4, 7, 400
        rng = np.random.default_rng(15)
        gram = lambda f: np.conj(f.T) @ f
        ginibre = [gram(ginibre_quaternion(m, N, rng).data) for _ in range(draws)]
        bartlett = [gram(_bartlett_factor(m, N, rng)) for _ in range(draws)]
        for stat in (np.linalg.eigvalsh, lambda a: a[:1, 0].real):
            x = np.concatenate([stat(a) for a in ginibre])
            y = np.concatenate([stat(a) for a in bartlett])
            assert ks_2samp(x, y).pvalue > 0.01

    def test_structure_preserved(self):
        w = wishart_inv_sqrt(10, 5, np.random.default_rng(3))
        assert w.structure_deviation() < 1e-10

    def test_kramers_degeneracy(self):
        y = ginibre_quaternion(9, 4, np.random.default_rng(4))
        a = np.conj(y.data.T) @ y.data
        lam = np.linalg.eigvalsh(a)
        assert np.all(lam > 0)
        pairs = lam.reshape(-1, 2)
        assert np.max(np.abs(pairs[:, 0] - pairs[:, 1])) < 1e-8 * lam.max()

    def test_requires_n_ge_N(self):
        with pytest.raises(DomainError):
            wishart_inv_sqrt(3, 4, np.random.default_rng(0))


class TestHaar:
    def test_unitarity_and_structure(self):
        u = haar_symplectic_unitary(8, np.random.default_rng(5))
        eye = np.eye(16)
        assert np.max(np.abs(np.conj(u.data.T) @ u.data - eye)) < 1e-10
        assert u.structure_deviation() < 1e-12

    def test_matches_quaternion_gram_schmidt(self):
        # quaternion QR with a positive diagonal is unique: the phase-fixed
        # complex QR must equal quaternion-granular Gram-Schmidt on the same draw
        for N, seed in ((1, 0), (3, 1), (12, 2)):
            q = ginibre_quaternion(N, N, np.random.default_rng(seed)).data.copy()
            for j in range(N):
                col = q[:, 2 * j : 2 * j + 2]
                for _ in range(2):
                    for i in range(j):
                        prev = q[:, 2 * i : 2 * i + 2]
                        col -= prev @ (np.conj(prev.T) @ col)
                col /= np.linalg.norm(col[:, 0])
            u = haar_symplectic_unitary(N, np.random.default_rng(seed)).data
            assert np.max(np.abs(u - q)) < 1e-12

    def test_phase_repulsion(self):
        # Kramers-paired phases of symplectic unitaries repel: the rate of
        # near-coincident INDEPENDENT phase pairs must be well below the
        # uniform null model
        rng = np.random.default_rng(6)
        trials = 3000
        gap = 0.02
        close = 0
        for _ in range(trials):
            u = haar_symplectic_unitary(2, rng)
            lam = np.linalg.eigvals(u.data)
            phases = np.sort(np.angle(lam[np.angle(lam) >= 0]))[:2]
            if abs(phases[1] - phases[0]) < gap:
                close += 1
        # uniform pairs would land within `gap` with probability ~ gap/pi
        uniform_rate = gap / math.pi
        assert close / trials < 0.5 * uniform_rate + 3.0 * math.sqrt(
            uniform_rate / trials
        )


def pair_by_search(lam):
    """O(N^2) reference pairing: each eigenvalue, largest |Im| first, takes the
    unused eigenvalue nearest its conjugate."""
    unused = list(np.argsort(-np.abs(lam.imag), kind="stable"))
    reps = []
    while unused:
        i = unused.pop(0)
        j = min(unused, key=lambda j: abs(lam[j] - np.conj(lam[i])))
        unused.remove(j)
        top = lam[i] if lam[i].imag >= lam[j].imag else lam[j]
        reps.append(complex(top.real, abs(top.imag)))
    return np.sort_complex(np.array(reps))


class TestPairing:
    def test_sort_matches_nearest_partner_search(self):
        for seed in range(5):
            g = ginibre_quaternion(30, 30, np.random.default_rng(seed)).data
            lam = np.linalg.eigvals(g)
            got = np.sort_complex(_pair_conjugates(lam))
            assert np.array_equal(got, pair_by_search(lam))
            assert np.all(got.imag >= 0)

    def test_missing_partner_raises(self):
        lam = np.linalg.eigvals(ginibre_quaternion(10, 10, np.random.default_rng(0)).data)
        lam[3] += 1e-3
        with pytest.raises(PairingError):
            _pair_conjugates(lam)


class TestSampling:
    def test_determinism(self):
        pa = EnsembleParams(N=6, n=12.0, L=6.0)
        b1 = sample_ensemble(pa, trials=5, seed=42)
        b2 = sample_ensemble(pa, trials=5, seed=42)
        for x, y in zip(b1.eigen_pairs, b2.eigen_pairs):
            assert np.array_equal(x, y)

    def test_conjugate_closure_and_count(self):
        pa = EnsembleParams(N=8, n=16.0, L=4.0)
        batch = sample_ensemble(pa, trials=10, seed=3)
        for lam in batch.eigen_pairs:
            assert len(lam) == 8
            assert np.all(lam.imag >= 0)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            sample_ensemble(EnsembleParams(N=4, n=8.5, L=1.0), trials=1, seed=0)

    def test_droplet_concentration(self):
        # at N=20 the edge blur is still wide; the sharp >= 99% bound is the
        # acceptance criterion's N=50 run
        pa = EnsembleParams(N=20, n=40.0, L=20.0)
        batch = sample_ensemble(pa, trials=40, seed=11)
        geo = droplet(pa)
        radii = np.abs(batch.all_points())
        inside = np.mean((radii > geo.r1 - 0.15) & (radii < geo.r2 + 0.15))
        assert inside >= 0.97

    def test_real_axis_depletion(self):
        pa = EnsembleParams(N=20, n=40.0, L=20.0)
        batch = sample_ensemble(pa, trials=40, seed=12)
        geo = droplet(pa)
        h = 0.01 * geo.r2
        pts = batch.all_points()
        observed = np.mean(np.abs(pts.imag) < h)
        # macroscopic (repulsion-free) prediction for the strip fraction
        density = lambda x: (pa.nl / pa.N) / (1 + x * x) ** 2
        strip_mass = 4 * h / math.pi * quad(density, geo.r1, geo.r2)[0]
        assert observed < strip_mass


class TestSphereBandUniformity:
    def test_cap_fractions_match_area_law(self):
        # near-spherical case (n = N+1, L = 0): under the inverse
        # stereographic map, u = sin^2(theta/2) is uniform on [0, N/n], so
        # empirical cap fractions must match the spherical-cap area law
        N = 30
        pa = EnsembleParams(N=N, n=float(N + 1), L=0.0)
        batch = sample_ensemble(pa, trials=100, seed=21)
        u = np.array(
            [math.sin(to_sphere(z).theta / 2) ** 2 for z in batch.all_points()]
        )
        u_cap = N / pa.n
        for t in (0.2, 0.4, 0.6):
            observed = np.mean(u <= t)
            predicted = t / u_cap
            assert observed == pytest.approx(predicted, abs=0.03)


class TestSphere:
    def test_poles_and_equator(self):
        assert to_sphere(0.0).theta == 0.0
        assert to_sphere(1j).theta == pytest.approx(math.pi / 2, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            z = rng.normal(scale=2.0) + 1j * rng.normal(scale=2.0)
            back = from_sphere(to_sphere(z))
            assert abs(back - z) < 1e-12 * max(1.0, abs(z))


class TestCoulomb:
    def test_antipodal_pair(self):
        e = coulomb_energy([SpherePoint(0.0, 0.3), SpherePoint(math.pi, 1.2)], 0.0, 0.0)
        assert e == pytest.approx(0.0, abs=1e-14)  # |u1 v2 - u2 v1| = 1

    def test_coincidence_rejected(self):
        p = SpherePoint(1.0, 2.0)
        with pytest.raises(CoincidenceError):
            coulomb_energy([p, p], 0.0, 0.0)

    def test_rotational_invariance(self):
        rng = np.random.default_rng(8)
        pts = [SpherePoint(rng.uniform(0.3, 2.8), rng.uniform(0, 2 * math.pi)) for _ in range(4)]
        e0 = coulomb_energy(pts, 0.0, 0.0)
        shift = 0.7
        moved = [SpherePoint(p.theta, (p.phi + shift) % (2 * math.pi)) for p in pts]
        assert coulomb_energy(moved, 0.0, 0.0) == pytest.approx(e0, abs=1e-12)

    def test_boltzmann_factor_matches_plane_measure(self):
        # e^{-2(U0+U1)} times the sphere->plane Jacobian (1+|z|^2)^2 per
        # point must equal the planar integrand; the ratio across two
        # random configurations is 1 to 1e-10
        rng = np.random.default_rng(9)
        N, n, L = 1, 3.0, 1.0  # m = 2N = 2
        m = 2
        q1 = 2 * L / m
        q2 = (2 * n - m) / m

        def log_plane_integrand(zs):
            tot = 0.0
            for z in zs:
                az2 = abs(z) ** 2
                tot += q1 * m * math.log(az2 / (1 + az2))
                tot -= (q2 * m + m + 1) * math.log(1 + az2)
            for i in range(len(zs)):
                for j in range(i + 1, len(zs)):
                    tot += 2.0 * math.log(abs(zs[i] - zs[j]))
            return tot

        def log_sphere_side(zs):
            pts = [to_sphere(z) for z in zs]
            e = coulomb_energy(pts, q1, q2)
            jac = sum(-2.0 * math.log(1 + abs(z) ** 2) for z in zs)
            return -2.0 * e + jac

        ratios = []
        for _ in range(4):
            zs = [rng.normal(scale=0.8) + 1j * rng.normal(scale=0.8) for _ in range(m)]
            ratios.append(log_sphere_side(zs) - log_plane_integrand(zs))
        for r in ratios[1:]:
            assert r == pytest.approx(ratios[0], abs=1e-10)


class TestRadialHistogram:
    def test_count_conservation_and_prediction_mass(self):
        pa = EnsembleParams(N=10, n=20.0, L=10.0)
        batch = sample_ensemble(pa, trials=30, seed=13)
        h = empirical_radial_density(batch, bins=15)
        assert h.counts.sum() == 10 * 30
        assert h.predicted.sum() == pytest.approx(10 * 30, rel=1e-6)

    def test_outside_bins_empty_prediction(self):
        pa = EnsembleParams(N=10, n=20.0, L=10.0)
        batch = sample_ensemble(pa, trials=5, seed=14)
        geo = droplet(pa)
        edges = np.array([0.0, 0.5 * geo.r1, geo.r1, geo.r2, geo.r2 + 0.3])
        h = empirical_radial_density(batch, bins=edges)
        assert h.predicted[0] == 0.0


class TestRadialLaw:
    @pytest.mark.parametrize(
        "N,n,L,trials",
        [(50, 100, 50, 200), (20, 45, 3, 300), (8, 9, 0, 1000), (40, 160, 120, 150)],
    )
    def test_moduli_match_the_exact_beta_mixture(self, N, n, L, trials):
        # the moduli t = |zeta|^2/(1+|zeta|^2) of one trial are independent
        # Beta(2l+2L+2, 2(n-l)), l = 0..N-1 (Kostlan), so the pooled t have
        # the CDF (1/N) sum_l I_t(2l+2L+2, 2(n-l)); one draw per component
        # per trial makes the KS p-value conservative
        pa = EnsembleParams(N=N, n=float(n), L=float(L))
        r2 = np.abs(sample_ensemble(pa, trials=trials, seed=N + n + L).all_points()) ** 2
        l = np.arange(N)

        def cdf(t):
            t = np.asarray(t)[..., None]
            return np.mean(betainc(2 * l + 2 * L + 2, 2 * (n - l), t), axis=-1)

        assert kstest(r2 / (1 + r2), cdf).pvalue > 0.01
