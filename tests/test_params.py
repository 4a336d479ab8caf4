import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphefaffian.errors import DomainError
from sphefaffian.params import (
    EnsembleParams,
    Origin,
    Strong,
    Weak,
    droplet,
    local_scale_delta,
    macroscopic_density,
    potential_q,
    weight_omega,
)


class TestEnsembleParams:
    def test_n_equal_N_rejected(self):
        with pytest.raises(DomainError):
            EnsembleParams(N=3, n=3.0, L=0.0)

    def test_negative_L_rejected(self):
        with pytest.raises(DomainError):
            EnsembleParams(N=3, n=5.0, L=-0.5)

    def test_non_integer_n_allowed(self):
        pa = EnsembleParams(N=3, n=5.5, L=2.5)
        assert pa.nl == 8.0


class TestPotential:
    def test_zero_point_L0(self):
        pa = EnsembleParams(N=1, n=2.0, L=0.0)
        assert potential_q(pa, 0.0) == 0.0

    def test_value_at_one(self):
        pa = EnsembleParams(N=1, n=2.0, L=1.0)
        assert potential_q(pa, 1.0) == pytest.approx(4.0 * math.log(2.0), rel=1e-14)

    def test_infinite_at_zero_with_charge(self):
        pa = EnsembleParams(N=1, n=2.0, L=1.0)
        with pytest.raises(DomainError):
            potential_q(pa, 0.0)

    @given(st.floats(0.05, 3.0), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=30, deadline=None)
    def test_radial_symmetry(self, r, phi):
        pa = EnsembleParams(N=2, n=5.0, L=1.5)
        z = r * complex(math.cos(phi), math.sin(phi))
        assert potential_q(pa, z) == pytest.approx(potential_q(pa, r), rel=1e-12)


class TestWeight:
    def test_at_zero(self):
        pa = EnsembleParams(N=2, n=4.0, L=1.0)
        assert weight_omega(pa, 0.0) == 1.0

    def test_vanishes_at_i(self):
        pa = EnsembleParams(N=2, n=4.0, L=1.0)
        assert weight_omega(pa, 1j) == 0.0

    def test_exact_power_value(self):
        pa = EnsembleParams(N=1, n=2.0, L=0.0)
        assert weight_omega(pa, 1.0) == pytest.approx(2.0 ** -1.5, rel=1e-14)

    @given(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_reflection_symmetries(self, z):
        pa = EnsembleParams(N=2, n=5.0, L=0.5)
        w = weight_omega(pa, z)
        assert weight_omega(pa, -z) == pytest.approx(w, rel=1e-12, abs=1e-300)
        assert weight_omega(pa, z.conjugate()) == pytest.approx(w, rel=1e-12, abs=1e-300)


class TestDroplet:
    def test_figure_parameters(self):
        pa = EnsembleParams(N=100, n=200.0, L=100.0)
        geo = droplet(pa)
        assert geo.r1 == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert geo.r2 == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_disk_when_no_charge(self):
        geo = droplet(EnsembleParams(N=5, n=9.0, L=0.0))
        assert geo.r1 == 0.0

    def test_strong_regime_radii_converge(self):
        reg = Strong(a=1.0, b=1.0, p=1.0)
        lim = reg.limit_radii
        for N in (50, 200, 800):
            geo = droplet(reg.params_at(N))
            # these parameters make the finite-N radii exact
            assert geo.r1 == pytest.approx(lim.r1, abs=1.0 / N)
            assert geo.r2 == pytest.approx(lim.r2, abs=1.0 / N)

    def test_ordering(self):
        for (N, n, L) in [(1, 2, 0.0), (4, 5, 3.0), (10, 30, 0.1)]:
            geo = droplet(EnsembleParams(N=N, n=float(n), L=L))
            assert 0.0 <= geo.r1 < geo.r2


class TestCoulombCapIdentities:
    """Sphere-picture charges q1 = 2L/m, q2 = (2n-m)/m with m = 2N must
    reproduce the droplet radii exactly."""

    @pytest.mark.parametrize("N,n,L", [(2, 5, 1.0), (7, 11, 2.5), (50, 100, 50.0)])
    def test_cap_radii(self, N, n, L):
        pa = EnsembleParams(N=N, n=float(n), L=L)
        geo = droplet(pa)
        m = 2 * N
        q1 = 2 * L / m
        q2 = (2 * n - m) / m
        assert q1 / (1 + q2) == pytest.approx(geo.r1 ** 2, rel=1e-14, abs=1e-15)
        assert (1 + q1) / q2 == pytest.approx(geo.r2 ** 2, rel=1e-14)


class TestDensity:
    def test_value_on_unit_circle(self):
        pa = EnsembleParams(N=100, n=200.0, L=100.0)
        assert macroscopic_density(pa, 1j) == pytest.approx(0.75, rel=1e-14)

    def test_zero_inside_hole(self):
        pa = EnsembleParams(N=100, n=200.0, L=100.0)
        assert macroscopic_density(pa, 0.3) == 0.0

    def test_unit_mass_and_intensity_normalization(self):
        # the normalized density integrates to 1 over the droplet w.r.t.
        # dA = d^2z/pi, so N times it integrates to N
        pa = EnsembleParams(N=7, n=16.0, L=3.0)
        geo = droplet(pa)
        rs = np.linspace(geo.r1, geo.r2, 20001)
        vals = np.array([macroscopic_density(pa, r) for r in rs])
        mass = np.trapezoid(2.0 * rs * vals, rs)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert pa.N * mass == pytest.approx(pa.N, abs=1e-5)


class TestLocalScale:
    def test_origin_regime_limit(self):
        for N in (100, 1000, 10000):
            pa = Origin(L=2.0, b=1.0).params_at(N)
            assert local_scale_delta(pa, 0.0) == pytest.approx(2.0, abs=3.0 / N)

    def test_weak_regime_value(self):
        rho = 2.0
        N = 25
        pa = Weak(rho=rho).params_at(N)
        assert local_scale_delta(pa, 1.0) == pytest.approx(
            (2 * N / rho ** 2 - 1) / 4.0, rel=1e-14
        )

    def test_decreasing_in_p(self):
        pa = EnsembleParams(N=4, n=9.0, L=1.0)
        ds = [local_scale_delta(pa, p) for p in (0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(ds, ds[1:]))


class TestRegimes:
    def test_strong_mapping(self):
        pa = Strong(a=0.5, b=2.0, p=0.8).params_at(40)
        assert (pa.L, pa.n) == (20.0, 120.0)

    def test_weak_mapping_and_validation(self):
        pa = Weak(rho=2.0).params_at(16)
        assert (pa.n, pa.L) == (64.0, 48.0)
        with pytest.raises(DomainError):
            Weak(rho=8.0).params_at(25)  # needs N > rho^2

    def test_origin_mapping(self):
        pa = Origin(L=1.5, b=3.0).params_at(10)
        assert (pa.L, pa.n) == (1.5, 40.0)
        assert Origin(L=1.5, b=3.0).p == 0.0

    @pytest.mark.parametrize("regime, kind", [
        (Strong(a=1.0, b=1.0, p=math.sqrt(0.5)), "strong_inner_edge"),  # p = r1
        (Strong(a=1.0, b=1.0, p=math.sqrt(2.0)), "strong_edge"),  # p = r2
        (Strong(a=1.0, b=1.0, p=1.0), "strong_bulk"),
        (Weak(rho=2.0), "weak"),
        (Origin(L=2.0, b=1.0), "origin"),
    ])
    def test_regime_names_its_limit_kind(self, regime, kind):
        assert regime.kind == kind
        # derived or a class constant, never a field a caller could set
        assert "kind" not in {f.name for f in dataclasses.fields(regime)}
