"""Discrete Dirichlet Laplacian eigenstructure, semigroup axioms, convolution."""

import numpy as np
import pytest

from mildlab.errors import EmptyInput, GridMismatch, NegativeTime
from mildlab.grid_space import (FieldSeries, Grid, GridFunction, duality_map,
                                gamma_eps, lq_norm, max_norm, pairing)
from mildlab.semigroup import (HeatSemigroup, apply_generator, apply_resolvent,
                               apply_semigroup, convolve_series,
                               from_modes, semigroup_series, to_modes)


class TestEigenstructure:
    def test_eigenvalues_ordered_positive(self, sg):
        mu = sg.eigenvalues
        assert mu[0] > 0
        assert np.all(np.diff(mu) > 0)

    def test_eigenvalue_formula(self, sg):
        h = sg.grid.h
        k = np.arange(1, sg.grid.M + 1)
        assert np.allclose(sg.eigenvalues, 4.0 / h**2 * np.sin(np.pi * k * h / 2) ** 2)

    def test_orthonormal_wrt_pairing(self, sg):
        for j in (1, 5, 40):
            for k in (1, 5, 40):
                got = pairing(sg.eigenvector(j), sg.eigenvector(k))
                assert got == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)

    def test_lowest_eigenvalue_approaches_continuum(self):
        errs = []
        for M in (63, 127):
            sgM = HeatSemigroup(Grid(M), 1.0)
            errs.append(abs(sgM.eigenvalues[0] - np.pi**2))
        assert errs[1] < errs[0]

    def test_generator_matches_eigenvalues(self, sg):
        for k in (1, 7, 30):
            ek = sg.eigenvector(k)
            got = apply_generator(sg, ek).values
            assert np.allclose(got, sg.eigenvalues[k - 1] * ek.values, atol=1e-8)


class TestModeTransform:
    def test_eigenvector_coefficients(self, sg):
        coeffs = to_modes(sg, sg.eigenvector(1))
        want = np.zeros(sg.grid.M)
        want[0] = 1.0
        assert np.allclose(coeffs, want, atol=1e-12)

    def test_zero(self, sg):
        z = GridFunction(sg.grid, np.zeros(sg.grid.M))
        assert np.all(to_modes(sg, z) == 0.0)

    def test_roundtrip_and_parseval(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            coeffs = to_modes(sg, phi)
            back = from_modes(sg, coeffs)
            assert np.max(np.abs(back.values - phi.values)) < 1e-12
            assert np.sum(coeffs**2) == pytest.approx(lq_norm(phi, 2.0) ** 2, rel=1e-12)

    def test_grid_mismatch(self, sg):
        with pytest.raises(GridMismatch):
            to_modes(sg, GridFunction(Grid(5), np.zeros(5)))


class TestSemigroupAxioms:
    def test_identity_at_zero(self, sg, rng):
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        assert np.array_equal(apply_semigroup(sg, phi, 0.0).values, phi.values)

    def test_negative_time_rejected(self, sg):
        phi = GridFunction(sg.grid, np.zeros(sg.grid.M))
        with pytest.raises(NegativeTime):
            apply_semigroup(sg, phi, -0.1)

    def test_eigenvector_decay(self, sg):
        ek = sg.eigenvector(4)
        t = 0.01
        got = apply_semigroup(sg, ek, t).values
        assert np.allclose(got, np.exp(-sg.eigenvalues[3] * t) * ek.values, atol=1e-13)

    def test_series_matches_pointwise(self, sg, rng):
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        times = 0.01 * np.arange(5)
        series = semigroup_series(sg, phi, times)
        for n, t in enumerate(times):
            want = apply_semigroup(sg, phi, t).values
            assert np.max(np.abs(series.values[n] - want)) < 1e-12

    def test_composition(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            s, t = rng.uniform(0, 0.5, 2)
            two = apply_semigroup(sg, apply_semigroup(sg, phi, s), t)
            one = apply_semigroup(sg, phi, s + t)
            assert np.max(np.abs(two.values - one.values)) < 1e-12

    def test_contraction_all_exponents(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            t = rng.uniform(0, 1)
            out = apply_semigroup(sg, phi, t)
            for q in (1.0, 1.5, 2.0, 3.0):
                assert lq_norm(out, q) <= lq_norm(phi, q) + 1e-10
            assert max_norm(out) <= max_norm(phi) + 1e-10

    def test_positivity(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, np.abs(rng.standard_normal(sg.grid.M)))
            out = apply_semigroup(sg, phi, rng.uniform(0, 0.5))
            assert np.min(out.values) >= -1e-12

    def test_uniform_initial_data_decays(self, sg):
        one = GridFunction(sg.grid, np.ones(sg.grid.M))
        assert max_norm(apply_semigroup(sg, one, 3.0)) < 1e-10

    def test_trivial_kernel(self, sg, rng):
        # small t keeps exp(-mu_M t) away from underflow; the bound is exact
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        t = 1e-4
        lower = np.exp(-sg.eigenvalues[-1] * t) * lq_norm(phi, 2.0)
        assert lq_norm(apply_semigroup(sg, phi, t), 2.0) >= lower * (1 - 1e-12)
        assert lower > 0


class TestAccretivity:
    def test_duality_pairing_nonnegative(self, sg, rng):
        for _ in range(50):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            aphi = apply_generator(sg, phi)
            for q in (1.5, 2.0, 3.0):
                assert pairing(aphi, duality_map(phi, q)) >= -1e-10

    def test_sign_condition(self, sg, rng):
        for _ in range(50):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            aphi = apply_generator(sg, phi)
            for eps in (1.0, 1e-2, 1e-4):
                gam = GridFunction(sg.grid, gamma_eps(phi.values, eps))
                assert pairing(aphi, gam) >= -1e-10


class TestResolvent:
    def test_eigenvector(self, sg):
        ek = sg.eigenvector(2)
        got = apply_resolvent(sg, ek, 0.3).values
        assert np.allclose(got, ek.values / (1 + 0.3 * sg.eigenvalues[1]), atol=1e-13)

    def test_zero(self, sg):
        z = GridFunction(sg.grid, np.zeros(sg.grid.M))
        assert np.all(apply_resolvent(sg, z, 1.0).values == 0.0)

    def test_contraction(self, sg, rng):
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        out = apply_resolvent(sg, phi, 0.5)
        for q in (1.0, 2.0, 3.0):
            assert lq_norm(out, q) <= lq_norm(phi, q) + 1e-12

    def test_small_eps_limit_on_smooth_probe(self, sg):
        smooth = GridFunction(sg.grid, np.sin(np.pi * sg.grid.nodes))
        out = apply_resolvent(sg, smooth, 1e-8)
        assert np.max(np.abs(out.values - smooth.values)) <= 1e-4


class TestConvolution:
    def test_zero_forcing(self, sg):
        fields = FieldSeries(sg.grid, np.zeros((9, sg.grid.M)))
        out = convolve_series(sg, fields, 0.125)
        assert np.all(out.values == 0.0)

    def test_constant_eigenvector_forcing(self, sg):
        ek = sg.eigenvector(3)
        N, delta = 64, 1.0 / 64
        fields = FieldSeries(sg.grid, np.tile(ek.values, (N + 1, 1)))
        mu = sg.eigenvalues[2]
        for n in (1, 17, 64):
            got = convolve_series(sg, fields, delta)[n].values
            want = ek.values * (1 - np.exp(-mu * n * delta)) / mu
            assert np.max(np.abs(got - want)) < 1e-13

    def test_linearity(self, sg, rng):
        vals_a = rng.standard_normal((17, sg.grid.M))
        vals_b = rng.standard_normal((17, sg.grid.M))
        delta = 0.01
        out_ab = convolve_series(sg, FieldSeries(sg.grid, vals_a + vals_b), delta)
        out_a = convolve_series(sg, FieldSeries(sg.grid, vals_a), delta)
        out_b = convolve_series(sg, FieldSeries(sg.grid, vals_b), delta)
        assert np.max(np.abs(out_ab.values - out_a.values - out_b.values)) < 1e-12

    def test_triangle_bound(self, sg, rng):
        vals = rng.standard_normal((33, sg.grid.M))
        delta = 1.0 / 32
        fields = FieldSeries(sg.grid, vals)
        out = convolve_series(sg, fields, delta)
        for q in (1.0, 2.0):
            norms = fields.norms(q)
            for n in (8, 32):
                assert lq_norm(out[n], q) <= delta * np.sum(norms[:n]) + 1e-12

    def test_first_order_refinement_on_smooth_forcing(self, sg):
        # F(t, x) = sin(pi x) cos(2 pi t); smooth in time, O(delta) quadrature
        shape = np.sin(np.pi * sg.grid.nodes)
        T = 0.5

        def build(delta):
            times = np.arange(round(T / delta) + 1) * delta
            fields = FieldSeries(sg.grid, np.outer(np.cos(2 * np.pi * times), shape))
            return convolve_series(sg, fields, delta)

        exact_mu = sg.eigenvalues[0]
        # reference at a much finer step
        fine = build(2.0**-12)
        errs = []
        for delta in (2.0**-6, 2.0**-7):
            coarse = build(delta)
            stride = round(delta / 2.0**-12)
            diff = coarse.values - fine.values[::stride]
            errs.append(np.max(np.abs(diff)))
        assert errs[0] > errs[1]
        assert 1.5 <= errs[0] / errs[1] <= 2.5
        assert exact_mu > 0

    def test_empty_input(self, sg):
        with pytest.raises(EmptyInput):
            convolve_series(sg, [], 0.1)

    def test_sequence_of_grid_functions_accepted(self, sg):
        ek = sg.eigenvector(1)
        fields = [ek, ek, ek]
        out = convolve_series(sg, fields, 0.1)
        assert len(out) == 3
