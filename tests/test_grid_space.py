"""Discrete L^q machinery: norms, pairings, duality maps, bracket, Gamma."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildlab.errors import GridMismatch, InvalidExponent
from mildlab.grid_space import (FieldSeries, Grid, GridFunction, big_gamma,
                                big_gamma0, bracket_l1, duality_map, gamma_eps,
                                jq_scalar, lq_norm, max_norm, pairing,
                                truncate_t2)


class TestGridAndNorms:
    def test_grid_geometry(self, grid):
        assert grid.h * (grid.M + 1) == pytest.approx(1.0, abs=1e-15)
        assert grid.nodes[0] == pytest.approx(grid.h)
        with pytest.raises(ValueError):
            Grid(1)

    def test_zero_norm(self, grid):
        z = GridFunction(grid, np.zeros(grid.M))
        assert lq_norm(z, 1.7) == 0.0

    def test_constant_function(self, grid):
        one = GridFunction(grid, np.ones(grid.M))
        for q in (1.0, 1.5, 2.0, 4.0):
            assert lq_norm(one, q) == pytest.approx((grid.h * grid.M) ** (1 / q))

    def test_homogeneity_and_positivity(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        for q in (1.0, 2.5):
            assert lq_norm(3.0 * phi, q) == pytest.approx(3.0 * lq_norm(phi, q))
        assert lq_norm(phi, 2.0) > 0.0

    def test_invalid_exponent(self, grid):
        phi = GridFunction(grid, np.ones(grid.M))
        with pytest.raises(InvalidExponent):
            lq_norm(phi, 0.5)

    def test_max_norm(self, grid):
        phi = GridFunction(grid, np.linspace(-2, 1, grid.M))
        assert max_norm(phi) == pytest.approx(2.0)

    def test_nonfinite_rejected(self, grid):
        bad = np.zeros(grid.M)
        bad[3] = np.inf
        with pytest.raises(ValueError):
            GridFunction(grid, bad)


class TestPairing:
    def test_zero(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        assert pairing(phi, GridFunction(grid, np.zeros(grid.M))) == 0.0

    def test_self_pairing_is_l2_square(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        assert pairing(phi, phi) == pytest.approx(lq_norm(phi, 2.0) ** 2, rel=1e-12)

    def test_duality_pairing_recovers_q_norm(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        for q in (1.5, 2.0, 4.0):
            assert pairing(duality_map(phi, q), phi) == pytest.approx(
                lq_norm(phi, q) ** q, rel=1e-10)

    def test_grid_mismatch(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        other = GridFunction(Grid(17), np.zeros(17))
        with pytest.raises(GridMismatch):
            pairing(phi, other)

    def test_bilinear_symmetric(self, grid, rng):
        a = GridFunction(grid, rng.standard_normal(grid.M))
        b = GridFunction(grid, rng.standard_normal(grid.M))
        assert pairing(a, b) == pytest.approx(pairing(b, a), rel=1e-12)
        assert pairing(a + b, b) == pytest.approx(pairing(a, b) + pairing(b, b), rel=1e-10)


class TestJq:
    def test_identity_case(self):
        assert jq_scalar(-3.0, 2.0) == -3.0

    def test_fractional(self):
        assert jq_scalar(4.0, 1.5) == pytest.approx(2.0)

    def test_cubic_case(self):
        assert jq_scalar(-2.0, 3.0) == pytest.approx(-4.0)

    def test_sign_case_at_zero(self):
        assert jq_scalar(0.0, 1.0) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(min_value=-50, max_value=50), q=st.floats(min_value=1, max_value=6))
    def test_odd(self, x, q):
        assert jq_scalar(-x, q) == pytest.approx(-jq_scalar(x, q), rel=1e-12, abs=1e-300)


class TestDualityMap:
    def test_zero_maps_to_zero(self, grid):
        z = GridFunction(grid, np.zeros(grid.M))
        assert np.all(duality_map(z, 3.0).values == 0.0)

    def test_q2_is_identity(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        assert np.allclose(duality_map(phi, 2.0).values, phi.values)

    def test_pointwise_cubes_at_q4(self, grid):
        vals = np.zeros(grid.M)
        vals[0], vals[1] = 1.0, -2.0
        got = duality_map(GridFunction(grid, vals), 4.0).values
        assert got[0] == pytest.approx(1.0)
        assert got[1] == pytest.approx(-8.0)

    def test_dual_norm_identity(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        for q in (1.5, 2.0, 3.0):
            qp = q / (q - 1.0)
            got = lq_norm(duality_map(phi, q), qp)
            assert got == pytest.approx(lq_norm(phi, q) ** (q - 1.0), rel=1e-10)

    def test_q1_rejected(self, grid):
        phi = GridFunction(grid, np.ones(grid.M))
        with pytest.raises(InvalidExponent):
            duality_map(phi, 1.0)


class TestBracket:
    def test_self_bracket_is_l1(self, grid, rng):
        x = GridFunction(grid, rng.standard_normal(grid.M))
        assert bracket_l1(x, x) == pytest.approx(lq_norm(x, 1.0), rel=1e-12)

    def test_free_selection_at_zero(self, grid, rng):
        zero = GridFunction(grid, np.zeros(grid.M))
        y = GridFunction(grid, rng.standard_normal(grid.M))
        assert bracket_l1(zero, y) == pytest.approx(lq_norm(y, 1.0), rel=1e-12)

    def test_positive_x_gives_plain_sum(self, grid, rng):
        x = GridFunction(grid, 1.0 + np.abs(rng.standard_normal(grid.M)))
        y = GridFunction(grid, rng.standard_normal(grid.M))
        assert bracket_l1(x, y) == pytest.approx(grid.h * np.sum(y.values), rel=1e-12)

    def test_dominated_by_l1(self, grid, rng):
        for _ in range(50):
            x = GridFunction(grid, rng.standard_normal(grid.M))
            y = GridFunction(grid, rng.standard_normal(grid.M))
            assert abs(bracket_l1(x, y)) <= lq_norm(y, 1.0) + 1e-12

    def test_positively_homogeneous_in_y(self, grid, rng):
        x = GridFunction(grid, rng.standard_normal(grid.M))
        y = GridFunction(grid, rng.standard_normal(grid.M))
        assert bracket_l1(x, 2.5 * y) == pytest.approx(2.5 * bracket_l1(x, y), rel=1e-12)

    def test_superposition_drifts_accretive(self, grid, drifts, rng):
        # bracket of (phi - psi) against any monotone superposition difference
        for name, f in drifts.items():
            worst = 0.0
            for _ in range(1000):
                a = rng.standard_normal(grid.M)
                b = rng.standard_normal(grid.M)
                val = bracket_l1(
                    GridFunction(grid, a - b),
                    GridFunction(grid, f.mid_values(a) - f.mid_values(b)),
                )
                worst = min(worst, val)
            assert worst >= -1e-12, name


class TestPowerSumLemmas:
    def test_concave_regime_chain(self, rng):
        x = rng.uniform(0, 4, 100000)
        y = rng.uniform(0, 4, 100000)
        a = rng.uniform(0, 1, 100000)
        lower = 2.0 ** (a - 1) * (x**a + y**a)
        upper = x**a + y**a
        mid = (x + y) ** a
        assert np.max(lower - mid) <= 1e-12
        assert np.max(mid - upper) <= 1e-12

    def test_convex_regime_chain(self, rng):
        x = rng.uniform(0, 4, 100000)
        y = rng.uniform(0, 4, 100000)
        a = rng.uniform(1, 8, 100000)
        lower = x**a + y**a
        upper = 2.0 ** (a - 1) * (x**a + y**a)
        mid = (x + y) ** a
        assert np.max(lower - mid) <= 1e-12
        assert np.max(mid - upper) <= 1e-12

    def test_jq_holder_with_explicit_constant(self, rng):
        x = rng.uniform(-4, 4, 100000)
        y = rng.uniform(-4, 4, 100000)
        for q in (1.1, 1.5, 2.0):
            jx = np.sign(x) * np.abs(x) ** (q - 1)
            jy = np.sign(y) * np.abs(y) ** (q - 1)
            viol = np.abs(jx - jy) - 2.0 ** (2 - q) * np.abs(x - y) ** (q - 1)
            assert np.max(viol) <= 1e-12


class TestGammaMachinery:
    def test_gamma_eps_values(self):
        assert gamma_eps(0.0, 1.0) == 0.0
        assert gamma_eps(0.25, 1.0) == pytest.approx(0.5)
        assert gamma_eps(0.6, 1.0) == 1.0

    def test_gamma_eps_shape(self, rng):
        for eps in (1.0, 1e-2, 1e-4):
            xs = np.sort(rng.uniform(-2, 2, 1000))
            vals = gamma_eps(xs, eps)
            assert np.all(np.diff(vals) >= -1e-15)
            assert np.all(np.abs(vals) <= 1.0)
            assert np.allclose(gamma_eps(-xs, eps), -vals)
            outside = np.abs(xs) > np.sqrt(eps) / 2
            assert np.all(np.abs(vals[outside]) == 1.0)

    def test_gamma0_reference_values(self):
        assert big_gamma0(0.0, 1.0) == pytest.approx(0.25)
        assert big_gamma0(0.6, 1.0) == pytest.approx(0.6)
        assert big_gamma0(0.25, 1.0) == pytest.approx(0.3125)

    def test_gamma0_properties(self):
        for eps in (1.0, 0.01):
            xs = np.linspace(-3, 3, 200001)  # spacing far below the band width
            vals = big_gamma0(xs, eps)
            # (i) Lipschitz-1 with derivative gamma_eps
            slopes = np.diff(vals) / np.diff(xs)
            assert np.max(np.abs(slopes)) <= 1.0 + 1e-9
            mid = 0.5 * (xs[:-1] + xs[1:])
            assert np.allclose(slopes, gamma_eps(mid, eps), atol=1e-3)
            # (ii) equality outside the band, (iii) domination, (iv) sup deviation
            outside = np.abs(xs) >= np.sqrt(eps) / 2
            assert np.allclose(vals[outside], np.abs(xs[outside]))
            dev = vals - np.abs(xs)
            assert np.min(dev) >= -1e-15
            assert np.max(dev) <= np.sqrt(eps) / 4 + 1e-15
            assert big_gamma0(0.0, eps) == pytest.approx(np.sqrt(eps) / 4)
            # convex and even
            assert np.allclose(big_gamma0(-xs, eps), vals)
            assert np.min(np.diff(slopes)) >= -1e-9

    def test_big_gamma_zero_function(self, grid):
        z = GridFunction(grid, np.zeros(grid.M))
        for eps in (1.0, 0.04):
            val = big_gamma(z, eps)
            assert val == pytest.approx(grid.h * grid.M * np.sqrt(eps) / 4)
            assert val <= np.sqrt(eps) / 4

    def test_big_gamma_saturated(self, grid):
        eps = 0.01
        phi = GridFunction(grid, 0.5 + np.abs(np.sin(7 * grid.nodes)))
        assert big_gamma(phi, eps) == pytest.approx(lq_norm(phi, 1.0), rel=1e-12)

    def test_big_gamma_limit_from_above(self, grid, rng):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        l1 = lq_norm(phi, 1.0)
        prev = np.inf
        for eps in (1.0, 1e-2, 1e-4):
            val = big_gamma(phi, eps)
            assert l1 - 1e-12 <= val <= prev + 1e-15
            assert val - l1 <= np.sqrt(eps) / 4 + 1e-15
            prev = val
        assert big_gamma(phi, 1e-4) - l1 <= np.sqrt(1e-4) / 4

    def test_truncation(self):
        assert truncate_t2(0.0) == 0.0
        assert truncate_t2(-5.0) == 2.0
        assert truncate_t2(1.5) == 1.5


class TestFieldSeries:
    def test_indexing_and_norms(self, grid, rng):
        vals = rng.standard_normal((5, grid.M))
        series = FieldSeries(grid, vals)
        assert len(series) == 5
        assert isinstance(series[2], GridFunction)
        assert series.norms(2.0)[3] == pytest.approx(lq_norm(series[3], 2.0))
        assert series.sup_norm(2.0) == pytest.approx(max(
            lq_norm(series[i], 2.0) for i in range(5)))

    def test_subtraction(self, grid, rng):
        a = FieldSeries(grid, rng.standard_normal((3, grid.M)))
        b = FieldSeries(grid, rng.standard_normal((3, grid.M)))
        assert np.array_equal((a - b).values, a.values - b.values)
        with pytest.raises(GridMismatch):
            a - FieldSeries(Grid(grid.M + 1), np.zeros((3, grid.M + 1)))
