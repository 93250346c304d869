"""Pathwise solver: exact special cases, oracles, certificates, continuation."""

import numpy as np
import pytest

from mildlab.errors import GridMismatch, InvalidExponents
from mildlab.grid_space import FieldSeries, Grid, GridFunction, lq_norm
from mildlab.noise import DiffusionSpec, restrict_path, sample_path
from mildlab.scalar_monotone import (linear_graph, power_graph, sign_graph,
                                     zero_graph)
from mildlab.semigroup import HeatSemigroup, apply_semigroup, to_modes
from mildlab.solver import (MildSolution, SolverConfig, extract_g,
                            inclusion_check, qstar, residual_check, solve_mild,
                            solve_regularized)


def linear_drift_oracle(sg, c, u0, path):
    """Exact exponential per-mode recursion for f(x) = c x, z frozen at the
    right endpoint of each substep.  Independent of the splitting solver."""
    mu = sg.eigenvalues
    delta = path.delta
    dec = np.exp(-(mu + c) * delta)
    w = (1.0 - dec) / (mu + c)
    v = to_modes(sg, u0).copy()
    out = np.empty_like(path.mode_values)
    out[0] = to_modes(sg, u0) + path.mode_values[0]
    for n in range(path.n_steps):
        v = dec * v - c * w * path.mode_values[n + 1]
        out[n + 1] = v + path.mode_values[n + 1]
    return FieldSeries(sg.grid, out @ sg.basis.T)


class TestSolveRegularized:
    def test_zero_drift_is_heat_plus_noise(self, sg, smooth_path, sine_u0):
        traj = solve_regularized(zero_graph(), 0.25, sine_u0, smooth_path, sg)
        for n in (0, 7, smooth_path.n_steps):
            want = apply_semigroup(sg, sine_u0, n * smooth_path.delta).values \
                + smooth_path.fields.values[n]
            assert np.max(np.abs(traj.values[n] - want)) < 1e-12

    def test_rest_state(self, sg):
        zero_spec = DiffusionSpec(weights=tuple(0.0 for _ in range(sg.grid.M)))
        quiet = sample_path(sg, zero_spec, 0.25, 2.0**-6, seed=1)
        u0 = GridFunction(sg.grid, np.zeros(sg.grid.M))
        traj = solve_regularized(sign_graph(), 0.5, u0, quiet, sg)
        assert np.max(np.abs(traj.values)) == 0.0

    def test_initial_condition_kept(self, sg, smooth_path, sine_u0):
        traj = solve_regularized(power_graph(3.0), 0.1, sine_u0, smooth_path, sg)
        assert np.array_equal(traj.values[0], sine_u0.values)

    def test_linear_drift_oracle_refinement(self, sg, sine_u0):
        fine = sample_path(sg, DiffusionSpec(c=1.0, gamma=2.0), 0.5, 2.0**-11, seed=31)
        for c in (1.0, 5.0):
            errs = []
            deltas = []
            for factor in (4, 2, 1):
                p = restrict_path(fine, factor)
                traj = solve_regularized(linear_graph(c), 1e-12, sine_u0, p, sg)
                oracle = linear_drift_oracle(sg, c, sine_u0, p)
                err = FieldSeries(sg.grid, traj.values - oracle.values).sup_norm(2.0)
                errs.append(err)
                deltas.append(p.delta)
            assert errs[0] <= 3.0 * c * deltas[0]  # sup error <= C delta
            assert 1.5 <= errs[0] / errs[1] <= 2.5
            assert 1.5 <= errs[1] / errs[2] <= 2.5

    def test_grid_mismatch(self, sg, smooth_path):
        u0 = GridFunction(Grid(5), np.zeros(5))
        with pytest.raises(GridMismatch):
            solve_regularized(sign_graph(), 0.1, u0, smooth_path, sg)

    def test_unconditional_stability_small_lambda(self, sg, smooth_path, sine_u0):
        # lambda far below delta: the Lipschitz constant 1/lambda dwarfs 1/delta
        traj = solve_regularized(power_graph(3.0), 1e-10, sine_u0, smooth_path, sg)
        assert np.max(np.abs(traj.values)) < 10.0


class TestExtractG:
    def test_zero_state(self, sg, smooth_path):
        traj = FieldSeries(sg.grid, np.zeros((4, sg.grid.M)))
        g = extract_g(traj, sign_graph(), 0.3)
        assert np.all(g.values == 0.0)

    def test_small_lambda_approaches_drift(self, sg):
        traj = FieldSeries(sg.grid, np.full((3, sg.grid.M), 2.0))
        g = extract_g(traj, power_graph(3.0), 1e-6)
        assert np.max(np.abs(g.values - 8.0)) < 1e-4

    def test_sign_clamp(self, sg):
        traj = FieldSeries(sg.grid, np.full((2, sg.grid.M), 0.5))
        g = extract_g(traj, sign_graph(), 1.0)
        assert np.allclose(g.values, 0.5)

    def test_growth_bound(self, sg, smooth_path, sine_u0, drifts):
        r = 2.0
        for f in drifts.values():
            traj = solve_regularized(f, 0.05, sine_u0, smooth_path, sg)
            g = extract_g(traj, f, 0.05)
            d = f.growth_exponent
            area = (sg.grid.h * sg.grid.M) ** (1 / r)
            for n in (0, smooth_path.n_steps // 2):
                gnorm = lq_norm(g[n], r)
                unorm_pow = 1.0 if d == 0 else lq_norm(traj[n], r * d) ** d
                assert gnorm <= f.growth_constant * (area + unorm_pow) + 1e-9


class TestSolveMild:
    def config(self, **kw):
        defaults = dict(q=2.0, r=2.0,
                        lambda_schedule=tuple(0.25 * 2.0**-j for j in range(7)),
                        cauchy_tol=1e-3)
        defaults.update(kw)
        return SolverConfig(**defaults)

    def test_zero_drift_converges_immediately(self, sg, smooth_path, sine_u0):
        sol = solve_mild(zero_graph(), sine_u0, smooth_path, sg, self.config())
        assert sol.converged
        assert sol.gaps == [0.0]
        assert sol.residual <= 1e-12
        assert len(sol.u) == smooth_path.n_steps + 1
        assert np.array_equal(sol.u.values[0], sine_u0.values)

    def test_gap_sequence_recorded_and_decreasing(self, sg, smooth_path, sine_u0):
        sol = solve_mild(power_graph(3.0), sine_u0, smooth_path, sg,
                         self.config(cauchy_tol=1e-12))
        assert not sol.converged
        assert len(sol.gaps) == 6
        assert all(b < a for a, b in zip(sol.gaps, sol.gaps[1:]))

    def test_halving_gap_ratio_tracks_rate(self, sg, smooth_path, sine_u0):
        # q = 2: rate 1/q = 1/2, so gap(lam/2)/gap(lam) ~ 2^-1/2 or better
        sol = solve_mild(power_graph(3.0), sine_u0, smooth_path, sg,
                         self.config(cauchy_tol=1e-12))
        ratios = [b / a for a, b in zip(sol.gaps, sol.gaps[1:])]
        assert all(r <= 2.0**-0.5 + 0.15 for r in ratios)

    def test_contraction_on_paired_runs(self, sg, smooth_path, drifts):
        u0a = GridFunction(sg.grid, 0.5 * np.sin(np.pi * sg.grid.nodes))
        u0b = GridFunction(sg.grid, 0.2 * np.sin(2 * np.pi * sg.grid.nodes))
        cfg = self.config(cauchy_tol=1e-12, r=1.5)
        for f in (drifts["cubic"], drifts["sign"]):
            for lam in cfg.lambda_schedule:
                ta = solve_regularized(f, lam, u0a, smooth_path, sg)
                tb = solve_regularized(f, lam, u0b, smooth_path, sg)
                for r in (1.0, 1.5, 2.0):
                    num = FieldSeries(sg.grid, ta.values - tb.values).sup_norm(r)
                    den = lq_norm(u0a - u0b, r)
                    assert num <= (1 + 1e-10) * den

    def test_two_schedules_same_limit(self, sg, smooth_path, sine_u0):
        f = power_graph(3.0)
        tol = 1e-4
        a = solve_mild(f, sine_u0, smooth_path, sg,
                       self.config(cauchy_tol=tol,
                                   lambda_schedule=tuple(0.25 * 2.0**-j for j in range(12))))
        b = solve_mild(f, sine_u0, smooth_path, sg,
                       self.config(cauchy_tol=tol,
                                   lambda_schedule=tuple(0.25 * 3.0**-j for j in range(9))))
        gap = FieldSeries(sg.grid, a.u.values - b.u.values).sup_norm(2.0)
        assert a.converged and b.converged
        assert gap <= 2 * tol

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="decreasing"):
            SolverConfig(lambda_schedule=(0.1, 0.2))
        with pytest.raises(InvalidExponents):
            SolverConfig(q=2.0, r=3.0)


class TestResidual:
    def test_zero_drift_residual_zero(self, sg, smooth_path, sine_u0):
        traj = solve_regularized(zero_graph(), 0.25, sine_u0, smooth_path, sg)
        g = extract_g(traj, zero_graph(), 0.25)
        assert residual_check(traj, g, sine_u0, smooth_path, sg, 2.0) <= 1e-12

    def test_first_order_refinement(self, sg, sine_u0):
        fine = sample_path(sg, DiffusionSpec(c=1.0, gamma=2.0), 0.5, 2.0**-11, seed=13)
        f = power_graph(3.0)
        res = []
        for factor in (2, 1):
            p = restrict_path(fine, factor)
            traj = solve_regularized(f, 2.0**-12, sine_u0, p, sg)
            g = extract_g(traj, f, 2.0**-12)
            res.append(residual_check(traj, g, sine_u0, p, sg, 2.0))
        assert 1.5 <= res[0] / res[1] <= 2.5

    def test_perturbed_g_detected(self, sg, smooth_path, sine_u0):
        f = power_graph(3.0)
        traj = solve_regularized(f, 0.01, sine_u0, smooth_path, sg)
        g = extract_g(traj, f, 0.01)
        clean = residual_check(traj, g, sine_u0, smooth_path, sg, 2.0)
        bad = FieldSeries(sg.grid, g.values + 1.0)
        assert residual_check(traj, bad, sine_u0, smooth_path, sg, 2.0) > clean + 0.01


class TestInclusion:
    def test_mid_section_on_graph(self, sg, rng, drifts):
        for f in drifts.values():
            u = FieldSeries(sg.grid, rng.standard_normal((6, sg.grid.M)))
            g = FieldSeries(sg.grid, f.mid_values(u.values))
            assert inclusion_check(u, g, f, 1e-10) == 1.0

    def test_converged_cubic_run(self, sg, smooth_path, sine_u0):
        f = power_graph(3.0)
        lam = 2.0**-16
        traj = solve_regularized(f, lam, sine_u0, smooth_path, sg)
        g = extract_g(traj, f, lam)
        assert inclusion_check(traj, g, f, 1e-4) >= 0.999

    def test_shifted_g_fails(self, sg, smooth_path, sine_u0):
        f = power_graph(3.0)
        traj = solve_regularized(f, 0.01, sine_u0, smooth_path, sg)
        g = extract_g(traj, f, 0.01)
        shifted = FieldSeries(sg.grid, g.values + 1.0)
        assert inclusion_check(traj, shifted, f, 1e-4) <= 0.01


class TestQstar:
    def test_examples(self):
        assert qstar(2.0, 2.0, 3.0) == 6.0
        assert qstar(1.5, 1.0, 3.0) == 4.5
        assert qstar(4.0, 1.0, 1.0) == 4.0

    def test_invalid(self):
        with pytest.raises(InvalidExponents):
            qstar(1.0, 1.0, 1.0)
        with pytest.raises(InvalidExponents):
            qstar(2.0, 3.0, 1.0)
        with pytest.raises(InvalidExponents):
            qstar(2.0, 1.0, -1.0)
