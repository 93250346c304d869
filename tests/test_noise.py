"""Stochastic convolution sampling: exactness, determinism, path norms, export."""

import numpy as np
import pytest

from mildlab.errors import InvalidTimeGrid
from mildlab.grid_space import Grid, lq_norm
from mildlab.noise import (DiffusionSpec, export_noise_sidecar,
                           export_series_csv, load_sidecar_and_resample,
                           norm_c_lq, norm_ld_lqd, path_seeds, restrict_path,
                           sample_mode_ensemble, sample_path)
from mildlab.semigroup import HeatSemigroup, to_modes


class TestDiffusionSpec:
    def test_power_law_weights(self):
        spec = DiffusionSpec(c=2.0, gamma=1.0)
        w = spec.mode_weights(4)
        assert np.allclose(w, [2.0, 1.0, 2.0 / 3.0, 0.5])

    def test_explicit_weights(self):
        spec = DiffusionSpec(weights=(0.0, 1.0, 2.0))
        assert np.allclose(spec.mode_weights(3), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            spec.mode_weights(5)

    def test_from_dict_inverts_to_dict(self):
        for spec in (DiffusionSpec(c=1, gamma=2), DiffusionSpec(c=0.5, gamma=1.5),
                     DiffusionSpec(weights=(0.0, 1.5))):
            again = DiffusionSpec.from_dict(spec.to_dict())
            assert again == spec
            assert again.to_dict() == spec.to_dict()
        assert type(DiffusionSpec.from_dict({"c": 1, "gamma": 2}).c) is int
        assert DiffusionSpec.from_dict({"c": 2.0}) == DiffusionSpec(c=2.0, gamma=1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DiffusionSpec(c=-1.0)
        with pytest.raises(ValueError):
            DiffusionSpec(weights=(1.0, -0.5))


class TestSampling:
    def test_determinism(self, sg):
        spec = DiffusionSpec(c=1.0, gamma=1.0)
        a = sample_path(sg, spec, 0.25, 2.0**-8, seed=7)
        b = sample_path(sg, spec, 0.25, 2.0**-8, seed=7)
        assert np.array_equal(a.mode_values, b.mode_values)
        c = sample_path(sg, spec, 0.25, 2.0**-8, seed=8)
        assert not np.array_equal(a.mode_values, c.mode_values)

    def test_zero_weights_give_zero_path(self, sg):
        spec = DiffusionSpec(weights=tuple(0.0 for _ in range(sg.grid.M)))
        p = sample_path(sg, spec, 0.25, 2.0**-8, seed=7)
        assert np.all(p.mode_values == 0.0)
        assert np.all(p.fields.values == 0.0)

    def test_starts_at_zero(self, smooth_path):
        assert np.all(smooth_path.mode_values[0] == 0.0)

    def test_time_grid_validation(self, sg):
        spec = DiffusionSpec()
        with pytest.raises(InvalidTimeGrid):
            sample_path(sg, spec, 1.0, 0.3, seed=1)
        with pytest.raises(InvalidTimeGrid):
            sample_path(sg, spec, -1.0, 0.5, seed=1)

    def test_assembly_consistency(self, sg, smooth_path):
        for n in (0, 3, smooth_path.n_steps):
            coeffs = to_modes(sg, smooth_path.fields[n])
            assert np.max(np.abs(coeffs - smooth_path.mode_values[n])) < 1e-12

    def test_single_mode_variance_monte_carlo(self, sg):
        # Ito isometry for the scalar OU mode: var = b^2 (1 - e^{-2 mu t}) / (2 mu)
        weights = np.zeros(sg.grid.M)
        weights[0] = 1.0
        spec = DiffusionSpec(weights=tuple(weights))
        T, delta = 0.5, 2.0**-6
        seeds = path_seeds(11, 2000)
        keep = [8, 16, 32]
        ens = sample_mode_ensemble(sg, spec, T, delta, seeds, keep=keep)
        mu = sg.eigenvalues[0]
        for pos, n in enumerate(keep):
            t = n * delta
            exact = (1 - np.exp(-2 * mu * t)) / (2 * mu)
            sample = ens[:, pos, 0]
            emp = np.var(sample)
            se = exact * np.sqrt(2.0 / (len(seeds) - 1))
            assert abs(emp - exact) <= 5 * se
        assert np.all(ens[:, :, 1:] == 0.0)

    def test_cross_mode_independence_and_mean(self, sg):
        spec = DiffusionSpec(c=1.0, gamma=0.5)
        seeds = path_seeds(13, 2000)
        ens = sample_mode_ensemble(sg, spec, 0.25, 2.0**-6, seeds, keep=[16])
        final = ens[:, 0, :]
        bound = 5.0 / np.sqrt(len(seeds))
        for j, k in [(0, 1), (0, 4), (2, 3)]:
            corr = np.corrcoef(final[:, j], final[:, k])[0, 1]
            assert abs(corr) <= bound
        for k in range(5):
            std = np.std(final[:, k])
            assert abs(np.mean(final[:, k])) <= 5 * std / np.sqrt(len(seeds))

    def test_smoothness_monotone_in_gamma(self, sg):
        seeds = path_seeds(29, 200)
        means = []
        for gamma in (0.6, 1.0, 2.0):
            spec = DiffusionSpec(c=1.0, gamma=gamma)
            total = 0.0
            for s in seeds:
                p = sample_path(sg, spec, 0.25, 2.0**-7, int(s))
                total += norm_c_lq(p, 2.0)
            means.append(total / len(seeds))
        assert means[0] > means[1] > means[2]

    def test_ensemble_rejects_keep_outside_time_grid(self, sg):
        seeds = path_seeds(5, 2)
        with pytest.raises(InvalidTimeGrid):
            sample_mode_ensemble(sg, DiffusionSpec(), 0.25, 2.0**-6, seeds,
                                 keep=[16, 99, -1])

    def test_ensemble_repeated_keep_index(self, sg):
        spec = DiffusionSpec(c=1.0, gamma=1.0)
        seeds = path_seeds(5, 2)
        ens = sample_mode_ensemble(sg, spec, 0.25, 2.0**-6, seeds, keep=[5, 5])
        for i, s in enumerate(seeds):
            snap = sample_path(sg, spec, 0.25, 2.0**-6, int(s)).mode_values[5]
            assert np.array_equal(ens[i, 0], snap)
            assert np.array_equal(ens[i, 1], snap)

    def test_ensemble_matches_individual_paths(self, sg):
        spec = DiffusionSpec(c=1.0, gamma=1.0)
        seeds = path_seeds(5, 3)
        ens = sample_mode_ensemble(sg, spec, 0.25, 2.0**-6, seeds)
        for i, s in enumerate(seeds):
            p = sample_path(sg, spec, 0.25, 2.0**-6, int(s))
            assert np.array_equal(p.mode_values, ens[i])


class TestRestriction:
    def test_every_other_snapshot(self, smooth_path):
        coarse = restrict_path(smooth_path, 2)
        assert coarse.n_steps == smooth_path.n_steps // 2
        assert coarse.delta == 2 * smooth_path.delta
        assert np.array_equal(coarse.mode_values, smooth_path.mode_values[::2])

    def test_bad_factor(self, smooth_path):
        with pytest.raises(InvalidTimeGrid):
            restrict_path(smooth_path, 7)


class TestPathNorms:
    def test_zero_path(self, sg):
        spec = DiffusionSpec(weights=tuple(0.0 for _ in range(sg.grid.M)))
        p = sample_path(sg, spec, 0.25, 2.0**-6, seed=3)
        assert norm_c_lq(p, 2.0) == 0.0
        assert norm_ld_lqd(p, 3.0, 2.0) == 0.0

    def test_sup_dominates_snapshots(self, smooth_path):
        sup = norm_c_lq(smooth_path, 1.5)
        norms = smooth_path.fields.norms(1.5)
        assert np.all(norms <= sup + 1e-15)
        assert sup <= np.sum(norms) + 1e-15

    def test_d_zero_convention(self, smooth_path):
        assert norm_ld_lqd(smooth_path, 0.0, 2.0) == 0.0

    def test_constant_in_time_linear_case(self, sg, smooth_path):
        # verify the quadrature on a synthetic constant-in-time path
        p = sample_path(sg, DiffusionSpec(c=1.0, gamma=2.0), 0.5, 2.0**-6, seed=9)
        const = np.tile(p.mode_values[-1], (p.n_steps + 1, 1))
        frozen = type(p)(sg, p.spec, p.T, p.delta, p.seed, const)
        snapshot = lq_norm(frozen.fields[0], 2.0)
        assert norm_ld_lqd(frozen, 1.0, 2.0) == pytest.approx(p.T * snapshot, rel=1e-12)

    def test_monotone_in_horizon(self, sg):
        spec = DiffusionSpec(c=1.0, gamma=1.0)
        p_long = sample_path(sg, spec, 0.5, 2.0**-6, seed=21)
        long_norm = norm_ld_lqd(p_long, 2.0, 1.5)
        half = type(p_long)(sg, spec, 0.25, p_long.delta, 21,
                            p_long.mode_values[: p_long.n_steps // 2 + 1].copy())
        assert norm_ld_lqd(half, 2.0, 1.5) <= long_norm + 1e-15


class TestExport:
    def test_csv_and_sidecar_roundtrip(self, sg, tmp_path):
        spec = DiffusionSpec(c=1.0, gamma=1.5)
        p = sample_path(sg, spec, 0.25, 2.0**-6, seed=77)
        csv_file = tmp_path / "noise.csv"
        side_file = tmp_path / "noise.json"
        export_series_csv(p.fields, p.times, csv_file)
        export_noise_sidecar(p, side_file)
        again = load_sidecar_and_resample(side_file)
        assert np.array_equal(again.mode_values, p.mode_values)
        csv_file2 = tmp_path / "noise2.csv"
        export_series_csv(again.fields, again.times, csv_file2)
        assert csv_file.read_bytes() == csv_file2.read_bytes()

    def test_sidecar_keeps_integer_amplitudes(self, sg, tmp_path):
        p = sample_path(sg, DiffusionSpec(c=1, gamma=2), 0.25, 2.0**-6, seed=5)
        export_noise_sidecar(p, tmp_path / "a.json")
        assert '"c": 1,' in (tmp_path / "a.json").read_text()
        again = load_sidecar_and_resample(tmp_path / "a.json")
        assert np.array_equal(again.mode_values, p.mode_values)
        export_noise_sidecar(again, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_csv_header_and_shape(self, sg, tmp_path):
        p = sample_path(sg, DiffusionSpec(), 0.25, 2.0**-4, seed=1)
        dest = tmp_path / "n.csv"
        export_series_csv(p.fields, p.times, dest)
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "time,node,value"
        assert len(lines) == 1 + (p.n_steps + 1) * sg.grid.M

    def test_failed_export_leaves_no_file(self, sg, tmp_path):
        p = sample_path(sg, DiffusionSpec(), 0.25, 2.0**-4, seed=1)
        dest = tmp_path / "n.csv"
        # one time short: the export raises after writing three snapshots
        with pytest.raises(IndexError):
            export_series_csv(p.fields, p.times[:3], dest)
        assert list(tmp_path.iterdir()) == []
        dest.write_text("previous\n")
        with pytest.raises(IndexError):
            export_series_csv(p.fields, p.times[:3], dest)
        assert list(tmp_path.iterdir()) == [dest]
        assert dest.read_text() == "previous\n"
