"""Studies, reports, and the invariant battery."""

import json

import numpy as np
import pytest

from mildlab.errors import StudyPrecondition
from mildlab.grid_space import Grid, GridFunction
from mildlab.noise import DiffusionSpec, path_seeds, sample_path
from mildlab.scalar_monotone import power_graph, sign_graph, zero_graph
from mildlab.semigroup import HeatSemigroup
from mildlab.solver import SolverConfig
from mildlab.verify import (StudyReport, apriori_constants_study,
                            bernoulli_study, cauchy_rate_study,
                            chain_rule_study, config_digest,
                            contraction_extension_study, eiconv_demo,
                            l1_convergence_study, map_ordered, moment_study,
                            propagation_study, run_invariant_battery)

SCHEDULE = tuple(0.25 * 2.0**-j for j in range(5))


@pytest.fixture(scope="module")
def small():
    grid = Grid(31)
    sg = HeatSemigroup(grid, 1.0)
    T, delta = 0.25, 2.0**-7
    spec = DiffusionSpec(c=1.0, gamma=2.0)
    paths = [sample_path(sg, spec, T, delta, int(s)) for s in path_seeds(2024, 3)]
    u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    config = SolverConfig(q=2.0, r=2.0, lambda_schedule=SCHEDULE,
                          cauchy_tol=1e-3)
    return grid, sg, paths, u0, config


class TestCauchyStudy:
    def test_cubic_passes(self, small):
        grid, sg, paths, u0, config = small
        rep = cauchy_rate_study(power_graph(3.0), 2.0, paths, sg, config, u0)
        assert rep.verdict == "pass"
        assert rep.fitted["min_slope"] >= 0.35
        assert rep.checks["gaps_strictly_decreasing"]

    def test_degenerate_drift_passes_with_zero_gaps(self, small):
        grid, sg, paths, u0, config = small
        rep = cauchy_rate_study(zero_graph(), 2.0, paths, sg, config, u0)
        assert rep.verdict == "pass"
        for i in range(len(paths)):
            assert np.max(rep.series[f"gaps_path{i}"]) <= 1e-10

    def test_worker_invariance(self, small):
        grid, sg, paths, u0, config = small
        a = cauchy_rate_study(power_graph(3.0), 2.0, paths, sg, config, u0, workers=1)
        b = cauchy_rate_study(power_graph(3.0), 2.0, paths, sg, config, u0, workers=4)
        assert a.to_json() == b.to_json()


class TestL1Study:
    def test_sign_drift(self, small):
        grid, sg, paths, u0, config = small
        cfg = SolverConfig(q=2.0, r=2.0,
                           lambda_schedule=tuple(0.25 * 2.0**-j for j in range(13)),
                           cauchy_tol=1e-3)
        rep = l1_convergence_study(sign_graph(), paths[:2], sg, cfg, u0)
        assert rep.verdict == "pass"
        assert rep.checks["gamma_deviation_within_quarter_sqrt_eps"]
        # bounded drift: small-set integral is at most the set measure
        for i in range(2):
            proxies = rep.series[f"equiintegrability_proxy_path{i}"]
            assert proxies[0] <= 0.1 + 1e-12
            assert proxies[1] <= 0.01 + 1e-12
            # second hypothesis of the L^1 machinery is measured and reported
            assert f"drift_product_l1_path{i}" in rep.series

    def test_unbounded_drift_rejected(self, small):
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="bounded drift"):
            l1_convergence_study(power_graph(3.0), paths, sg, config, u0)

    def test_degenerate_drift(self, small):
        grid, sg, paths, u0, config = small
        rep = l1_convergence_study(zero_graph(), paths[:1], sg, config, u0)
        assert rep.verdict == "pass"
        assert np.max(rep.series["gaps_path0"]) <= 1e-10


class TestChainRule:
    @staticmethod
    def forcing(grid):
        shape = np.sin(np.pi * grid.nodes) + 0.4 * np.sin(2 * np.pi * grid.nodes)

        def F(times):
            return np.outer(np.cos(2 * np.pi * times), shape)

        return F

    def test_smooth_forcing(self, small):
        grid, sg, paths, u0, config = small
        rep = chain_rule_study(2.0, sg, self.forcing(grid), u0, T=0.5,
                               deltas=(2.0**-8, 2.0**-9))
        assert rep.verdict == "pass"
        assert rep.checks["one_sided_derivative_inequality"]

    @pytest.mark.parametrize("deltas", [(), (2.0,)])
    def test_needs_a_step(self, small, deltas):
        # with no delta, or one rounding to zero steps, no inequality is checked
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="at least one step"):
            chain_rule_study(2.0, sg, self.forcing(grid), u0, T=0.5, deltas=deltas)

    def test_zero_forcing_norm_decreasing(self, small):
        grid, sg, paths, u0, config = small
        rep = chain_rule_study(3.0, sg, lambda t: np.zeros((len(t), grid.M)), u0,
                               T=0.5, deltas=(2.0**-8, 2.0**-9))
        assert rep.verdict == "pass"
        assert rep.checks["zero_forcing_norm_decreasing"]
        assert max(rep.series["max_violation"]) <= 1e-10

    def test_single_mode_l2_ode_oracle(self, small):
        # q = 2, forcing on one eigenmode: the trajectory is c(t) e_1 with
        # dc/dt = -mu c + a(t), so ||v(t)||_2 = |c(t)| via a scalar ODE oracle.
        grid, sg, paths, _, config = small
        from mildlab.grid_space import FieldSeries, lq_norm
        from mildlab.semigroup import apply_semigroup, convolve_series

        mu = sg.eigenvalues[0]
        e1 = sg.eigenvector(1)
        delta, T = 2.0**-10, 0.25
        n = round(T / delta)
        times = delta * np.arange(n + 1)
        forcing_vals = np.outer(np.cos(times), e1.values)
        conv = convolve_series(sg, FieldSeries(grid, forcing_vals), delta)
        # scalar oracle with the same left-frozen forcing quadrature
        c = np.empty(n + 1)
        c[0] = 1.0
        dec = np.exp(-mu * delta)
        for j in range(n):
            c[j + 1] = dec * c[j] + np.cos(times[j]) * (1 - dec) / mu
        for k in (1, n // 2, n):
            v_k = apply_semigroup(sg, e1, times[k]) + conv[k]
            assert lq_norm(v_k, 2.0) == pytest.approx(abs(c[k]), abs=1e-10)
        rep = chain_rule_study(2.0, sg, lambda ts: np.outer(np.cos(ts), e1.values),
                               e1, T=T, deltas=(delta,))
        assert max(rep.series["max_violation"]) <= 5.0 * delta


class TestBernoulli:
    def test_zero_violations(self):
        rep = bernoulli_study(n_samples=300, seed=5)
        assert rep.verdict == "pass"
        assert rep.fitted["worst_margin"] <= 1e-8
        assert rep.checks["constant_g_matches_closed_form"]

    def test_deterministic(self):
        assert bernoulli_study(50, seed=1).to_json() == bernoulli_study(50, seed=1).to_json()


class TestEiconv:
    def test_family_vanishes_control_stays(self):
        rep = eiconv_demo(n_max=1024)
        assert rep.verdict == "pass"
        fam = rep.series["family_pairing"]
        ctl = rep.series["control_pairing"]
        assert all(abs(c - 1.0) <= 1e-9 for c in ctl)  # exact on aligned cells
        assert fam[-1] == pytest.approx(np.sqrt(1.0 / 1024), rel=0.05)
        assert rep.series["zero_pairing"] == [0.0] * len(fam)


class TestMoment:
    def test_needs_hundred_paths(self, small):
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="100"):
            moment_study(power_graph(3.0), 2.0, 2.0, paths, sg, config, u0)

    def test_lambda_stable_and_bounded(self, small):
        grid, sg, _, u0, _ = small
        delta = 2.0**-7
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        paths = [sample_path(sg, spec, 0.25, delta, int(s))
                 for s in path_seeds(77, 100)]
        config = SolverConfig(q=2.0, r=2.0,
                              lambda_schedule=SCHEDULE[:4], cauchy_tol=1e-3)
        rep = moment_study(power_graph(3.0), 2.0, 2.0, paths, sg, config, u0)
        assert rep.verdict == "pass"
        assert len(rep.series["estimates"]) == 4

    def test_degenerate_drift_exactly_lambda_free(self, small):
        grid, sg, _, u0, _ = small
        delta = 2.0**-7
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        paths = [sample_path(sg, spec, 0.25, delta, int(s))
                 for s in path_seeds(78, 100)]
        config = SolverConfig(q=2.0, r=2.0,
                              lambda_schedule=SCHEDULE[:3], cauchy_tol=1e-3)
        rep = moment_study(zero_graph(), 2.0, 2.0, paths, sg, config, u0)
        assert rep.verdict == "pass"
        ests = rep.series["estimates"]
        assert max(ests) - min(ests) <= 1e-12


class TestPropagation:
    def test_calibrate_then_regression(self, small):
        grid, sg, paths, u0, config = small
        cal = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths, sg,
                                config, u0)
        assert cal.inputs["qstar"] == 6.0
        assert cal.inputs["mode"] == "calibration"
        assert cal.verdict == "pass"
        frozen = cal.fitted["frozen_constant"]
        reg = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths, sg,
                                config, u0, frozen_constant=frozen)
        assert reg.inputs["mode"] == "regression"
        assert reg.verdict == "pass"
        tight = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths, sg,
                                  config, u0, frozen_constant=frozen / 2.0)
        assert tight.verdict == "fail"

    def test_qstar_below_q_rejected(self, small):
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="q\\*"):
            propagation_study(power_graph(3.0), 4.0, 1.0, 0.5, paths, sg, config, u0)

    def test_zero_drift_zero_data_under_unit_constant(self, small):
        # f = 0, u0 = 0: the solution IS the noise, so sup||u|| <= xi and C = 1 suffices
        grid, sg, paths, _, config = small
        zero_u0 = GridFunction(grid, np.zeros(grid.M))
        rep = propagation_study(zero_graph(), 2.0, 2.0, 3.0, paths, sg, config,
                                zero_u0, frozen_constant=1.0)
        assert rep.verdict == "pass"

    def test_u0_scaling_probe(self, small):
        # doubling u0 scales the bound's denominator accordingly; both calibrate cleanly
        grid, sg, paths, u0, config = small
        rep1 = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths[:2], sg, config, u0)
        rep2 = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths[:2], sg, config,
                                 GridFunction(grid, 2.0 * u0.values))
        assert rep2.verdict == "pass"
        assert rep1.verdict == "pass"


class TestContractionExtension:
    def test_spike_truncations(self, small):
        grid, sg, paths, u0, config = small
        rep = contraction_extension_study(power_graph(3.0), 2.0, paths[0], sg, config)
        assert rep.verdict == "pass"
        gaps = rep.series["solution_gaps"]
        data_gaps = rep.series["data_gaps"]
        assert all(s <= d + 1e-10 for s, d in zip(gaps, data_gaps))

    def test_bounded_u0_saturates(self, small):
        grid, sg, paths, u0, config = small
        # truncation levels above the spike maximum give identical data, zero gaps
        rep = contraction_extension_study(
            power_graph(3.0), 2.0, paths[0], sg, config,
            truncation_levels=(50.0, 100.0))
        assert rep.series["data_gaps"] == [0.0]
        assert rep.series["solution_gaps"][0] <= 1e-12


class TestAprioriStudy:
    def test_cubic(self, small):
        grid, sg, paths, u0, config = small
        rep = apriori_constants_study(power_graph(3.0), (1.5, 2.0, 3.0), (2.0, 4.0),
                                      paths[:2], sg, config, u0)
        assert rep.verdict == "pass"
        assert rep.fitted["worst_linear"] <= 1e-8
        assert rep.fitted["worst_square"] <= 1e-8

    def test_degenerate(self, small):
        grid, sg, paths, u0, config = small
        rep = apriori_constants_study(zero_graph(), (2.0,), (2.0,), paths[:1],
                                      sg, config, u0)
        assert rep.verdict == "pass"


class TestReportMachinery:
    def test_save_and_load(self, tmp_path):
        rep = bernoulli_study(20, seed=3)
        rep.save(tmp_path / "bern")
        loaded = StudyReport.load(tmp_path / "bern")
        assert loaded.verdict == rep.verdict
        assert loaded.fitted == rep.fitted
        series_csv = (tmp_path / "bern" / "series.csv").read_text()
        assert series_csv.startswith("series,index,value")

    def test_bitwise_reproducible_artifacts(self, tmp_path):
        for d in ("a", "b"):
            bernoulli_study(20, seed=3).save(tmp_path / d)
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
            (tmp_path / "b" / "series.csv").read_bytes()

    def test_digest_is_stable_and_order_free(self):
        a = config_digest({"x": 1, "y": [1, 2]})
        b = config_digest({"y": [1, 2], "x": 1})
        assert a == b
        assert len(a) == 64

    def test_map_ordered_preserves_order(self):
        out = map_ordered(lambda x: x * x, list(range(20)), workers=4)
        assert out == [x * x for x in range(20)]

    def test_verdict_rules(self):
        rep = StudyReport(study="s", claim="c", checks={"a": True, "b": False})
        assert rep.finalize().verdict == "fail"
        rep2 = StudyReport(study="s", claim="c", checks={"a": True})
        assert rep2.finalize().verdict == "pass"
        assert rep2.finalize(inconclusive=True).verdict == "inconclusive"


class TestInvariantBattery:
    def test_all_pass_quickly(self):
        checks = run_invariant_battery(M=63, n_samples=500)
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert "noise_determinism" in names
        assert any(n.startswith("semigroup_contraction") for n in names)
