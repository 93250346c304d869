"""Studies, reports, and the invariant battery."""

import dataclasses
import json

import numpy as np
import pytest

from mildlab.errors import StudyPrecondition
from mildlab.grid_space import Grid, GridFunction
from mildlab.noise import DiffusionSpec, path_seeds, sample_path
from mildlab.scalar_monotone import (compile_branch, linear_graph, piecewise_graph,
                                     power_graph, primitive_array, sign_graph, zero_graph)
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
        rep = cauchy_rate_study(power_graph(3.0), 2.0, paths, config, u0)
        assert rep.verdict == "pass"
        assert rep.fitted["min_slope"] >= 0.35
        assert rep.checks["gaps_strictly_decreasing"]

    def test_degenerate_drift_passes_with_zero_gaps(self, small):
        grid, sg, paths, u0, config = small
        rep = cauchy_rate_study(zero_graph(), 2.0, paths, config, u0)
        assert rep.verdict == "pass"
        for i in range(len(paths)):
            assert np.max(rep.series[f"gaps_path{i}"]) <= 1e-10

    @pytest.mark.parametrize("levels", [1, 2])
    def test_too_few_levels_rejected(self, small, levels):
        # one gap fits no slope; no gap measures nothing
        grid, sg, paths, u0, config = small
        short = dataclasses.replace(config, lambda_schedule=SCHEDULE[:levels])
        with pytest.raises(StudyPrecondition, match="at least 3 lambda levels"):
            cauchy_rate_study(power_graph(3.0), 2.0, paths, short, u0)

    def test_rerun_identical(self, small):
        grid, sg, paths, u0, config = small
        a = cauchy_rate_study(power_graph(3.0), 2.0, paths, config, u0)
        b = cauchy_rate_study(power_graph(3.0), 2.0, paths, config, u0)
        assert a.to_json() == b.to_json()


class TestGapsReachingZero:
    """M=7 and one step of 2^-6 with sign drift: the gaps reach exactly 0.0."""

    @pytest.fixture(scope="class")
    def exact(self):
        grid = Grid(7)
        sg = HeatSemigroup(grid, 1.0)
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        paths = [sample_path(sg, spec, 2.0**-6, 2.0**-6, int(s)) for s in path_seeds(12, 2)]
        u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
        return sg, paths, u0, SolverConfig()

    def test_l1_study_passes(self, exact):
        sg, paths, u0, config = exact
        rep = l1_convergence_study(sign_graph(), paths, config, u0)
        assert rep.series["gaps_path0"][-1] == 0.0
        assert rep.checks["gaps_decrease_below_tol"]
        assert rep.verdict == "pass"

    def test_cauchy_study_passes(self, exact):
        sg, paths, u0, config = exact
        rep = cauchy_rate_study(sign_graph(), 2.0, paths, config, u0)
        assert rep.series["gaps_path0"][-1] == 0.0
        assert rep.checks["gaps_strictly_decreasing"]
        assert rep.fitted["min_slope"] >= 0.35  # fitted on the gaps above zero
        assert rep.verdict == "pass"


class TestL1Study:
    def test_sign_drift(self, small):
        grid, sg, paths, u0, config = small
        cfg = SolverConfig(q=2.0, r=2.0,
                           lambda_schedule=tuple(0.25 * 2.0**-j for j in range(13)),
                           cauchy_tol=1e-3)
        rep = l1_convergence_study(sign_graph(), paths[:2], cfg, u0)
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
            l1_convergence_study(power_graph(3.0), paths, config, u0)

    def test_single_level_rejected(self, small):
        grid, sg, paths, u0, config = small
        short = dataclasses.replace(config, lambda_schedule=SCHEDULE[:1])
        with pytest.raises(StudyPrecondition, match="at least 2 lambda levels"):
            l1_convergence_study(sign_graph(), paths, short, u0)

    def test_degenerate_drift(self, small):
        grid, sg, paths, u0, config = small
        rep = l1_convergence_study(zero_graph(), paths[:1], config, u0)
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

    def test_needs_deltas_that_end_on_T(self, small):
        # 3 steps of 0.3 end at 0.9 and 7 of 0.15 at 1.05, not at T = 1
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="does not divide T=1.0"):
            chain_rule_study(2.0, sg, self.forcing(grid), u0, T=1.0, deltas=(0.3, 0.15))

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
        from mildlab.grid_space import FieldSeries, GridFunction, lq_norm
        from mildlab.semigroup import apply_semigroup, convolve_series

        mu = sg.eigenvalues[0]
        e1 = GridFunction(grid, np.sqrt(2.0) * np.sin(np.pi * grid.nodes))
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
            moment_study(power_graph(3.0), 2.0, 2.0, paths, config, u0)

    def test_lambda_stable_and_bounded(self, small):
        grid, sg, _, u0, _ = small
        delta = 2.0**-7
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        paths = [sample_path(sg, spec, 0.25, delta, int(s))
                 for s in path_seeds(77, 100)]
        config = SolverConfig(q=2.0, r=2.0,
                              lambda_schedule=SCHEDULE[:4], cauchy_tol=1e-3)
        rep = moment_study(power_graph(3.0), 2.0, 2.0, paths, config, u0)
        assert rep.verdict == "pass"
        assert len(rep.series["estimates"]) == 4

    def test_lambda_dependent_estimates_are_unstable(self, small):
        # from a zero datum a steep linear drift's Yosida levels, about x / lam,
        # damp u by factors many standard errors apart
        grid, sg, _, _, _ = small
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        paths = [sample_path(sg, spec, 0.25, 2.0**-7, int(s)) for s in path_seeds(79, 100)]
        config = SolverConfig(lambda_schedule=SCHEDULE[:3])
        zero = GridFunction(grid, np.zeros(grid.M))
        rep = moment_study(linear_graph(1e3), 2.0, 2.0, paths, config, zero)
        assert rep.checks == {"lambda_variation_within_3se": False,
                              "bounded_by_apriori_constant": True}
        assert rep.verdict == "fail"
        ests, ses = rep.series["estimates"], rep.series["standard_errors"]
        assert ests[0] - ests[-1] > 3.0 * np.hypot(ses[0], ses[-1])

    def test_degenerate_drift_exactly_lambda_free(self, small):
        grid, sg, _, u0, _ = small
        delta = 2.0**-7
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        paths = [sample_path(sg, spec, 0.25, delta, int(s))
                 for s in path_seeds(78, 100)]
        config = SolverConfig(q=2.0, r=2.0,
                              lambda_schedule=SCHEDULE[:3], cauchy_tol=1e-3)
        rep = moment_study(zero_graph(), 2.0, 2.0, paths, config, u0)
        assert rep.verdict == "pass"
        ests = rep.series["estimates"]
        assert max(ests) - min(ests) <= 1e-12


class TestPropagation:
    def test_calibrate_then_regression(self, small):
        grid, sg, paths, u0, config = small
        cal = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths,
                                config, u0)
        assert cal.inputs["qstar"] == 6.0
        assert cal.inputs["mode"] == "calibration"
        assert cal.verdict == "pass"
        frozen = cal.fitted["frozen_constant"]
        reg = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths,
                                config, u0, frozen_constant=frozen)
        assert reg.inputs["mode"] == "regression"
        assert reg.verdict == "pass"
        tight = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths,
                                  config, u0, frozen_constant=frozen / 2.0)
        assert tight.verdict == "fail"

    def test_qstar_below_q_rejected(self, small):
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="q\\*"):
            propagation_study(power_graph(3.0), 4.0, 1.0, 0.5, paths, config, u0)

    def test_zero_drift_zero_data_under_unit_constant(self, small):
        # f = 0, u0 = 0: the solution IS the noise, so sup||u|| <= xi and C = 1 suffices
        grid, sg, paths, _, config = small
        zero_u0 = GridFunction(grid, np.zeros(grid.M))
        rep = propagation_study(zero_graph(), 2.0, 2.0, 3.0, paths, config,
                                zero_u0, frozen_constant=1.0)
        assert rep.verdict == "pass"

    def test_u0_scaling_probe(self, small):
        # doubling u0 scales the bound's denominator accordingly; both calibrate cleanly
        grid, sg, paths, u0, config = small
        rep1 = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths[:2], config, u0)
        rep2 = propagation_study(power_graph(3.0), 2.0, 2.0, 3.0, paths[:2], config,
                                 GridFunction(grid, 2.0 * u0.values))
        assert rep2.verdict == "pass"
        assert rep1.verdict == "pass"


class TestContractionExtension:
    def test_spike_truncations(self, small):
        grid, sg, paths, u0, config = small
        rep = contraction_extension_study(power_graph(3.0), 2.0, paths[0], config)
        assert rep.verdict == "pass"
        gaps = rep.series["solution_gaps"]
        data_gaps = rep.series["data_gaps"]
        assert all(s <= d + 1e-10 for s, d in zip(gaps, data_gaps))

    def test_bounded_u0_saturates(self, small):
        grid, sg, paths, u0, config = small
        # at M = 31 the spike peaks near 5.2, so the levels 8 and 16 give
        # identical data and a zero last gap
        rep = contraction_extension_study(power_graph(3.0), 2.0, paths[0], config)
        assert rep.series["data_gaps"][-1] == 0.0 < rep.series["data_gaps"][-2]
        assert rep.series["solution_gaps"][-1] <= 1e-12


class TestAprioriStudy:
    def test_cubic(self, small):
        grid, sg, paths, u0, config = small
        rep = apriori_constants_study(power_graph(3.0), (1.5, 2.0, 3.0), (2.0, 4.0),
                                      paths[:2], config, u0)
        assert rep.verdict == "pass"
        assert rep.fitted["worst_linear"] <= 1e-8
        assert rep.fitted["worst_square"] <= 1e-8

    def test_piecewise_generic_phi_matches_closed_form(self, small):
        # both graphs resolve by the generic root engine; only phi differs
        grid, sg, paths, u0, config = small
        generic = piecewise_graph("cubic-jump", [0.0], [compile_branch("x**3 - 1"),
                                                        compile_branch("x**3 + 1")], 3.0, 2.0)
        closed = dataclasses.replace(generic, fast_primitive=lambda x: x**4 / 4 + np.abs(x))
        reports = [apriori_constants_study(f, (2.0,), (2.0, 4.0), paths[:2], config, u0)
                   for f in (generic, closed)]
        assert [r.verdict for r in reports] == ["pass", "pass"]
        for key, value in reports[1].fitted.items():
            assert reports[0].fitted[key] == pytest.approx(value, abs=1e-12), key
        for key, series in reports[1].series.items():
            assert np.allclose(reports[0].series[key], series, rtol=0.0, atol=1e-12), key
        # the margins peak at n = 0, where they are exactly 0 whatever phi is,
        # so phi itself is compared on the field the study integrates
        z = paths[0].fields.values
        assert np.max(np.abs(primitive_array(generic, z) - primitive_array(closed, z))) <= 1e-12

    def test_degenerate(self, small):
        grid, sg, paths, u0, config = small
        rep = apriori_constants_study(zero_graph(), (2.0,), (2.0,), paths[:1],
                                      config, u0)
        assert rep.verdict == "pass"

    def test_needs_an_exponent(self, small):
        # with no q, no inequality is checked
        grid, sg, paths, u0, config = small
        with pytest.raises(StudyPrecondition, match="at least one q"):
            apriori_constants_study(power_graph(3.0), (), (), paths[:1], config, u0)


class TestStudiesOnThePool:
    """The four path studies give the same report at any worker count."""

    @pytest.fixture(scope="class")
    def tiny(self):
        grid = Grid(15)
        sg = HeatSemigroup(grid, 1.0)
        spec = DiffusionSpec(c=1.0, gamma=2.0)
        u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
        config = SolverConfig(q=2.0, r=2.0, lambda_schedule=SCHEDULE[:3], cauchy_tol=1e-3)

        def paths(seed, n, T):
            return [sample_path(sg, spec, T, 2.0**-6, int(s)) for s in path_seeds(seed, n)]

        return sg, u0, config, paths

    @pytest.mark.parametrize("study", ["cauchy", "l1", "moment", "apriori"])
    def test_report_independent_of_workers(self, tiny, study):
        sg, u0, config, paths = tiny
        two_levels = dataclasses.replace(config, lambda_schedule=SCHEDULE[:2])
        run = {
            "cauchy": lambda w: cauchy_rate_study(
                power_graph(3.0), 2.0, paths(5, 3, 0.25), config, u0, workers=w),
            "l1": lambda w: l1_convergence_study(
                sign_graph(), paths(6, 3, 0.25), two_levels, u0, workers=w),
            "moment": lambda w: moment_study(
                power_graph(3.0), 2.0, 2.0, paths(7, 100, 2.0**-4), two_levels, u0,
                workers=w),
            "apriori": lambda w: apriori_constants_study(
                power_graph(3.0), (1.5, 2.0), (2.0, 4.0), paths(8, 3, 0.25),
                two_levels, u0, workers=w),
        }[study]
        alone, pooled = run(1), run(2)
        assert pooled.to_json() == alone.to_json()
        assert pooled.series == alone.series
        assert alone.verdict in ("pass", "fail")  # a real verdict, not an error


class TestReportMachinery:
    def test_save_and_load(self, tmp_path):
        rep = bernoulli_study(20, seed=3)
        rep.save(tmp_path / "bern")
        loaded = json.loads((tmp_path / "bern" / "report.json").read_text())
        assert loaded["verdict"] == rep.verdict
        assert loaded["fitted"] == rep.fitted
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

    def test_map_ordered_keeps_order_of_a_closure_on_the_pool(self):
        offset = np.arange(3.0)
        out = map_ordered(lambda k: offset + k, range(9), workers=4)
        assert [o.tolist() for o in out] == [(offset + k).tolist() for k in range(9)]

    def test_map_ordered_reraises_the_lowest_failure(self):
        import multiprocessing

        def fn(k):
            if k in (2, 6):
                raise StudyPrecondition(f"item {k}")
            if k == 5:
                raise KeyError(k)
            return k

        with pytest.raises(StudyPrecondition, match="item 2"):
            map_ordered(fn, range(8), workers=4)
        with pytest.raises(KeyError):
            map_ordered(fn, range(3, 8), workers=4)
        assert multiprocessing.active_children() == []

    def test_verdict_rules(self):
        rep = StudyReport(study="s", claim="c", checks={"a": True, "b": False})
        assert rep.finalize().verdict == "fail"
        rep2 = StudyReport(study="s", claim="c", checks={"a": True})
        assert rep2.finalize().verdict == "pass"
        assert rep2.finalize(inconclusive=True).verdict == "inconclusive"


class TestInvariantBattery:
    def test_all_pass_quickly(self):
        checks = run_invariant_battery(M=63)
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert "noise_determinism" in names
        assert any(n.startswith("semigroup_contraction") for n in names)
