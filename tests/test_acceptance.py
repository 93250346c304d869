"""Acceptance suite: every criterion at its stated tolerance, one line each.

Heavy sweeps (the explicit-constant inequalities at 20 seeds, the rate fits
at 10 seeds) run at the production grid M = 127, delta = 2^-10, T = 1; the
shared sweep backing criteria 6 and 7 is computed once.  The per-criterion
pass lines are printed as tests complete and echoed in the terminal summary.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import record_criterion
from mildlab.grid_space import (FieldSeries, Grid, GridFunction, duality_map,
                                gamma_eps, lq_norm, pairing)
from mildlab.noise import DiffusionSpec, path_seeds, restrict_path, sample_path
from mildlab.scalar_monotone import (piecewise_graph, power_graph,
                                     resolvent_array, sign_graph,
                                     sign_plus_linear_graph, yosida_array,
                                     yosida_of_yosida_array)
from mildlab.semigroup import HeatSemigroup, apply_generator, apply_semigroup
from mildlab.solver import (SolverConfig, inclusion_check, solve_mild,
                            solve_regularized)
from mildlab.verify import (apriori_constants_study, bernoulli_study,
                            cauchy_rate_study, chain_rule_study, eiconv_demo,
                            l1_convergence_study)
from mildlab.verify.invariants import RESOLVENT_CHECK_TOL

SCHEDULE7 = tuple(0.25 * 2.0**-j for j in range(7))  # 2^-2 .. 2^-8


@pytest.fixture(scope="module")
def lab():
    grid = Grid(127)
    return grid, HeatSemigroup(grid, 1.0)


@pytest.fixture(scope="module")
def sweep_reports(lab):
    """Shared 20-seed sweep behind criteria 6 and 7 (one solve per case)."""
    grid, sg = lab
    spec = DiffusionSpec(c=1.0, gamma=2.0)
    paths = [sample_path(sg, spec, 1.0, 2.0**-10, int(s))
             for s in path_seeds(606, 20)]
    u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    config = SolverConfig(q=2.0, r=2.0,
                          lambda_schedule=SCHEDULE7, cauchy_tol=1e-14)
    reports = {}
    for graph in (power_graph(3.0), sign_graph(), sign_plus_linear_graph()):
        reports[graph.name] = apriori_constants_study(
            graph, (1.5, 2.0, 3.0), (2.0, 4.0), paths, config, u0)
    return reports


def test_criterion_01_scalar_identities(drifts, rng):
    start = time.time()
    for name, f in drifts.items():
        for _ in range(10):
            lam, mu = rng.uniform(1e-3, 1.0, 2)
            x = rng.uniform(-5.0, 5.0, 1000)
            y = rng.uniform(-5.0, 5.0, 1000)
            rx = resolvent_array(f, lam, x)
            ry = resolvent_array(f, mu, y)
            flx, fmy = (x - rx) / lam, (y - ry) / mu
            ident = (x - y) - (rx - ry + lam * flx - mu * fmy)
            assert np.max(np.abs(ident)) <= RESOLVENT_CHECK_TOL, name
            first = (flx - fmy) * (x - y)
            second = (flx - fmy) * (lam * flx - mu * fmy)
            floor = -(lam + mu) * (flx**2 + fmy**2)
            assert np.min(first - second) >= -RESOLVENT_CHECK_TOL, name
            assert np.min(second - floor) >= -RESOLVENT_CHECK_TOL, name
        for lam, mu in [(0.25, 0.125), (0.8, 0.04)]:
            x = rng.uniform(-5.0, 5.0, 10000)
            comp = yosida_of_yosida_array(f, lam, mu, x)
            direct = yosida_array(f, lam + mu, x)
            assert np.max(np.abs(comp - direct)) <= RESOLVENT_CHECK_TOL, name
    elapsed = time.time() - start
    assert elapsed < 10.0
    record_criterion(1, f"scalar identity, product bound, Yosida composition "
                        f"at 1e4 samples x 6 drifts within 1e-11 ({elapsed:.1f}s)")


def test_criterion_02_closed_form_resolvents(rng):
    start = time.time()
    xs = rng.uniform(-10.0, 10.0, 10000)
    generic_sign = piecewise_graph(
        "sign-generic", [0.0],
        [lambda x: np.full_like(x, -1.0), lambda x: np.full_like(x, 1.0)],
        growth_exponent=0.0, growth_constant=1.0)
    for lam in (0.5, 0.03):
        got = resolvent_array(generic_sign, lam, xs)
        want = np.sign(xs) * np.maximum(np.abs(xs) - lam, 0.0)
        assert np.max(np.abs(got - want)) <= 1e-10
    generic_linear = piecewise_graph("linear-generic", [], [lambda x: x], 1.0, 1.0)
    for lam in (1.0, 0.1):
        got = resolvent_array(generic_linear, lam, xs)
        assert np.max(np.abs(got - xs / (1 + lam))) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 5.0
    record_criterion(2, f"generic root engine matches sign/linear closed forms "
                        f"to 1e-10 at 1e4 points ({elapsed:.1f}s)")


def test_criterion_03_inequality_suites(rng):
    start = time.time()
    x = rng.uniform(0.0, 4.0, 100000)
    y = rng.uniform(0.0, 4.0, 100000)
    a = rng.uniform(0.0, 1.0, 100000)
    assert np.max(2.0 ** (a - 1) * (x**a + y**a) - (x + y) ** a) <= 1e-12
    assert np.max((x + y) ** a - (x**a + y**a)) <= 1e-12
    b = rng.uniform(1.0, 8.0, 100000)
    assert np.max((x**b + y**b) - (x + y) ** b) <= 1e-12
    assert np.max((x + y) ** b - 2.0 ** (b - 1) * (x**b + y**b)) <= 1e-12
    u = rng.uniform(-4.0, 4.0, 100000)
    v = rng.uniform(-4.0, 4.0, 100000)
    for q in (1.1, 1.5, 2.0):
        ju = np.sign(u) * np.abs(u) ** (q - 1)
        jv = np.sign(v) * np.abs(v) ** (q - 1)
        assert np.max(np.abs(ju - jv) - 2.0 ** (2 - q) * np.abs(u - v) ** (q - 1)) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    record_criterion(3, f"power-sum chains (both regimes) and duality-map Holder "
                        f"constant 2^(2-q), zero violations > 1e-12 over 1e5 samples ({elapsed:.1f}s)")


def test_criterion_04_semigroup_axioms(lab):
    start = time.time()
    grid, sg = lab
    gen = np.random.default_rng(404)
    for _ in range(1000):
        phi = GridFunction(grid, gen.standard_normal(grid.M))
        assert np.array_equal(apply_semigroup(sg, phi, 0.0).values, phi.values)
        s, t = gen.uniform(0.0, 0.4, 2)
        two = apply_semigroup(sg, apply_semigroup(sg, phi, s), t)
        one = apply_semigroup(sg, phi, s + t)
        assert np.max(np.abs(two.values - one.values)) <= 1e-10
        out = apply_semigroup(sg, phi, t)
        for q in (1.0, 1.5, 2.0, 3.0):
            assert lq_norm(out, q) <= lq_norm(phi, q) + 1e-10
        assert np.max(np.abs(out.values)) <= np.max(np.abs(phi.values)) + 1e-10
        pos = GridFunction(grid, np.abs(phi.values))
        assert np.min(apply_semigroup(sg, pos, t).values) >= -1e-10
        aphi = apply_generator(sg, phi)
        for eps in (1.0, 1e-2, 1e-4):
            gam = GridFunction(grid, gamma_eps(phi.values, eps))
            assert pairing(aphi, gam) >= -1e-10
        for q in (1.5, 2.0, 3.0):
            assert pairing(aphi, duality_map(phi, q)) >= -1e-10
    elapsed = time.time() - start
    assert elapsed < 30.0
    record_criterion(4, f"semigroup axioms, L^q contraction, positivity, sign "
                        f"condition at M=127 on 1e3 inputs within 1e-10 ({elapsed:.1f}s)")


def test_criterion_05_noise_exactness():
    start = time.time()
    grid = Grid(63)
    sg = HeatSemigroup(grid, 1.0)
    spec = DiffusionSpec(c=1.0, gamma=1.0)
    T, delta = 0.5, 2.0**-9
    n_paths = 2000
    seeds = path_seeds(505, n_paths)
    keep = [64, 128, 256]
    ens = np.stack([sample_path(sg, spec, T, delta, int(s)).mode_values[keep] for s in seeds])
    b = spec.mode_weights(grid.M)
    mu = sg.eigenvalues
    for k in range(5):
        for pos, n in enumerate(keep):
            t = n * delta
            exact = b[k] ** 2 * (1 - np.exp(-2 * mu[k] * t)) / (2 * mu[k])
            emp = np.var(ens[:, pos, k])
            se = exact * np.sqrt(2.0 / (n_paths - 1))
            assert abs(emp - exact) <= 5 * se, (k, n)
    final = ens[:, -1, :]
    corr_bound = 5.0 / np.sqrt(n_paths)
    for j, k in [(0, 1), (1, 2), (0, 4), (2, 3), (3, 4)]:
        corr = np.corrcoef(final[:, j], final[:, k])[0, 1]
        assert abs(corr) <= corr_bound, (j, k)
    elapsed = time.time() - start
    assert elapsed < 60.0
    record_criterion(5, f"per-mode OU variances within 5 SE over 2000 paths, "
                        f"cross-mode correlations within 5/sqrt(2000) ({elapsed:.1f}s)")


def test_criterion_06_explicit_constant_4(sweep_reports):
    for name, rep in sweep_reports.items():
        assert rep.checks["constant_4_inequality"], name
        assert rep.fitted["worst_linear"] <= 1e-8, name
    record_criterion(6, "||v(t_n)||_q <= ||u0||_q + 4 sum delta ||fmax(z)||_q for "
                        "{x^3, sgn, sgn+x} x q in {1.5,2,3} x 20 seeds x 7 lambdas, slack 1e-8")


def test_criterion_07_explicit_constant_2(sweep_reports):
    for name, rep in sweep_reports.items():
        assert rep.checks["constant_2_inequality"], name
        assert rep.fitted["worst_square"] <= 1e-8, name
    record_criterion(7, "||v||_q^2 <= ||u0||_q^2 + 2 sum delta ||phi(z)||_{q/2} for "
                        "q in {2,4}, same sweep, slack 1e-8")


def test_criterion_08_cauchy_rates(lab):
    start = time.time()
    grid, sg = lab
    spec = DiffusionSpec(c=1.0, gamma=2.0)
    paths = [sample_path(sg, spec, 1.0, 2.0**-10, int(s))
             for s in path_seeds(808, 10)]
    u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    cases = [
        (power_graph(3.0), 2.0, 0.35),            # theory 1/q = 0.5, slack 0.15
        (power_graph(2.0), 1.5, 1.0 / 3.0 - 0.15) # theory (q-1)/q = 1/3
    ]
    for graph, q, floor in cases:
        config = SolverConfig(q=q, r=q,
                              lambda_schedule=SCHEDULE7, cauchy_tol=1e-14)
        rep = cauchy_rate_study(graph, q, paths, config, u0)
        assert rep.checks["gaps_strictly_decreasing"], graph.name
        assert rep.fitted["min_slope"] >= floor, (graph.name, rep.fitted)
    elapsed = time.time() - start
    assert elapsed < 600.0
    record_criterion(8, f"per-seed gaps strictly decreasing; slopes >= 0.35 (x^3, q=2) "
                        f"and >= 1/3-0.15 (x|x|, q=1.5) over 10 seeds ({elapsed:.0f}s)")


def test_criterion_09_contraction(lab):
    start = time.time()
    grid, sg = lab
    spec = DiffusionSpec(c=1.0, gamma=2.0)
    paths = [sample_path(sg, spec, 1.0, 2.0**-10, int(s))
             for s in path_seeds(909, 20)]
    u0a = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    u0b = GridFunction(grid, 0.3 * np.sin(2 * np.pi * grid.nodes)
                       + 0.1 * np.sin(np.pi * grid.nodes))
    graph = power_graph(3.0)
    worst = 0.0
    lams = np.asarray(SCHEDULE7)  # every lambda; the last iterate is the limit surrogate
    for path in paths:
        for ta, tb in zip(solve_regularized(graph, lams, u0a, path),
                          solve_regularized(graph, lams, u0b, path)):
            for r in (1.0, 1.5, 2.0):
                num = FieldSeries(grid, ta - tb).sup_norm(r)
                ratio = num / lq_norm(u0a - u0b, r)
                worst = max(worst, ratio)
                assert ratio <= 1.0 + 1e-10
    elapsed = time.time() - start
    record_criterion(9, f"paired-run contraction ratio <= 1 + 1e-10 over 20 seeds, "
                        f"all lambdas and limits (worst {worst:.12f}, {elapsed:.0f}s)")


def test_criterion_10_linear_drift_oracle(lab):
    start = time.time()
    grid, sg = lab
    from test_solver import linear_drift_oracle
    from mildlab.scalar_monotone import linear_graph
    fine = sample_path(sg, DiffusionSpec(c=1.0, gamma=2.0), 1.0, 2.0**-11, seed=1010)
    u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    for c in (1.0, 5.0):
        errs = []
        for factor in (4, 2, 1):  # delta = 2^-9, 2^-10, 2^-11
            p = restrict_path(fine, factor)
            traj = solve_regularized(linear_graph(c), 1e-12, u0, p)[0]
            oracle = linear_drift_oracle(sg, c, u0, p)
            err = FieldSeries(grid, traj - oracle.values).sup_norm(2.0)
            errs.append(err)
            assert err <= 3.0 * c * p.delta  # sup error <= C delta
        assert 1.5 <= errs[0] / errs[1] <= 2.5
        assert 1.5 <= errs[1] / errs[2] <= 2.5
    elapsed = time.time() - start
    record_criterion(10, f"splitting solver vs exact per-mode recursion for f=cx, "
                         f"c in {{1,5}}: error O(delta), refinement ratios in [1.5,2.5] ({elapsed:.0f}s)")


def test_criterion_11_mild_identity_and_inclusion(lab):
    start = time.time()
    grid, sg = lab
    # continuous drift: x^3
    cubic = power_graph(3.0)
    u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    fine = sample_path(sg, DiffusionSpec(c=1.0, gamma=2.0), 1.0, 2.0**-11, seed=808)
    sched = tuple(0.25 * 2.0**-j for j in range(15))  # down to 2^-16
    cal = solve_mild(cubic, u0, restrict_path(fine, 8),
                     SolverConfig(q=2., r=2.,
                                  lambda_schedule=sched, cauchy_tol=1e-14))
    run = solve_mild(cubic, u0, restrict_path(fine, 2),
                     SolverConfig(q=2., r=2.,
                                  lambda_schedule=sched, cauchy_tol=1e-14))
    budget_constant = cal.residual / 2.0**-8
    assert run.residual <= 10.0 * budget_constant * 2.0**-10
    assert inclusion_check(run.u, run.g, cubic, 1e-4) >= 0.999
    # sign graph: stronger noise keeps the sticky set small
    sgn = sign_graph()
    u0s = GridFunction(grid, np.sin(np.pi * grid.nodes))
    fine_s = sample_path(sg, DiffusionSpec(c=2.0, gamma=2.0), 1.0, 2.0**-11, seed=809)
    sched17 = tuple(0.25 * 2.0**-j for j in range(16))
    cal_s = solve_mild(sgn, u0s, restrict_path(fine_s, 8),
                       SolverConfig(q=2., r=2.,
                                    lambda_schedule=sched17, cauchy_tol=1e-14))
    run_s = solve_mild(sgn, u0s, restrict_path(fine_s, 2),
                       SolverConfig(q=2., r=2.,
                                    lambda_schedule=sched17, cauchy_tol=1e-14))
    assert run_s.residual <= 10.0 * (cal_s.residual / 2.0**-8) * 2.0**-10
    assert inclusion_check(run_s.u, run_s.g, sgn, 1e-3) >= 0.99
    elapsed = time.time() - start
    record_criterion(11, f"residuals within 10x first-order budget; inclusion >= 0.999 "
                         f"at 1e-4 (x^3) and >= 0.99 at 1e-3 (sign) ({elapsed:.0f}s)")


def test_criterion_12_l1_study(lab):
    start = time.time()
    grid, sg = lab
    spec = DiffusionSpec(c=1.0, gamma=2.0)
    paths = [sample_path(sg, spec, 1.0, 2.0**-10, int(s))
             for s in path_seeds(1212, 3)]
    u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    config = SolverConfig(q=2.0, r=1.0,
                          lambda_schedule=tuple(0.25 * 2.0**-j for j in range(15)),
                          cauchy_tol=1e-3)
    rep = l1_convergence_study(sign_graph(), paths, config, u0)
    assert rep.verdict == "pass"
    assert rep.checks["gaps_decrease_below_tol"]
    assert rep.checks["gamma_deviation_within_quarter_sqrt_eps"]
    elapsed = time.time() - start
    assert elapsed < 300.0
    record_criterion(12, f"sign-drift sup-L1 gaps decrease monotonically below 1e-3; "
                         f"Gamma deviation never exceeds sqrt(eps)/4 ({elapsed:.0f}s)")


def test_criterion_13_auxiliary_lemmas(lab):
    start = time.time()
    grid, sg = lab
    bern = bernoulli_study(n_samples=1000, seed=13)
    assert bern.verdict == "pass"
    assert bern.fitted["worst_margin"] <= 1e-8

    shape = np.sin(np.pi * grid.nodes) + 0.4 * np.sin(2 * np.pi * grid.nodes)
    v0 = GridFunction(grid, 0.5 * shape)
    chain = chain_rule_study(
        2.0, sg, lambda t: np.outer(np.cos(2 * np.pi * t), shape), v0,
        T=0.5, deltas=(2.0**-9, 2.0**-10))
    assert chain.verdict == "pass"
    assert chain.checks["one_sided_derivative_inequality"]

    ei = eiconv_demo(n_max=1024)
    assert ei.verdict == "pass"
    fam = ei.series["family_pairing"]
    ctl = ei.series["control_pairing"]
    assert fam[-1] <= 0.1 * fam[0]
    assert all(abs(c - 1.0) <= 0.1 for c in ctl)
    elapsed = time.time() - start
    record_criterion(13, f"integral inequality sweep clean; chain-rule refinement "
                         f"first-order; pairing -> 0 vs spike control ~ 1 ({elapsed:.0f}s)")


def test_criterion_14_determinism(tmp_path):
    start = time.time()
    config = {
        "grid": {"M": 31, "nu": 1.0},
        "time": {"T": 0.125, "delta": 2.0**-8},
        "drift": {"kind": "power", "d": 3.0},
        "noise": {"c": 1.0, "gamma": 2.0},
        "seeds": {"master": 14, "n_paths": 2},
        "lambda_schedule": [0.25, 0.125, 0.0625],
        "output_dir": "run",
        "studies": {"cauchy": {}},
    }
    cfg_file = tmp_path / "config.json"
    cfg_file.write_text(json.dumps(config, indent=2))
    blobs = []
    for tag, workers in [("w1", "1"), ("w4", "4"), ("w1b", "1")]:
        root = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "mildlab.cli", "study", "cauchy",
             str(cfg_file), "--workers", workers, "--output-root", str(root)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        proc2 = subprocess.run(
            [sys.executable, "-m", "mildlab.cli", "solve", str(cfg_file),
             "--output-root", str(root)],
            capture_output=True, text=True)
        assert proc2.returncode == 0, proc2.stderr
        out = root / "run"
        blobs.append(b"".join(
            (out / name).read_bytes()
            for name in ("cauchy/report.json", "cauchy/series.csv",
                         "solution0_u.npy", "solution1_u.npy", "manifest.json")))
    assert blobs[0] == blobs[1] == blobs[2]
    trees = []
    for workers in ("1", "2", "4"):
        tree = {}
        for subcommand in ("solve", "sample-noise"):
            root = tmp_path / f"{subcommand}-w{workers}"
            proc = subprocess.run(
                [sys.executable, "-m", "mildlab.cli", subcommand, str(cfg_file),
                 "--workers", workers, "--output-root", str(root)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            tree.update({(subcommand, p.name): p.read_bytes()
                         for p in sorted((root / "run").iterdir())})
        trees.append(tree)
    assert len(trees[0]) == 2 * 2 + 2 * 2 + 2  # per path u, json; csv, json; manifests
    assert trees[0] == trees[1] == trees[2]
    elapsed = time.time() - start
    record_criterion(14, f"reruns byte-identical and invariant to worker count ({elapsed:.0f}s)")
