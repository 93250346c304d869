"""Experiment runners confronting the quantitative estimates with solver output.

Each study measures a claim on realized solver trajectories and returns a
:class:`StudyReport` whose verdict is decided by explicit thresholds:

- exact-constant inequalities are asserted with the constant from the
  underlying derivation (4, 2, contraction 1) and a small numerical slack;
- convergence-rate verdicts allow a 0.15 slope slack, since the predicted
  rates bound the gaps from above and finite-lambda preasymptotics can only
  steepen the observed decay;
- where a claim has no traceable constant, the constant is fitted once on a
  designated calibration run, frozen into the report, and regression-tested
  on the remaining runs.

A study over noise paths steps each path with that path's own semigroup
(path.sg) and takes the cell width h from u0's grid (contraction_extension,
which builds its data, from the path's), so it takes no semigroup argument;
chain_rule, which has no path, takes one.

Such a study takes ``workers`` and runs one path per task on
:func:`map_ordered`; a task sends back only that path's seed and measurements,
never its trajectories, and a report does not depend on ``workers``.  A
sequence of paths that samples on indexing (the CLI's) thus samples each path
in its task.  The cauchy, moment and apriori studies reduce each time chunk
of a path's whole schedule (solver.regularized_chunks) into running maxima,
so a task never holds a (levels, n_steps + 1, M) block.  The l1 study keeps it:
its top-k partition and whole-level sums would change bits if chunked.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..errors import InvalidTimeGrid, StudyPrecondition, require
from ..grid_space import FieldSeries, GridFunction, big_gamma0, lq_norm, lq_norms
from ..noise import NoisePath, norm_ld_lqd, time_steps
from ..scalar_monotone import (MonotoneGraph, primitive_array, section_max_abs,
                               yosida_array)
from ..semigroup import HeatSemigroup, convolve_series, semigroup_series
from ..solver import SolverConfig, qstar, regularized_chunks, solve_mild, solve_regularized
from .report import StudyReport, map_ordered

__all__ = [
    "cauchy_rate_study",
    "l1_convergence_study",
    "chain_rule_study",
    "bernoulli_study",
    "eiconv_demo",
    "moment_study",
    "propagation_study",
    "contraction_extension_study",
    "apriori_constants_study",
]

RATE_SLACK = 0.15
NUMERICAL_ZERO = 1e-10
# Fixed study settings, recorded in each report's inputs or thresholds.
SMALL_SET_MEASURES = (1e-1, 1e-2)   # l1: space-time measures of the small sets
SPIKE_MARGIN = 0.1                  # contraction_extension: u0 = x^(-1/(q+margin))
TRUNCATION_LEVELS = (1.0, 2.0, 4.0, 8.0, 16.0)  # contraction_extension: caps on that u0
HEADROOM = 1.05                     # propagation: regression runs may exceed C by this factor
APRIORI_SLACK = 1e-8                # apriori: numerical slack on both inequalities
MOMENT_PATHS = 100                  # moment: the smallest ensemble
BERNOULLI_SAMPLES, BERNOULLI_STEPS, BERNOULLI_T = 1000, 256, 1.0
EICONV_N_MAX, EICONV_CELLS = 1024, 2**16


def expected_rate(q: float) -> float:
    """Predicted Cauchy-gap exponent in lambda: 1/q for q >= 2, (q-1)/q below."""
    return 1.0 / q if q >= 2.0 else (q - 1.0) / q


def _reaches_zero(g: np.ndarray) -> int:
    """Number of gaps before the first one at or below NUMERICAL_ZERO."""
    small = np.flatnonzero(g <= NUMERICAL_ZERO)
    return int(small[0]) if small.size else g.size


def _decreasing_to_zero(g: np.ndarray) -> bool:
    """Strict decrease up to the first gap at or below NUMERICAL_ZERO, and every
    later gap at or below it too: a run that converges exactly stops decreasing."""
    head = _reaches_zero(g)
    return bool(np.all(np.diff(g[: head + 1]) < 0.0) and np.all(g[head:] <= NUMERICAL_ZERO))


def _map_seeded(run, paths, workers: int) -> tuple[list[int], list]:
    """(seeds, run(path) for each path) in path order, one path per map_ordered task.

    A task indexes its own path and sends back its seed with run's result.
    """
    pairs = map_ordered(lambda path: (path.seed, run(path)), paths, workers)
    return [seed for seed, _ in pairs], [result for _, result in pairs]


def cauchy_rate_study(
    f: MonotoneGraph,
    q: float,
    paths: Sequence[NoisePath],
    config: SolverConfig,
    u0: GridFunction,
    workers: int = 1,
) -> StudyReport:
    """Measure sup-in-time L^q gaps along the halving schedule and fit the rate.

    The fit runs over the gaps before the first one at or below NUMERICAL_ZERO.
    paths[i] is read once, in path i's task; paths is never iterated here.
    """
    require(q, "> 1", "q of the cauchy rate study", StudyPrecondition)
    if len(config.lambda_schedule) < 3:
        raise StudyPrecondition("cauchy rate study needs at least 3 lambda levels")
    rate = expected_rate(q)
    report = StudyReport(
        study="cauchy_rate",
        claim=f"consecutive-iterate gaps decrease with log-log slope >= {rate:.4g} - {RATE_SLACK}",
        inputs={
            "drift": f.name,
            "q": q,
            "lambda_schedule": list(config.lambda_schedule),
        },
        thresholds={"min_slope": rate - RATE_SLACK, "numerical_zero": NUMERICAL_ZERO},
    )

    def run(path: NoisePath) -> list[float]:
        gaps = np.full(len(config.lambda_schedule) - 1, -np.inf)
        for chunk in regularized_chunks(f, config.lambda_schedule, u0, path):
            np.maximum(gaps, lq_norms(chunk[:-1] - chunk[1:], u0.grid.h, q).max(axis=1), out=gaps)
        return [float(gap) for gap in gaps]

    lams = np.asarray(config.lambda_schedule[:-1])
    slopes = []
    decreasing = degenerate = True
    report.inputs["seeds"], results = _map_seeded(run, paths, workers)
    for i, gaps in enumerate(results):
        report.series[f"gaps_path{i}"] = gaps
        g = np.asarray(gaps)
        if np.all(g <= NUMERICAL_ZERO):
            continue  # degenerate drift: nothing to fit
        degenerate = False
        decreasing &= _decreasing_to_zero(g)
        head = _reaches_zero(g)
        if head >= 2:
            slopes.append(float(np.polyfit(np.log(lams[:head]), np.log(g[:head]), 1)[0]))
    report.series["lambdas"] = list(config.lambda_schedule)
    if slopes:
        report.fitted["min_slope"] = min(slopes)
        report.fitted["mean_slope"] = float(np.mean(slopes))
        report.checks["slope_at_least_rate_minus_slack"] = (
            min(slopes) >= rate - RATE_SLACK
        )
    if degenerate:
        report.checks["gaps_at_numerical_zero"] = True
    else:
        report.checks["gaps_strictly_decreasing"] = decreasing
    return report.finalize()


def l1_convergence_study(
    f: MonotoneGraph,
    paths: Sequence[NoisePath],
    config: SolverConfig,
    u0: GridFunction,
    workers: int = 1,
) -> StudyReport:
    """L^1 continuation for bounded drifts: gaps, smoothed-modulus control,
    equiintegrability proxy, and the product-boundedness measurement.

    The proxy for a measure m is the largest integral of |g| over m / cell
    space-time cells; past the run's whole measure it is the whole integral.
    paths[i] is read once, in path i's task; paths is never iterated here.
    """
    if f.growth_exponent != 0.0:
        raise StudyPrecondition("the L^1 study requires a bounded drift (d = 0)")
    if len(config.lambda_schedule) < 2:
        raise StudyPrecondition("the L^1 study needs at least 2 lambda levels")
    report = StudyReport(
        study="l1_convergence",
        claim="sup-L1 gaps decrease below tolerance; smoothed-modulus deviation <= sqrt(eps)/4",
        inputs={
            "drift": f.name,
            "lambda_schedule": list(config.lambda_schedule),
            "small_set_measures": list(SMALL_SET_MEASURES),
        },
        thresholds={"cauchy_tol": config.cauchy_tol},
    )
    grid = u0.grid
    sched = config.lambda_schedule

    def run(path: NoisePath):
        cell = grid.h * path.delta
        gaps, gamma_sups, dev_ok = [], [], True
        proxies = {m: 0.0 for m in SMALL_SET_MEASURES}
        product_sup = 0.0
        prev = prev_lam = None
        for lam, traj in zip(sched, solve_regularized(f, sched, u0, path)):
            if prev is not None:
                eps = prev_lam + lam
                diff = prev - traj
                gam = grid.h * np.sum(big_gamma0(diff, eps), axis=1)
                l1 = lq_norms(diff, grid.h, 1.0)
                gaps.append(float(np.max(l1)))
                dev = gam - l1
                dev_ok &= bool(np.all(dev >= -1e-12) and np.all(dev <= np.sqrt(eps) / 4 + 1e-12))
                gamma_sups.append(float(np.max(gam)))
            u = traj[:-1]
            g_vals = yosida_array(f, lam, u)
            flat = np.abs(g_vals).reshape(-1)
            for m in SMALL_SET_MEASURES:
                k = min(int(np.floor(m / cell)), flat.size)
                top = np.partition(flat, len(flat) - k)[-k:] if k > 0 else np.array([0.0])
                proxies[m] = max(proxies[m], cell * float(np.sum(top)))
            product_sup = max(product_sup, cell * float(np.sum(np.abs(g_vals * u))))
            prev, prev_lam = traj, lam
        return gaps, gamma_sups, dev_ok, proxies, product_sup

    report.inputs["seeds"], results = _map_seeded(run, paths, workers)
    gaps_ok = gamma_ok = dev_all = proxy_ok = True
    for i, (gaps, gamma_sups, dev_ok, proxies, product_sup) in enumerate(results):
        report.series[f"gaps_path{i}"] = gaps
        report.series[f"gamma_sup_path{i}"] = gamma_sups
        report.series[f"equiintegrability_proxy_path{i}"] = [
            proxies[m] for m in SMALL_SET_MEASURES
        ]
        report.series[f"drift_product_l1_path{i}"] = [product_sup]
        g = np.asarray(gaps)
        if np.all(g <= NUMERICAL_ZERO):
            continue
        gaps_ok &= _decreasing_to_zero(g) and gaps[-1] < config.cauchy_tol
        gamma_ok &= bool(np.all(np.diff(np.asarray(gamma_sups)) < 0.0))
        dev_all &= dev_ok
        vals = [proxies[m] for m in SMALL_SET_MEASURES]
        proxy_ok &= bool(all(b <= a + 1e-15 for a, b in zip(vals, vals[1:])))
        proxy_ok &= bool(all(np.isfinite(v) for v in vals))
    report.series["lambdas"] = list(sched)
    report.checks["gaps_decrease_below_tol"] = gaps_ok
    report.checks["gamma_functional_decreasing"] = gamma_ok
    report.checks["gamma_deviation_within_quarter_sqrt_eps"] = dev_all
    report.checks["small_set_integral_decreasing_in_measure"] = proxy_ok
    return report.finalize()


def chain_rule_study(
    q: float,
    sg: HeatSemigroup,
    forcing,
    v0: GridFunction,
    T: float = 1.0,
    deltas: tuple[float, ...] = (2.0**-9, 2.0**-10),
) -> StudyReport:
    """Norm-power chain inequality for v = S(.)v0 + S*F under refinement.

    ``forcing`` maps a time array (n,) to forcing values (n, M).
    Checks the integrated inequality

        ||v(t_n)||_q^q <= ||v0||_q^q + q sum_{j<n} delta <F_j, J_q(v_j)> + tol

    with the largest violation over n >= 1 (n = 0 holds with equality)
    shrinking at least at first order in delta, plus the
    discrete one-sided differentiability inequality, which is an exact
    convexity theorem at every step.
    """
    require(q, "> 1", "q of the chain rule study", StudyPrecondition)
    if not deltas:
        raise StudyPrecondition("chain rule study needs deltas, each taking at least one step")
    try:
        n_steps = {d: time_steps(T, d) for d in deltas}
    except InvalidTimeGrid as exc:
        raise StudyPrecondition(f"chain rule study needs at least one step to T: {exc}") from exc
    report = StudyReport(
        study="chain_rule",
        claim="integrated norm-power inequality violated at most O(delta); "
        "one-sided derivative inequality exact",
        inputs={"q": q, "T": T, "deltas": list(deltas)},
        thresholds={"fd_tol": 1e-10, "ratio_low": 1.5},
    )
    grid = sg.grid
    violations = []
    fd_ok = True
    for delta in sorted(deltas, reverse=True):
        times = delta * np.arange(n_steps[delta] + 1)
        fvals = np.asarray(forcing(times), dtype=float)
        fseries = FieldSeries(grid, fvals)
        conv = convolve_series(sg, fseries, delta)
        v = semigroup_series(sg, v0, times).values + conv.values
        norms_q = grid.h * np.sum(np.abs(v) ** q, axis=1)
        zeta = np.sign(v) * np.abs(v) ** (q - 1.0)
        pair = grid.h * np.sum(fvals * zeta, axis=1)
        rhs = norms_q[0] + q * delta * np.concatenate([[0.0], np.cumsum(pair[:-1])])
        violations.append(float(np.max((norms_q - rhs)[1:])))
        fd_lhs = (norms_q[1:] - norms_q[:-1]) / delta
        fd_rhs = q * grid.h * np.sum((v[1:] - v[:-1]) / delta * zeta[:-1], axis=1)
        fd_ok &= bool(np.all(fd_lhs >= fd_rhs - 1e-10))
        if np.max(np.abs(fvals)) == 0.0:
            report.checks["zero_forcing_norm_decreasing"] = bool(
                np.all(np.diff(norms_q) <= 1e-14)
            )
    report.series["deltas"] = sorted(deltas, reverse=True)
    report.series["max_violation"] = violations
    report.checks["one_sided_derivative_inequality"] = fd_ok
    if len(violations) >= 2 and violations[0] > 1e-12:
        ratios = [a / b for a, b in zip(violations, violations[1:]) if b > 0]
        report.fitted["violation_ratios"] = ratios
        report.checks["violation_first_order_in_delta"] = all(r >= 1.5 for r in ratios)
    else:
        report.checks["violation_at_numerical_zero"] = all(
            v <= 1e-10 for v in violations
        )
    return report.finalize()


def _extremal_path(y0: float, g: np.ndarray, delta: float) -> np.ndarray:
    """y_0 = y0 and y_{n+1} = sqrt(y_n^2 + delta g_n y_n): the extremal trajectory."""
    y = np.empty(len(g) + 1)
    y[0] = y0
    for n in range(len(g)):
        y[n + 1] = np.sqrt(y[n] ** 2 + delta * g[n] * y[n])
    return y


def bernoulli_study(seed: int = 0) -> StudyReport:
    """Integral inequality y^2 <= y0^2 + int g y  =>  y <= y0 + 2 int g.

    Builds the extremal trajectory by forward substitution on random
    nonnegative step functions and asserts the linear bound, plus the exact
    closed form y = y0 + c t / 2 for constant g.
    """
    rng = np.random.default_rng(seed)
    n_steps = BERNOULLI_STEPS
    delta = BERNOULLI_T / n_steps
    report = StudyReport(
        study="bernoulli_inequality",
        claim="extremal solution of y^2 = y0^2 + int g*y stays below y0 + 2 int g",
        inputs={"n_samples": BERNOULLI_SAMPLES, "seed": seed, "n_steps": n_steps,
                "T": BERNOULLI_T},
        thresholds={"slack": 1e-8},
    )
    worst = -np.inf
    for _ in range(BERNOULLI_SAMPLES):
        g = rng.uniform(0.0, 2.0, size=n_steps)
        y0 = rng.uniform(0.1, 2.0)
        y = _extremal_path(y0, g, delta)
        bound = y0 + 2.0 * delta * np.concatenate([[0.0], np.cumsum(g)])
        worst = max(worst, float(np.max(y - bound)))
    report.fitted["worst_margin"] = worst
    report.checks["zero_violations"] = worst <= 1e-8

    # constant forcing: closed form y = y0 + c t / 2, bound y0 + 2 c t
    c, y0 = 1.5, 1.0
    y = _extremal_path(y0, np.full(n_steps, c), delta)
    t = delta * np.arange(n_steps + 1)
    exact = y0 + 0.5 * c * t
    report.fitted["constant_g_closed_form_error"] = float(np.max(np.abs(y - exact)))
    report.checks["constant_g_matches_closed_form"] = bool(
        np.max(np.abs(y - exact)) <= c * delta
    )
    report.checks["constant_g_under_bound"] = bool(np.all(y <= y0 + 2.0 * c * t + 1e-12))

    # zero forcing: y stays at y0, which is the bound y0 + 2 int 0
    report.checks["zero_g_tight"] = bool(
        np.all(_extremal_path(y0, np.zeros(n_steps), delta) == y0))
    return report.finalize()


def eiconv_demo() -> StudyReport:
    """Pairings <f_n, g_n> on [0,1] for n = 1, 2, 4, ..., EICONV_N_MAX: equiintegrable
    family vs spike control.

    g_n = 1_[0,1/n] shrinks; against a fixed integrable density the pairing
    decays like n^(-1/2), against the non-equiintegrable spike family
    f_n = n 1_[0,1/n] it stays exactly 1.
    """
    ns = [2**j for j in range(EICONV_N_MAX.bit_length())]
    cells = EICONV_CELLS
    mid = (np.arange(cells) + 0.5) / cells
    width = 1.0 / cells
    density = 0.5 / np.sqrt(mid)  # integrable, unbounded at 0
    fam, control = [], []
    for n in ns:
        support = mid < 1.0 / n
        fam.append(float(np.sum(density[support]) * width))
        control.append(float(n * np.sum(support) * width))
    report = StudyReport(
        study="equiintegrable_pairing_limit",
        claim="pairing against shrinking-support indicators vanishes for an "
        "equiintegrable family and stays ~1 for the concentrating control",
        inputs={"n_max": EICONV_N_MAX, "cells": cells},
        thresholds={"family_relative_tail": 0.1, "control_window": 0.1},
        series={"n": ns, "family_pairing": fam, "control_pairing": control,
                "zero_pairing": [0.0 for _ in ns]},
    )
    report.fitted["family_final_over_initial"] = fam[-1] / fam[0]
    report.checks["family_pairing_vanishes"] = fam[-1] <= 0.1 * fam[0]
    report.checks["family_pairing_decreasing"] = bool(
        np.all(np.diff(np.asarray(fam)) < 0.0)
    )
    report.checks["control_pairing_stays_unit"] = all(
        abs(c - 1.0) <= 0.1 for c in control
    )
    return report.finalize()


def moment_study(
    f: MonotoneGraph,
    q: float,
    p: float,
    paths: Sequence[NoisePath],
    config: SolverConfig,
    u0: GridFunction,
    workers: int = 1,
) -> StudyReport:
    """Monte Carlo E sup_t ||u_lam||_q^p across the schedule.

    Estimates must be lambda-stable (within 3 combined standard errors) and
    sit below the ensemble mean of the pathwise a-priori bound
    (||u0||_q + sup_t ||z||_q + 4 sum delta ||fmax(z)||_q)^p.
    paths[i] is read once, in path i's task; paths is never iterated here.
    """
    if len(paths) < MOMENT_PATHS:
        raise StudyPrecondition(f"moment study needs at least {MOMENT_PATHS} paths")
    grid = u0.grid
    report = StudyReport(
        study="moment_stability",
        claim="E sup_t ||u_lam||_q^p is lambda-independent within Monte Carlo "
        "error and bounded by the explicit a-priori constant",
        inputs={
            "drift": f.name,
            "q": q,
            "p": p,
            "n_paths": len(paths),
            "lambda_schedule": list(config.lambda_schedule),
        },
        thresholds={"se_multiplier": 3.0},
    )

    def run(path: NoisePath):
        fq = lq_norms(section_max_abs(f, path.fields.values), grid.h, q)
        bound_base = (
            lq_norm(u0, q)
            + path.fields.sup_norm(q)
            + 4.0 * path.delta * float(np.sum(fq[:-1]))
        )
        sups = np.full(len(config.lambda_schedule), -np.inf)
        for chunk in regularized_chunks(f, config.lambda_schedule, u0, path):
            np.maximum(sups, lq_norms(chunk, grid.h, q).max(axis=1), out=sups)
        return [float(sup) ** p for sup in sups], bound_base**p

    report.inputs["seeds"], results = _map_seeded(run, paths, workers)
    sups = np.asarray([r[0] for r in results])  # (n_paths, n_lambda)
    bounds = np.asarray([r[1] for r in results])
    ests = sups.mean(axis=0)
    ses = sups.std(axis=0, ddof=1) / np.sqrt(len(paths))
    bound_mean = float(bounds.mean())
    bound_se = float(bounds.std(ddof=1) / np.sqrt(len(paths)))
    report.series["lambdas"] = list(config.lambda_schedule)
    report.series["estimates"] = [float(e) for e in ests]
    report.series["standard_errors"] = [float(s) for s in ses]
    report.fitted["apriori_bound_mean"] = bound_mean
    stable = True
    for i in range(len(ests)):
        for j in range(i + 1, len(ests)):
            combined = np.sqrt(ses[i] ** 2 + ses[j] ** 2)
            if abs(ests[i] - ests[j]) > 3.0 * combined + 1e-12:
                stable = False
    report.checks["lambda_variation_within_3se"] = stable
    report.checks["bounded_by_apriori_constant"] = bool(
        np.all(ests <= bound_mean + 3.0 * bound_se + 1e-12)
    )
    return report.finalize()


def propagation_study(
    f: MonotoneGraph,
    q: float,
    r: float,
    d: float,
    paths: Sequence[NoisePath],
    config: SolverConfig,
    u0: GridFunction,
    frozen_constant: float | None = None,
    workers: int = 1,
) -> StudyReport:
    """Space-integrability of u0 propagates: sup_t ||u||_{q*} <= C (1 + xi + ||u0||_{q*}).

    xi = sup_t ||z||_{q*} + (L^d-in-time L^{d q*} norm of z)^d.  Without a
    frozen constant the run is a calibration: it fits C as the worst ratio
    over its ensemble and freezes it into the report.  With one, the run is
    a regression test: no path may exceed the frozen C times the headroom.
    paths[i] is read once, in path i's task; paths is never iterated here.
    """
    if frozen_constant is not None:
        require(frozen_constant, "> 0", "frozen_constant of the propagation study",
                StudyPrecondition)
    qs = qstar(q, r, d)
    if qs < q:
        raise StudyPrecondition(f"propagation study needs q* >= q, got q*={qs}")
    report = StudyReport(
        study="integrability_propagation",
        claim="sup-in-time L^{q*} norm of the solution is controlled by "
        "1 + xi + ||u0||_{q*} with a frozen fitted constant",
        inputs={
            "drift": f.name, "q": q, "r": r, "d": d, "qstar": qs,
            "mode": "calibration" if frozen_constant is None else "regression",
        },
        thresholds={"headroom": HEADROOM},
    )

    def run(path: NoisePath):
        xi = path.fields.sup_norm(qs) + norm_ld_lqd(path, d, qs) ** d
        sol = solve_mild(f, u0, path, config)
        m = sol.u.sup_norm(qs)
        return xi, m

    report.inputs["seeds"], results = _map_seeded(run, paths, workers)
    u0_norm = lq_norm(u0, qs)
    xis = [r_[0] for r_ in results]
    ratios = [m / (1.0 + xi + u0_norm) for xi, m in results]
    report.series["xi"] = xis
    report.series["ratios"] = ratios
    if frozen_constant is None:
        frozen_constant = max(ratios)
        report.fitted["frozen_constant"] = frozen_constant
        report.checks["calibration_ratios_finite"] = all(
            np.isfinite(rho) for rho in ratios
        )
    else:
        report.fitted["frozen_constant"] = frozen_constant
        report.checks["no_run_exceeds_frozen_constant"] = all(
            rho <= frozen_constant * HEADROOM for rho in ratios
        )
    return report.finalize()


def contraction_extension_study(
    f: MonotoneGraph,
    q: float,
    path: NoisePath,
    config: SolverConfig,
    workers: int = 1,
) -> StudyReport:
    """Extend the solution map from bounded data to an L^q spike by density.

    u0(x) = x^(-1/(q+margin)) lies in L^q but not in L^{q*}; its truncations
    at increasing levels are bounded, and the solutions they produce must be
    Cauchy with sup-L^q gaps dominated by the initial-datum gaps.
    """
    grid = path.grid
    spike = grid.nodes ** (-1.0 / (q + SPIKE_MARGIN))
    data = [GridFunction(grid, np.minimum(spike, m)) for m in TRUNCATION_LEVELS]
    report = StudyReport(
        study="contraction_extension",
        claim="solution gaps for truncated data are dominated by data gaps "
        "(contraction transfer to the L^q closure)",
        inputs={
            "drift": f.name, "q": q, "seed": path.seed,
            "truncation_levels": list(TRUNCATION_LEVELS),
            "spike_margin": SPIKE_MARGIN,
        },
        thresholds={"slack": 1e-10, "uniqueness_tol": 2.0 * config.cauchy_tol},
    )
    sols = map_ordered(
        lambda u0: solve_mild(f, u0, path, config), data, workers
    )
    data_gaps = [lq_norm(b - a, q) for a, b in zip(data, data[1:])]
    sol_gaps = [(b.u - a.u).sup_norm(q) for a, b in zip(sols, sols[1:])]
    report.series["data_gaps"] = data_gaps
    report.series["solution_gaps"] = sol_gaps
    report.checks["solution_gaps_dominated"] = all(
        sgap <= dgap + 1e-10 for sgap, dgap in zip(sol_gaps, data_gaps)
    )

    # uniqueness probe: two independent decreasing schedules, each run until
    # its own Cauchy stop, must land on the same limit
    lam0 = config.lambda_schedule[0]
    probes = []
    for ratio in (2.0, 3.0):
        sched = tuple(lam0 * ratio**-j for j in range(24))
        probe_config = dataclasses.replace(config, lambda_schedule=sched)
        probes.append(solve_mild(f, data[-1], path, probe_config))
    drift_gap = (probes[0].u - probes[1].u).sup_norm(q)
    report.fitted["independent_schedule_gap"] = drift_gap
    both_converged = probes[0].converged and probes[1].converged
    report.checks["independent_schedules_agree"] = (
        both_converged and drift_gap <= 2.0 * config.cauchy_tol
    )
    return report.finalize(inconclusive=not both_converged)


def apriori_constants_study(
    f: MonotoneGraph,
    qs_linear: tuple[float, ...],
    qs_square: tuple[float, ...],
    paths: Sequence[NoisePath],
    config: SolverConfig,
    u0: GridFunction,
    workers: int = 1,
) -> StudyReport:
    """Explicit-constant a-priori bounds on v = u - z at every step and lambda.

    Linear form (every q in qs_linear):
        ||v(t_n)||_q <= ||u0||_q + 4 sum_{j<n} delta ||fmax(z(t_j))||_q + slack
    Squared form (every q in qs_square, q >= 2):
        ||v(t_n)||_q^2 <= ||u0||_q^2 + 2 sum_{j<n} delta ||phi(z(t_j))||_{q/2} + slack
    paths[i] is read once, in path i's task; paths is never iterated here.
    """
    if not (qs_linear or qs_square):
        raise StudyPrecondition("apriori study needs at least one q in qs_linear or qs_square")
    grid = u0.grid
    report = StudyReport(
        study="apriori_constants",
        claim="explicit constant-4 and constant-2 a-priori inequalities hold "
        "at every step and every lambda",
        inputs={
            "drift": f.name,
            "qs_linear": list(qs_linear),
            "qs_square": list(qs_square),
            "lambda_schedule": list(config.lambda_schedule),
        },
        thresholds={"slack": APRIORI_SLACK},
    )

    def run(path: NoisePath):
        z = path.fields.values
        fmax = section_max_abs(f, z)
        phi_z = primitive_array(f, z)

        def left_sums(norms: np.ndarray) -> np.ndarray:
            # sum_{j<n} delta * norms[j] for every n
            return path.delta * np.concatenate([[0.0], np.cumsum(norms[:-1])])

        # the lambda-independent sides: (q, ||u0||_q, summed forcing norms)
        linear = [(q, lq_norm(u0, q), left_sums(lq_norms(fmax, grid.h, q))) for q in qs_linear]
        square = [(q, lq_norm(u0, q), left_sums(lq_norms(phi_z, grid.h, q / 2.0)))
                  for q in qs_square]
        worst_linear = worst_square = -np.inf
        rows = slice(0, 0)
        for chunk in regularized_chunks(f, config.lambda_schedule, u0, path):
            rows = slice(rows.stop, rows.stop + chunk.shape[1])
            v = chunk - z[rows]  # u - z at every level; each q's norms taken once
            norms = {q: lq_norms(v, grid.h, q) for q in {*qs_linear, *qs_square}}
            for q, u0q, csum in linear:
                worst_linear = max(worst_linear, float(np.max(norms[q] - u0q - 4.0 * csum[rows])))
            for q, u0q, csum in square:
                worst_square = max(
                    worst_square, float(np.max(norms[q] ** 2 - u0q**2 - 2.0 * csum[rows]))
                )
        return worst_linear, worst_square

    report.inputs["seeds"], results = _map_seeded(run, paths, workers)
    forms = (("linear", qs_linear, "constant_4_inequality"),
             ("square", qs_square, "constant_2_inequality"))
    for margins, (form, qs, check) in zip(zip(*results), forms):
        if qs:  # a form without a q is not checked, and its -inf margins are not reported
            report.series[f"worst_{form}_margin"] = list(margins)
            report.fitted[f"worst_{form}"] = max(margins)
            report.checks[check] = max(margins) <= APRIORI_SLACK
    return report.finalize()
